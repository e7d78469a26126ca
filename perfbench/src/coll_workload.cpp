/**
 * @file
 * coll: one coll::CollCampaign at 512 ranks (ring and halving-
 * doubling allreduce, pairwise all-to-all, 1 MiB per rank, on both
 * designs), one conv-64 all-to-all through coll::executeOnDcn with a
 * spine killed mid-collective, and the coll::executeOnFabric
 * cycle-accurate replay of the same schedules on the wafer's internal
 * Clos at 64 KiB. Every execution is a closed loop: each step waits
 * for the one before it.
 *
 * It uses flow differently from dcn (many short synchronised batches
 * of equal flows, plus a fault reroute) and sim differently from
 * fabric (trace-driven closed-loop replay through trace lowering),
 * and it is the only workload where the program's own observability
 * does real work: metrics, a trace sink, a profiler, per-step
 * telemetry and the flight recorder, as `wss coll --profile
 * --trace-out --stats-out --flight-recorder` attaches them.
 */

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "coll/campaign.hpp"
#include "common.hpp"
#include "digest.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "topology/clos.hpp"
#include "trace/coll_lowering.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wss;

constexpr int kRanks = 512;
constexpr double kPayload = 1 << 20;
constexpr double kFabricPayload = 64 * 1024;
/// executeOnFabric's flit size (bytes), as `wss coll --fabric`.
constexpr double kFlitBytes = 64.0;

void
addResult(Digest &d, const coll::CollExecResult &r)
{
    for (double v : {r.seconds, r.algbw_gbps, r.busbw_gbps, r.bytes_on_wire})
        d.add(v);
    d.add(static_cast<std::int64_t>(r.steps));
    d.add(r.messages);
    d.add(r.failed_messages);
}

class CollWorkload : public Workload
{
  public:
    void
    setup(const Context &ctx) override
    {
        const Designs designs = solveAndCalibrate(ctx);
        ws_ = designs.ws;
        conv_ = designs.conv;

        const std::vector<coll::CollSpec> specs = {
            {coll::Collective::AllReduce, coll::Algorithm::Ring},
            {coll::Collective::AllReduce, coll::Algorithm::HalvingDoubling},
            {coll::Collective::AllToAll, coll::Algorithm::Pairwise}};
        {
            ScopedSpan span(ctx.spans, "coll.schedule");
            schedules_.clear();
            for (const coll::CollSpec &spec : specs)
                schedules_.push_back(coll::buildSchedule(spec, kRanks));
        }

        coll::CollCampaignConfig cfg;
        cfg.designs = {designs.ws, designs.conv};
        cfg.kind = flow::DcnKind::FatTree;
        cfg.ranks = kRanks;
        cfg.collectives = specs;
        cfg.payload_bytes = {kPayload};
        cfg.seed = ctx.seed;
        campaign_ = std::make_unique<coll::CollCampaign>(std::move(cfg));

        // The fault execution: a spine of the conv-64 leaf-spine dies
        // halfway through the all-to-all; the fat tree stays connected,
        // so every message must still be delivered.
        const coll::Schedule &a2a = schedules_.back();
        {
            ScopedSpan span(ctx.spans, "flow.build");
            fault_topo_.emplace(flow::DcnTopology::buildFatTree(
                kRanks, static_cast<int>(conv_.radix), conv_.line_rate_gbps));
        }
        std::set<int> edges;
        for (std::int64_t h = 0; h < fault_topo_->hostCount(); ++h)
            edges.insert(fault_topo_->edgeOf(h));
        fault_.at_step = a2a.steps / 2;
        fault_.kill_switch = true;
        fault_.id = -1;
        for (int sw = 0; sw < fault_topo_->switchCount() && fault_.id < 0;
             ++sw)
            if (!edges.count(sw))
                fault_.id = sw;
        if (fault_.id < 0)
            fatal("perfbench coll: the conv-64 fabric has no spine");
        {
            // Messages released after the kill whose route crossed the
            // dead spine: executeOnDcn numbers flows 1.. in schedule
            // order and routes them on these tables until the kill.
            ScopedSpan span(ctx.spans, "fault.plan");
            rerouted_ = 0;
            flow::DcnPath path;
            for (std::size_t i = 0; i < a2a.messages.size(); ++i) {
                const coll::CollMessage &m = a2a.messages[i];
                if (m.step < fault_.at_step ||
                    !fault_topo_->route(m.src, m.dst, i + 1, &path))
                    continue;
                for (int sw : path.switches)
                    if (sw == fault_.id) {
                        ++rerouted_;
                        break;
                    }
            }
        }

        ScopedSpan span(ctx.spans, "sim.build");
        const std::int64_t half = designs.ws_ssc.radix / 2;
        fabric_.emplace(topology::buildFoldedClos(
            {(kRanks + half - 1) / half * half, designs.ws_ssc, 1}));
    }

    IterationResult
    iterate(const Context &ctx) override
    {
        IterationResult out;
        Digest digest;

        obs::MetricsRegistry metrics;
        obs::TraceEventSink sink;
        obs::Profiler profiler;
        if (ctx.program_obs) {
            obs::FlightRecorder::enable();
            obs::FlightRecorder::attachCurrentThread("main");
            sink.setProcessName("perfbench coll");
        }
        obs::TraceEventSink *trace = ctx.program_obs ? &sink : nullptr;
        obs::Profiler *prof = ctx.program_obs ? &profiler : nullptr;

        const auto start = std::chrono::steady_clock::now();
        coll::CollResult result;
        coll::CollExecResult faulted;
        {
            ScopedSpan span(ctx.spans, "coll.dcn");
            result = campaign_->run(ctx.pool, trace, prof);
            flow::DcnTopology topo = *fault_topo_;
            coll::CollExecConfig cfg;
            cfg.fault = fault_;
            if (ctx.program_obs) {
                cfg.metrics = &metrics;
                cfg.trace = trace;
                cfg.trace_label = "fault";
                cfg.telemetry = true;
                cfg.profiler = prof;
            }
            faulted = coll::executeOnDcn(schedules_.back(), kPayload, topo,
                                         conv_, cfg);
        }
        out.flow_seconds = secondsSince(start);

        std::int64_t lowered_flits = 0;
        {
            // executeOnFabric lowers each schedule itself; the same
            // lowering is timed here on its own.
            ScopedSpan span(ctx.spans, "trace.lower");
            for (const coll::Schedule &s : schedules_) {
                trace::MessageTrace mt;
                mt.name = s.name();
                mt.ranks = static_cast<int>(fabric_->totalExternalPorts());
                trace::appendSchedule(
                    mt, s, 0, 1,
                    static_cast<int>(std::lround(kFabricPayload / kFlitBytes)));
                lowered_flits += mt.totalFlits();
            }
        }

        std::vector<coll::CollExecResult> replays;
        const auto replay_start = std::chrono::steady_clock::now();
        {
            ScopedSpan span(ctx.spans, "sim.replay");
            coll::CollExecConfig cfg;
            if (ctx.program_obs) {
                cfg.metrics = &metrics;
                cfg.trace = trace;
                cfg.trace_label = "fabric";
            }
            for (const coll::Schedule &s : schedules_)
                replays.push_back(coll::executeOnFabric(
                    s, kFabricPayload, *fabric_, cliFabricSpec(),
                    ws_.cycle_seconds, kFlitBytes, cfg));
        }
        out.sim_seconds = secondsSince(replay_start);
        out.wall_s = secondsSince(start);

        // Checks. Campaign cells: message counts match the schedule, no
        // message fails, and on the single-switch wafer design (no
        // shared resource) the flow engine reproduces alpha-beta.
        std::int64_t mismatches = 0;
        for (const coll::CollCellResult &c : result.cells) {
            const std::string where = c.design + "/" + c.collective;
            std::int64_t messages = -1;
            for (const coll::Schedule &s : schedules_)
                if (s.name() == c.collective)
                    messages = static_cast<std::int64_t>(s.messages.size());
            ++out.attempted;
            bool ok = c.flow.failed_messages == 0;
            if (c.flow.messages != messages || c.model.messages != messages) {
                out.check_failures.push_back(
                    where + ": message count differs from the schedule");
                ok = false;
            }
            if (c.design == ws_.name &&
                !(std::abs(c.flow.seconds / c.model.seconds - 1.0) <= 1e-9)) {
                out.check_failures.push_back(
                    where + ": flow time differs from alpha-beta");
                ++mismatches;
                ok = false;
            }
            if (!ok)
                ++out.failed;
            out.flows +=
                static_cast<double>(c.flow.messages - c.flow.failed_messages);

            digest.add(c.design);
            digest.add(c.collective);
            digest.add(static_cast<std::int64_t>(c.ranks));
            digest.add(c.payload_bytes);
            digest.add(c.topology);
            digest.add(static_cast<std::int64_t>(c.switches));
            digest.add(static_cast<std::int64_t>(c.tiers));
            digest.add(static_cast<std::int64_t>(c.hops));
            addResult(digest, c.flow);
            addResult(digest, c.model);
        }

        const auto a2a_messages =
            static_cast<std::int64_t>(schedules_.back().messages.size());
        ++out.attempted;
        if (faulted.failed_messages != 0 || faulted.messages != a2a_messages)
            ++out.failed;
        if (faulted.messages != a2a_messages)
            out.check_failures.push_back(
                "fault all-to-all: message count differs from the schedule");
        out.flows +=
            static_cast<double>(faulted.messages - faulted.failed_messages);
        addResult(digest, faulted);

        for (std::size_t i = 0; i < replays.size(); ++i) {
            const coll::CollExecResult &r = replays[i];
            ++out.attempted;
            if (r.messages !=
                static_cast<std::int64_t>(schedules_[i].messages.size())) {
                out.check_failures.push_back(
                    "fabric " + schedules_[i].name() +
                    ": message count differs from the schedule");
                ++out.failed;
            }
            out.sim_flits += r.bytes_on_wire / kFlitBytes;
            addResult(digest, r);
        }
        digest.add(lowered_flits);
        out.digest = digest.value();

        auto &l = out.layer;
        l["coll.messages"] = out.flows;
        l["coll.us_per_message"] =
            out.flows > 0.0 ? out.flow_seconds / out.flows * 1e6 : 0.0;
        l["coll.model_mismatches"] = static_cast<double>(mismatches);
        l["fault.rerouted"] = static_cast<double>(rerouted_);
        l["obs.trace_events"] = static_cast<double>(sink.size());
        l["sim.flits_delivered"] = out.sim_flits;
        return out;
    }

  private:
    flow::SwitchProfile ws_;
    flow::SwitchProfile conv_;
    std::vector<coll::Schedule> schedules_;
    std::unique_ptr<coll::CollCampaign> campaign_;
    std::optional<flow::DcnTopology> fault_topo_;
    coll::CollFaultSpec fault_;
    std::int64_t rerouted_ = 0;
    std::optional<topology::LogicalTopology> fabric_;
};

} // namespace

std::unique_ptr<Workload>
makeCollWorkload()
{
    return std::make_unique<CollWorkload>();
}

} // namespace perfbench
