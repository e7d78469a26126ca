/**
 * @file
 * fabric: exec::SweepRunner load sweeps on the cycle-accurate
 * simulator. Offered load is an open loop in simulated time
 * (Bernoulli injection at the swept rate, whatever the fabric
 * accepts). The sim hot loop and exec scheduling do nearly all the
 * work; flow, coll and obs are bypassed (obs only on its disabled
 * path). The 4x4 mesh at load 0.20 carries the simulator's known
 * routing deadlock and stays in so that it counts as a failure.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "digest.hpp"
#include "exec/sweep_runner.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "stall_watch.hpp"
#include "topology/clos.hpp"
#include "topology/mesh.hpp"
#include "util/seed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wss;

struct SweepSpec
{
    /// Per-layer group: "clos", "clos_large" or "mesh".
    std::string group;
    topology::LogicalTopology topo;
    sim::NetworkSpec spec;
    bool transpose = false;
    int packet_flits = 4;
    std::vector<double> rates;
};

class FabricWorkload : public Workload
{
  public:
    void
    setup(const Context &ctx) override
    {
        ScopedSpan span(ctx.spans, "sim.build");
        // The solver's chiplet (TH-5, radix 256): a 256-port Clos is
        // 16x16 terminals, so transpose traffic is defined on it. The
        // 1024-port Clos holds 4x its router and flit-arena state,
        // several times a core's L2; it runs below saturation only,
        // where a point costs least.
        const power::SscConfig th5 = power::tomahawk5(1);
        const std::vector<double> clos_rates = {0.1, 0.3, 0.5, 0.7, 0.9};
        sim::NetworkSpec adaptive = cliFabricSpec();
        adaptive.adaptive_routing = true;
        const auto clos = topology::buildFoldedClos({256, th5, 1});
        sweeps_.push_back(
            {"clos", clos, cliFabricSpec(), false, 4, clos_rates});
        sweeps_.push_back({"clos", clos, adaptive, true, 4, clos_rates});
        sweeps_.push_back({"clos_large",
                           topology::buildFoldedClos({1024, th5, 1}),
                           cliFabricSpec(), false, 4, {0.1, 0.4}});
        sweeps_.push_back(
            {"mesh", topology::buildMesh(4, 4, power::scaledSsc(16, 200.0)),
             meshFabricSpec(), false, 1, {0.10, 0.20}});
        // Build each fabric once so construction cost lands here and
        // a fabric that cannot be built fails before any timing.
        for (const SweepSpec &s : sweeps_) {
            const sim::Network probe(s.topo, s.spec, ctx.seed);
            (void)probe;
        }
    }

    IterationResult
    iterate(const Context &ctx) override
    {
        IterationResult out;
        Digest digest;
        double sweep_wall = 0.0;
        double low_cycles = 0.0, low_s = 0.0;
        double sat_flits = 0.0, sat_s = 0.0;
        std::map<std::string, std::pair<double, double>> group_rate;
        double max_cell = 0.0, cycles = 0.0;
        int stalled = 0;

        for (std::size_t si = 0; si < sweeps_.size(); ++si) {
            const SweepSpec &s = sweeps_[si];
            StallWatch watch(StallWatch::windowFor(s.spec));
            exec::SweepJob job;
            job.make_network = [&s](std::uint64_t seed) {
                return std::make_unique<sim::Network>(s.topo, s.spec, seed);
            };
            job.make_workload = [&s](double rate, std::uint64_t) {
                const auto it =
                    std::find(s.rates.begin(), s.rates.end(), rate);
                StallWatch::setCurrentPoint(
                    static_cast<int>(it - s.rates.begin()));
                const int terminals =
                    static_cast<int>(s.topo.totalExternalPorts());
                return std::make_unique<sim::SyntheticWorkload>(
                    s.transpose ? sim::transposeTraffic(terminals)
                                : sim::uniformTraffic(terminals),
                    rate, s.packet_flits);
            };
            job.rates = s.rates;
            job.cfg.warmup = 300;
            job.cfg.measure = 1000;
            job.cfg.drain_limit = 2000;
            job.cfg.seed = deriveSeed(ctx.seed, si + 1);
            job.cfg.on_cycle = watch.hook();

            exec::SweepRunOutput run;
            {
                ScopedSpan span(ctx.spans, "sim.run");
                run = exec::SweepRunner(std::move(job)).run(ctx.pool);
            }
            sweep_wall += run.wall_seconds;

            for (const exec::PointOutcome &o : run.outcomes) {
                const sim::SimResult &r = o.result;
                const bool stall = watch.stalledAt(o.rate_index) >= 0;
                const double flits = static_cast<double>(r.flits_delivered);
                const double run_cycles = static_cast<double>(r.end_cycle + 1);
                const double rate = s.rates[static_cast<std::size_t>(
                    o.rate_index)];
                ++out.attempted;
                if (stall) {
                    ++out.failed;
                    ++stalled;
                }
                out.sim_flits += flits;
                out.sim_seconds += o.seconds;
                cycles += run_cycles;
                max_cell = std::max(max_cell, o.seconds);
                if (rate <= 0.2) {
                    low_cycles += run_cycles;
                    low_s += o.seconds;
                }
                // Past saturation: the fabric accepts clearly less than
                // is offered (the short measure window still drains).
                if (!stall && r.accepted < 0.95 * r.offered) {
                    sat_flits += flits;
                    sat_s += o.seconds;
                }
                group_rate[s.group].first += flits;
                group_rate[s.group].second += o.seconds;

                const std::string where = s.group + " sweep " +
                                          std::to_string(si) + " load " +
                                          std::to_string(rate);
                if (r.flits_delivered > r.flits_injected)
                    out.check_failures.push_back(
                        where + ": more flits delivered than injected");
                if (r.packets_finished > r.packets_measured ||
                    (r.stable && r.packets_finished != r.packets_measured))
                    out.check_failures.push_back(
                        where + ": measured packets unaccounted for");

                digest.add(r.avg_packet_latency);
                digest.add(r.p99_packet_latency);
                digest.add(r.avg_network_latency);
                digest.add(r.avg_hops);
                digest.add(r.offered);
                digest.add(r.accepted);
                digest.add(r.packets_measured);
                digest.add(r.packets_finished);
                digest.add(r.stable);
                digest.add(static_cast<std::int64_t>(r.end_cycle));
                digest.add(r.flits_delivered);
                digest.add(r.flits_injected);
                digest.add(stall);
            }
        }

        out.wall_s = sweep_wall;
        out.digest = digest.value();
        const double workers = ctx.pool ? ctx.pool->size() : 1;
        auto &l = out.layer;
        l["sim.cycles"] = cycles;
        l["sim.flits_delivered"] = out.sim_flits;
        l["sim.stalled_points"] = stalled;
        l["sim.low_load.kcycles_per_s"] =
            low_s > 0.0 ? low_cycles / low_s / 1e3 : 0.0;
        l["sim.saturated.mflits_per_s"] =
            sat_s > 0.0 ? sat_flits / sat_s / 1e6 : 0.0;
        for (const auto &[group, fs] : group_rate)
            l["sim." + group + ".mflits_per_s"] =
                fs.second > 0.0 ? fs.first / fs.second / 1e6 : 0.0;
        l["exec.busy_s"] = out.sim_seconds;
        l["exec.utilization"] =
            sweep_wall > 0.0 ? out.sim_seconds / (sweep_wall * workers)
                             : 0.0;
        l["exec.max_cell_s"] = max_cell;
        return out;
    }

  private:
    std::vector<SweepSpec> sweeps_;
};

} // namespace

std::unique_ptr<Workload>
makeFabricWorkload()
{
    return std::make_unique<FabricWorkload>();
}

} // namespace perfbench
