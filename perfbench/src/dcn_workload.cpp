/**
 * @file
 * dcn: one flow::DcnCampaign comparing the solver-sized waferscale
 * switch with the conv-64 leaf-spine at 256 hosts. Flow arrivals are
 * a Poisson open loop in simulated time. The max-min waterfill and
 * the event loop of flow::simulateFlows do most of the work. The
 * cells vary the two properties that engine depends on: how many
 * flows share a resource (NIC-only on the single-switch wafer,
 * shared trunks on the two-tier baseline) and how many flows are in
 * flight at once (large web-search flows vs hadoop mice, at loads
 * 0.3 and 0.7). The cycle-accurate simulator runs only in set-up,
 * through calibration.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "digest.hpp"
#include "flow/dcn_campaign.hpp"
#include "util/seed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wss;

constexpr std::int64_t kHosts = 256;
constexpr std::int64_t kFlowsPerCell = 3000;

class DcnWorkload : public Workload
{
  public:
    void
    setup(const Context &ctx) override
    {
        const Designs designs = solveAndCalibrate(ctx);
        flow::DcnCampaignConfig cfg;
        cfg.designs = {designs.ws, designs.conv};
        cfg.kind = flow::DcnKind::FatTree;
        cfg.hosts = kHosts;
        // DcnCampaign sweeps every load for every workload, so the
        // grid holds websearch@0.7 and hadoop@0.3 plus the two crossed
        // cells.
        cfg.workloads = {flow::workloadByName("websearch"),
                         flow::workloadByName("hadoop")};
        cfg.loads = {0.3, 0.7};
        cfg.flows_per_cell = kFlowsPerCell;
        cfg.seed = ctx.seed;

        // Build each cell's fabric and flow list the way the campaign
        // does (same per-cell seeds), so their cost is measured as
        // set-up and every cell's flow count can be checked.
        expected_flows_.clear();
        for (std::size_t di = 0; di < cfg.designs.size(); ++di)
            for (std::size_t wi = 0; wi < cfg.workloads.size(); ++wi)
                for (std::size_t li = 0; li < cfg.loads.size(); ++li) {
                    const flow::SwitchProfile &p = cfg.designs[di];
                    const std::size_t slot =
                        (di * cfg.workloads.size() + wi) * cfg.loads.size() +
                        li;
                    std::int64_t hosts = 0;
                    {
                        ScopedSpan span(ctx.spans, "flow.build");
                        hosts = flow::DcnTopology::buildFatTree(
                                    cfg.hosts, static_cast<int>(p.radix),
                                    p.line_rate_gbps)
                                    .hostCount();
                    }
                    flow::DcnWorkloadSpec w = cfg.workloads[wi];
                    w.load = cfg.loads[li];
                    w.flow_count = cfg.flows_per_cell;
                    ScopedSpan span(ctx.spans, "flow.generate");
                    expected_flows_.push_back(static_cast<std::int64_t>(
                        flow::generateFlows(w, hosts, p.line_rate_gbps,
                                            deriveSeed(cfg.seed, slot + 1))
                            .size()));
                }
        ws_name_ = designs.ws.name;
        campaign_ = std::make_unique<flow::DcnCampaign>(std::move(cfg));
    }

    IterationResult
    iterate(const Context &ctx) override
    {
        IterationResult out;
        flow::DcnResult result;
        {
            ScopedSpan span(ctx.spans, "flow.simulate");
            const auto start = std::chrono::steady_clock::now();
            result = campaign_->run(ctx.pool);
            out.wall_s = secondsSince(start);
        }

        Digest digest;
        std::map<std::string, std::pair<double, double>> per_flow;
        double max_cell = 0.0, failed_flows = 0.0;
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
            const flow::DcnCellResult &c = result.cells[i];
            const flow::FlowSimResult &s = c.sim;
            const std::string where =
                c.design + "/" + c.workload + "/" + std::to_string(c.load);
            ++out.attempted;
            bool ok = s.failed == 0;
            if (s.started != s.completed + s.failed) {
                out.check_failures.push_back(
                    where + ": started != completed + failed");
                ok = false;
            }
            if (s.started != expected_flows_[i]) {
                out.check_failures.push_back(
                    where + ": started differs from the generated flows");
                ok = false;
            }
            for (double slowdown : {s.slowdown_avg, s.slowdown_p50,
                                    s.slowdown_p99, s.slowdown_p999})
                if (!(slowdown >= 1.0)) {
                    out.check_failures.push_back(where +
                                                 ": slowdown below 1");
                    ok = false;
                    break;
                }
            if (!ok)
                ++out.failed;

            out.flows += static_cast<double>(s.completed);
            out.flow_seconds += c.seconds;
            failed_flows += static_cast<double>(s.failed);
            max_cell = std::max(max_cell, c.seconds);
            const std::string design = c.design == ws_name_ ? "ws" : "conv";
            for (const std::string &key : {design, c.workload}) {
                per_flow[key].first += c.seconds;
                per_flow[key].second += static_cast<double>(s.started);
            }

            digest.add(c.design);
            digest.add(c.topology);
            digest.add(c.workload);
            digest.add(c.load);
            digest.add(c.hosts);
            digest.add(static_cast<std::int64_t>(c.switches));
            digest.add(static_cast<std::int64_t>(c.tiers));
            digest.add(c.cables);
            digest.add(static_cast<std::int64_t>(c.worst_hops));
            digest.add(c.power_kw);
            for (std::int64_t v : {s.started, s.completed, s.failed,
                                   s.rerouted, s.fault_events})
                digest.add(v);
            for (double v :
                 {s.duration_s, s.completed_bytes, s.throughput_gbps,
                  s.fct_avg_s, s.fct_max_s, s.fct_p50_s, s.fct_p99_s,
                  s.fct_p999_s, s.slowdown_avg, s.slowdown_p50,
                  s.slowdown_p99, s.slowdown_p999, s.avg_hops})
                digest.add(v);
        }
        out.digest = digest.value();

        const double workers = ctx.pool ? ctx.pool->size() : 1;
        auto &l = out.layer;
        l["flow.flows"] = out.flows + failed_flows;
        l["flow.failed_flows"] = failed_flows;
        for (const auto &[key, sf] : per_flow)
            l["flow." + key + ".us_per_flow"] =
                sf.second > 0.0 ? sf.first / sf.second * 1e6 : 0.0;
        l["exec.busy_s"] = out.flow_seconds;
        l["exec.utilization"] =
            out.wall_s > 0.0 ? out.flow_seconds / (out.wall_s * workers)
                             : 0.0;
        l["exec.max_cell_s"] = max_cell;
        return out;
    }

  private:
    std::unique_ptr<flow::DcnCampaign> campaign_;
    std::vector<std::int64_t> expected_flows_;
    std::string ws_name_;
};

} // namespace

std::unique_ptr<Workload>
makeDcnWorkload()
{
    return std::make_unique<DcnWorkload>();
}

} // namespace perfbench
