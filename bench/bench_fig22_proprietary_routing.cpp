/**
 * @file
 * Fig. 22 — latency versus load with and without proprietary routing
 * (removing the L3 IP-table lookup in non-ingress SSCs).
 *
 * 2-level Clos of radix-256 SSCs, 64 VCs, 128-flit shared buffer per
 * port, uniform traffic. Baseline: 4-cycle route computation at every
 * SSC; proprietary: 2 cycles at the ingress SSC (full lookup once,
 * destination port prepended to the header) and 1 cycle elsewhere.
 * Switch pipeline is 16 cycles total in the baseline, as in the
 * paper.
 *
 * The paper simulates the 8192-port (96-SSC) fabric; the default here
 * is the 2048-port quarter-scale fabric so the bench completes on a
 * laptop core — set WSS_BENCH_PORTS=8192 for the full configuration.
 *
 * The 14 (routing x load) points run as one exec::Campaign on a
 * work-stealing pool (WSS_JOBS threads); per-cell timing lands in
 * WSS_BENCH_CSV / WSS_BENCH_JSON when set.
 */

#include "bench_common.hpp"
#include "exec/campaign.hpp"
#include "topology/clos.hpp"

int
main()
{
    using namespace wss;
    bench::banner("Figure 22",
                  "proprietary routing: latency vs load (uniform)");

    const std::int64_t ports = bench::envInt("WSS_BENCH_PORTS", 2048);
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});
    const bool fast = bench::fastMode();

    auto make_spec = [&](bool proprietary) {
        sim::NetworkSpec spec;
        spec.vcs = 64;
        spec.buffer_per_port = 128;
        spec.rc_delay_ingress = proprietary ? 2 : 4;
        spec.rc_delay_transit = proprietary ? 1 : 4;
        spec.pipeline_delay = 12; // 16-cycle switch incl. baseline RC
        spec.terminal_link_latency = 8;
        spec.internal_link_latency = 1;
        return spec;
    };

    const std::vector<double> rates = {0.1, 0.3, 0.5, 0.6, 0.7,
                                       0.8, 0.9};
    exec::Campaign campaign;
    for (bool proprietary : {false, true}) {
        exec::SweepJob job;
        job.make_network = [&topo, spec = make_spec(proprietary)](
                               std::uint64_t seed) {
            return std::make_unique<sim::Network>(topo, spec, seed);
        };
        job.make_workload = [ports](double rate, std::uint64_t) {
            return std::make_unique<sim::SyntheticWorkload>(
                sim::uniformTraffic(static_cast<int>(ports)), rate, 1);
        };
        job.rates = rates;
        job.cfg.warmup = fast ? 300 : 1000;
        job.cfg.measure = fast ? 1000 : 2500;
        job.cfg.drain_limit = fast ? 3000 : 6000;
        job.cfg.seed = bench::envInt("WSS_BENCH_SEED", 1);
        campaign.addSweep(proprietary ? "proprietary" : "baseline",
                          std::move(job));
    }

    exec::ThreadPool pool(bench::benchJobs());
    const auto result = campaign.run(&pool);
    const sim::SweepResult &base = result.jobs[0].sweep.combined;
    const sim::SweepResult &prop = result.jobs[1].sweep.combined;

    Table table("Average packet latency (cycles of 20 ns)",
                {"offered load", "baseline latency",
                 "proprietary latency", "baseline accepted",
                 "proprietary accepted"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        table.addRow({Table::num(rates[i], 2),
                      Table::num(base.points[i].avg_latency, 1),
                      Table::num(prop.points[i].avg_latency, 1),
                      Table::num(base.points[i].accepted, 3),
                      Table::num(prop.points[i].accepted, 3)});
    }
    table.print(std::cout);
    std::cout << "\nzero-load latency: baseline "
              << Table::num(base.zero_load_latency, 1)
              << " vs proprietary "
              << Table::num(prop.zero_load_latency, 1)
              << " cycles; saturation throughput: baseline "
              << Table::num(base.saturation_throughput, 3)
              << " vs proprietary "
              << Table::num(prop.saturation_throughput, 3) << " ("
              << Table::num(100.0 * (prop.saturation_throughput /
                                         base.saturation_throughput -
                                     1.0),
                            1)
              << "% better)\n";
    std::cout << "Paper: proprietary routing lowers zero-load latency "
                 "and raises saturation throughput by 14.5%/11% for "
                 "the\n200/300 mm switches.\n";
    bench::reportCampaign(result);
    return 0;
}
