/**
 * @file
 * Ablation — oblivious versus credit-adaptive ECMP spine selection.
 *
 * The paper's Booksim runs use oblivious random ECMP over the Clos
 * uplinks; a waferscale switch could cheaply implement adaptive
 * selection because congestion state is on-die. This ablation
 * quantifies what that design choice is worth on an adversarial
 * permutation and on uniform traffic.
 *
 * The six (pattern x routing) sweeps run as one exec::Campaign on a
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
    bench::banner("Ablation", "oblivious vs adaptive ECMP routing");

    // Transpose traffic needs a square terminal count: 256 = 16 x 16.
    const std::int64_t ports = bench::envInt("WSS_BENCH_PORTS", 256);
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});
    const bool fast = bench::fastMode();

    const char *const patterns[] = {"uniform", "transpose", "tornado"};
    exec::Campaign campaign;
    for (const char *pattern : patterns) {
        // Build each pattern once up front, so a pattern that cannot
        // fit the port count fails here, on the main thread.
        sim::makeTraffic(pattern, static_cast<int>(ports));
        for (bool adaptive : {false, true}) {
            sim::NetworkSpec spec;
            spec.vcs = 16;
            spec.buffer_per_port = 32;
            spec.rc_delay_ingress = 2;
            spec.rc_delay_transit = 2;
            spec.pipeline_delay = 9;
            spec.terminal_link_latency = 8;
            spec.internal_link_latency = 1;
            spec.adaptive_routing = adaptive;

            exec::SweepJob job;
            job.make_network = [&topo, spec](std::uint64_t seed) {
                return std::make_unique<sim::Network>(topo, spec, seed);
            };
            job.make_workload = [pattern, ports](double rate,
                                                 std::uint64_t) {
                return std::make_unique<sim::SyntheticWorkload>(
                    sim::makeTraffic(pattern, static_cast<int>(ports)),
                    rate, 1);
            };
            job.rates = {0.05, 0.3, 0.6, 0.8, 0.95};
            job.cfg.warmup = fast ? 300 : 1000;
            job.cfg.measure = fast ? 1000 : 2500;
            job.cfg.drain_limit = fast ? 3000 : 6000;
            job.cfg.seed = bench::envInt("WSS_BENCH_SEED", 1);
            campaign.addSweep(std::string(pattern) +
                                  (adaptive ? "/adaptive" : "/oblivious"),
                              std::move(job));
        }
    }

    exec::ThreadPool pool(bench::benchJobs());
    const auto result = campaign.run(&pool);

    Table table("Saturation throughput and latency at 0.6 load",
                {"pattern", "routing", "zero-load", "lat@0.6",
                 "saturation"});
    std::size_t job = 0;
    for (const char *pattern : patterns) {
        for (bool adaptive : {false, true}) {
            const auto &sweep = result.jobs[job++].sweep.combined;
            table.addRow({pattern, adaptive ? "adaptive" : "oblivious",
                          Table::num(sweep.zero_load_latency, 1),
                          Table::num(sweep.points[2].avg_latency, 1),
                          Table::num(sweep.saturation_throughput, 3)});
        }
    }
    table.print(std::cout);
    std::cout << "\nAdaptive spine selection helps most when the "
                 "permutation concentrates load on a few uplinks; "
                 "uniform\ntraffic is already balanced, so the gain "
                 "there bounds the allocator noise.\n";
    bench::reportCampaign(result);
    return 0;
}
