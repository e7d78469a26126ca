/**
 * @file
 * Example: drive the cycle-accurate fabric simulator directly.
 *
 * Builds a waferscale switch fabric (a folded Clos of SSCs with
 * on-wafer link latencies), runs a latency-versus-load sweep under a
 * chosen synthetic traffic pattern, and prints the curve — the same
 * machinery behind Figs. 21-24, exposed as a small CLI.
 *
 *   $ ./examples/fabric_simulation [pattern] [ports] [packet_flits]
 *   $ ./examples/fabric_simulation tornado 512 4
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "exec/sweep_runner.hpp"
#include "sim/load_sweep.hpp"
#include "topology/clos.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int
main(int argc, char **argv)
{
    using namespace wss;

    const std::string pattern = argc > 1 ? argv[1] : "uniform";
    const std::int64_t ports = argc > 2 ? std::atoll(argv[2]) : 512;
    const int packet = argc > 3 ? std::atoi(argv[3]) : 1;
    if (ports <= 0 || packet <= 0)
        fatal("usage: fabric_simulation [pattern] [ports] "
              "[packet_flits]");

    // A waferscale 2-level Clos of TH-5-like sub-switches.
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});
    std::cout << "fabric: " << topo.nodeCount()
              << " radix-256 sub-switches, " << ports << " ports, "
              << pattern << " traffic, " << packet
              << "-flit packets\n\n";

    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 64;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 2;
    spec.pipeline_delay = 9;        // 11-cycle SSC traversal
    spec.terminal_link_latency = 8; // host I/O
    spec.internal_link_latency = 1; // on-wafer hop

    sim::SimConfig cfg;
    cfg.warmup = 1000;
    cfg.measure = 4000;
    cfg.drain_limit = 20000;

    exec::SweepJob job;
    job.make_network = [&](std::uint64_t) {
        return std::make_unique<sim::Network>(topo, spec, 7);
    };
    job.make_workload = [&](double rate, std::uint64_t) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::makeTraffic(pattern, static_cast<int>(ports)), rate,
            packet);
    };
    job.rates = sim::linearRates(0.9, 9);
    job.cfg = cfg;
    const auto sweep = exec::SweepRunner(std::move(job)).run().combined;

    // One extra instrumented run at moderate load: measured link
    // utilization (the runtime counterpart of Fig. 8's provisioned
    // channel loads).
    sim::Network net(topo, spec, 7);
    sim::SyntheticWorkload workload(
        sim::makeTraffic(pattern, static_cast<int>(ports)), 0.5,
        packet);
    sim::Simulator sim(net, workload, cfg);
    sim.run();
    const auto util =
        net.linkUtilization(cfg.warmup + cfg.measure);
    double hottest = 0.0, total = 0.0;
    for (double u : util) {
        hottest = std::max(hottest, u);
        total += u;
    }

    Table table("Latency vs load (cycles of 20 ns)",
                {"offered", "accepted", "avg latency", "p99 latency",
                 "stable"});
    for (const auto &point : sweep.points) {
        table.addRow({Table::num(point.offered, 2),
                      Table::num(point.accepted, 3),
                      Table::num(point.avg_latency, 1),
                      Table::num(point.p99_latency, 1),
                      point.stable ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\nzero-load latency: "
              << Table::num(sweep.zero_load_latency, 1)
              << " cycles; saturation throughput: "
              << Table::num(sweep.saturation_throughput, 3)
              << " flits/terminal/cycle\n";
    std::cout << "link utilization at 0.5 load: hottest "
              << Table::num(100.0 * hottest, 1) << "%, mean "
              << Table::num(100.0 * total / util.size(), 1)
              << "% across " << util.size() << " bundles\n";
    return 0;
}
