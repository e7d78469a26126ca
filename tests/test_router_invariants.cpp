/**
 * @file
 * Flow-control invariants of the VC router, exercised through small
 * networks under stress: packet integrity (no loss, no duplication,
 * in-order flits), buffer-credit safety across parameter sweeps, and
 * allocation fairness.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "power/ssc.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"
#include "topology/mesh.hpp"

namespace wss::sim {
namespace {

topology::LogicalTopology
smallClos()
{
    return topology::buildFoldedClos(
        {16, power::scaledSsc(8, 200.0), 1});
}

/// Drive a network raw (no Simulator) and record every ejected flit.
struct RawHarness
{
    Network net;
    std::vector<Flit> ejected;
    std::uint32_t next_packet = 0;

    RawHarness(const topology::LogicalTopology &topo,
               const NetworkSpec &spec, std::uint64_t seed)
        : net(topo, spec, seed)
    {}

    void
    sendPacket(int src, int dst, int flits, int vc)
    {
        for (int i = 0; i < flits; ++i) {
            Flit flit;
            flit.packet = next_packet;
            flit.dst = dst;
            flit.head = i == 0;
            flit.tail = i == flits - 1;
            flit.vc = static_cast<std::int16_t>(vc);
            pending.push_back({src, flit});
        }
        ++next_packet;
    }

    void
    tick(Cycle now)
    {
        if (!pending.empty() &&
            net.tryInject(pending.front().first, now,
                          pending.front().second))
            pending.erase(pending.begin());
        for (int t = 0; t < net.terminalCount(); ++t)
            if (auto flit = net.eject(t, now))
                ejected.push_back(*flit);
        net.step(now);
    }

    /// (source terminal, flit) in injection order.
    std::vector<std::pair<int, Flit>> pending;
};

TEST(RouterInvariants, MultiFlitPacketArrivesInOrderAndComplete)
{
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 4; // tight: forces credit stalls
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    RawHarness harness(topo, spec, 1);
    harness.sendPacket(0, 12, 6, 0);
    for (Cycle now = 0; now < 300; ++now)
        harness.tick(now);
    ASSERT_EQ(harness.ejected.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(harness.ejected[i].head, i == 0);
        EXPECT_EQ(harness.ejected[i].tail, i == 5);
        EXPECT_EQ(harness.ejected[i].dst, 12);
    }
    EXPECT_EQ(harness.net.flitsInFlight(), 0);
}

TEST(RouterInvariants, PacketsOnTheSameVcDoNotInterleave)
{
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 1; // force both packets through one VC
    spec.buffer_per_port = 6;
    spec.pipeline_delay = 1;
    spec.terminal_link_latency = 1;
    RawHarness harness(topo, spec, 2);
    harness.sendPacket(0, 12, 3, 0);
    harness.sendPacket(0, 12, 3, 0);
    for (Cycle now = 0; now < 300; ++now)
        harness.tick(now);
    ASSERT_EQ(harness.ejected.size(), 6u);
    // First three flits belong to packet 0, then packet 1.
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(harness.ejected[i].packet, i / 3);
}

class StressSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(StressSweep, NoLossNoDuplicationUnderSaturation)
{
    const auto [vcs, buffer, packet_size] = GetParam();
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = vcs;
    spec.buffer_per_port = buffer;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 2;

    Network net(topo, spec, 7);
    SyntheticWorkload workload(uniformTraffic(16), 0.9, packet_size);
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 1200;
    cfg.drain_limit = 60000;
    cfg.seed = 11;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    // Saturated or not, every measured packet must eventually arrive
    // exactly once (the drain cap is generous) and the fabric must
    // end empty. Any duplication would overshoot; any loss would
    // undershoot or leave flits in flight.
    EXPECT_EQ(result.packets_finished, result.packets_measured);
    EXPECT_EQ(net.flitsInFlight(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Parameters, StressSweep,
    ::testing::Values(std::tuple{1, 2, 1}, std::tuple{1, 8, 3},
                      std::tuple{2, 4, 2}, std::tuple{4, 4, 1},
                      std::tuple{4, 16, 5}, std::tuple{8, 32, 4},
                      std::tuple{16, 64, 8}));

TEST(RouterInvariants, HopCountsMatchTopologyDistance)
{
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 8;
    RawHarness harness(topo, spec, 3);
    // Terminal 0 and 1 share a leaf; 0 and 12 are on different leaves.
    harness.sendPacket(0, 1, 1, 0);
    harness.sendPacket(1, 12, 1, 1);
    for (Cycle now = 0; now < 200; ++now)
        harness.tick(now);
    ASSERT_EQ(harness.ejected.size(), 2u);
    std::map<int, int> hops;
    for (const auto &flit : harness.ejected)
        hops[flit.dst] = flit.hops;
    EXPECT_EQ(hops[1], 1);  // same leaf
    EXPECT_EQ(hops[12], 3); // leaf - spine - leaf
}

TEST(RouterInvariants, SharedBufferIsNeverExceeded)
{
    // portOccupancy is asserted against buffer_per_port inside the
    // router (panic on violation); a saturated run doubles as the
    // stress test. Tornado at rate 1.0 through 1 spine.
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 3;
    Network net(topo, spec, 13);
    SyntheticWorkload workload(tornadoTraffic(16), 1.0, 2);
    SimConfig cfg;
    cfg.warmup = 100;
    cfg.measure = 800;
    cfg.drain_limit = 40000;
    Simulator sim(net, workload, cfg);
    EXPECT_NO_FATAL_FAILURE(sim.run());
}

TEST(RouterInvariants, FlitsAreConservedAcrossTheRun)
{
    // The simulator panics if injected != delivered + in-flight at
    // run end; here we additionally check the reported numbers. Run
    // near saturation so the drain cap bites and flits legitimately
    // remain in flight at the end.
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 4;
    Network net(topo, spec, 23);
    SyntheticWorkload workload(uniformTraffic(16), 0.95, 4);
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 1000;
    cfg.drain_limit = 2000; // tight: may stop with flits in flight
    cfg.seed = 29;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    EXPECT_GT(result.flits_injected, 0);
    EXPECT_EQ(result.flits_injected,
              result.flits_delivered + net.flitsInFlight());
}

TEST(RouterInvariants, ObservedCountersReconcileWithDeliveredFlits)
{
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 8;
    Network net(topo, spec, 31);
    SyntheticWorkload workload(uniformTraffic(16), 0.5, 2);
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 1000;
    cfg.observe = true;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    ASSERT_NE(result.observation, nullptr);
    EXPECT_EQ(result.observation->totalCounter("flits_delivered"),
              static_cast<std::uint64_t>(result.flits_delivered));
    // Routed >= delivered: every delivered flit crossed >= 1 crossbar.
    EXPECT_GE(result.observation->totalCounter("flits_routed"),
              result.observation->totalCounter("flits_delivered"));
}

TEST(RouterInvariants, ParallelLinksShareLoadFairly)
{
    // 16-port Clos: each leaf has 4 uplinks split over 2 spines
    // (bundles of 2). Under sustained uniform load both spines must
    // carry comparable traffic — check via ejection balance of
    // flits that crossed 3 hops.
    const auto topo = smallClos();
    NetworkSpec spec;
    spec.vcs = 4;
    spec.buffer_per_port = 16;
    Network net(topo, spec, 17);
    SyntheticWorkload workload(uniformTraffic(16), 0.5, 1);
    SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 3000;
    cfg.seed = 19;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    EXPECT_TRUE(result.stable);
    // Cross-leaf average hops must sit near the topology's 3 (same
    // leaf = 1); with 16 terminals over 4 leaves, ~1/5 of pairs are
    // local: expected ~2.6.
    EXPECT_NEAR(result.avg_hops, 2.6, 0.2);
}

} // namespace
} // namespace wss::sim
