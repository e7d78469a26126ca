/**
 * @file
 * Tests for the cycle-accurate fabric simulator: channel semantics,
 * router flow control, network routing, end-to-end latency and
 * conservation properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "power/ssc.hpp"
#include "sim/channel.hpp"
#include "sim/load_sweep.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"

namespace wss::sim {
namespace {

TEST(DelayLine, DeliversAfterExactLatency)
{
    DelayLine<int> line(3);
    line.push(10, 42);
    EXPECT_FALSE(line.pop(11).has_value());
    EXPECT_FALSE(line.pop(12).has_value());
    const auto v = line.pop(13);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
    EXPECT_TRUE(line.empty());
}

TEST(DelayLine, IsFullyPipelined)
{
    DelayLine<int> line(2);
    line.push(0, 1);
    line.push(1, 2);
    line.push(2, 3);
    EXPECT_EQ(line.inFlight(), 3u);
    EXPECT_EQ(*line.pop(2), 1);
    EXPECT_EQ(*line.pop(3), 2);
    EXPECT_EQ(*line.pop(4), 3);
}

TEST(DelayLine, RejectsDoublePushPerCycle)
{
    DelayLine<int> line(1);
    line.push(5, 1);
    EXPECT_DEATH(line.push(5, 2), "two pushes");
}

TEST(DelayLine, StrictConsumerNeverOverflowsTheRing)
{
    // A push every cycle, each item popped on its delivery cycle:
    // after cycle t's push the items of cycles t-L .. t are live,
    // latency + 1 of them, the most a strict consumer ever sees.
    const int latency = 4;
    DelayLine<int> line(latency);
    std::size_t peak = 0;
    for (int now = 0; now < 1000; ++now) {
        line.push(now, now);
        peak = std::max(peak, line.inFlight());
        const auto item = line.pop(now);
        ASSERT_EQ(item.has_value(), now >= latency);
        if (item) {
            EXPECT_EQ(*item, now - latency);
        }
    }
    EXPECT_EQ(peak, static_cast<std::size_t>(latency + 1));
}

TEST(DelayLine, RejectsPushPastCapacity)
{
    // The ring holds latency + 2 items; a consumer that stops popping
    // lets the next push past that die loudly instead of growing.
    const int latency = 3;
    DelayLine<int> line(latency);
    for (int now = 0; now < latency + 2; ++now)
        line.push(now, now);
    EXPECT_EQ(line.inFlight(), static_cast<std::size_t>(latency + 2));
    EXPECT_DEATH(line.push(latency + 2, 0), "ring overflow");
}

TEST(DelayLine, RejectsSkippedDeliveryCycle)
{
    DelayLine<int> line(2);
    line.push(0, 7);
    EXPECT_FALSE(line.pop(1).has_value());
    EXPECT_DEATH(line.pop(3), "missed its delivery cycle");
    EXPECT_DEATH(line.peek(3), "missed its delivery cycle");
}

/// A tiny fabric: 8 ports over 2 leaves + 1 spine of radix-8 SSCs.
topology::LogicalTopology
tinyClos()
{
    return topology::buildFoldedClos(
        {8, power::scaledSsc(8, 200.0), 1});
}

NetworkSpec
tinySpec()
{
    NetworkSpec spec;
    spec.vcs = 2;
    spec.buffer_per_port = 8;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 2;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    spec.internal_link_latency = 1;
    return spec;
}

/// Emits exactly one packet, at a fixed cycle.
class ScriptedPacket : public Workload
{
  public:
    ScriptedPacket(Cycle at, int src, int dst, int flits)
        : at_(at), src_(src), dst_(dst), flits_(flits)
    {}

    void
    generate(Cycle now, Rng &, const EmitPacket &emit) override
    {
        if (now == at_)
            emit(src_, dst_, flits_);
    }
    double offeredLoad() const override { return 0.0; }
    std::string name() const override { return "scripted"; }

  private:
    Cycle at_;
    int src_, dst_, flits_;
};

TEST(SimulatorLatency, OnePacketOnAnIdleClosMatchesHandComputedValues)
{
    // A 4-flit packet 0 -> 5 created at cycle 10 on an idle fabric.
    // Its flits inject one per cycle, 10..13. The head takes the
    // 20-cycle zero-load path of SingleFlitCrossesWithExactZeroLoad-
    // Latency (ejected at 30); each body flit trails by one cycle,
    // so the tail is ejected at 33.
    //   packet latency  = creation to tail ejection    = 33 - 10 = 23
    //   network latency = tail injection to tail eject = 33 - 13 = 20
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 1);
    ScriptedPacket workload(10, 0, 5, 4);
    SimConfig cfg;
    cfg.warmup = 10;
    cfg.measure = 100;
    cfg.drain_limit = 1000;
    Simulator sim(net, workload, cfg);
    const SimResult r = sim.run();
    ASSERT_TRUE(r.stable);
    EXPECT_EQ(r.packets_measured, 1);
    EXPECT_EQ(r.packets_finished, 1);
    EXPECT_EQ(r.flits_delivered, 4);
    EXPECT_EQ(r.avg_packet_latency, 23.0);
    EXPECT_EQ(r.p99_packet_latency, 23.0);
    EXPECT_EQ(r.avg_network_latency, 20.0);
    EXPECT_EQ(r.avg_hops, 3.0);
}

TEST(Network, BuildsTheExpectedShape)
{
    const auto topo = tinyClos();
    const Network net(topo, tinySpec(), 1);
    EXPECT_EQ(net.terminalCount(), 8);
    EXPECT_EQ(net.routerCount(), 3);
    // Terminals 0-3 on leaf 0, 4-7 on leaf 1.
    EXPECT_EQ(net.routerOfTerminal(0), net.routerOfTerminal(3));
    EXPECT_NE(net.routerOfTerminal(0), net.routerOfTerminal(4));
}

TEST(Network, SingleFlitCrossesWithExactZeroLoadLatency)
{
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 1);

    Flit flit;
    flit.packet = 1;
    flit.dst = 5; // other leaf: leaf-spine-leaf
    flit.head = flit.tail = true;
    flit.vc = 0;
    ASSERT_TRUE(net.tryInject(0, 0, flit));

    Cycle arrival = -1;
    for (Cycle now = 0; now < 100 && arrival < 0; ++now) {
        for (int t = 0; t < net.terminalCount(); ++t) {
            if (auto got = net.eject(t, now)) {
                EXPECT_EQ(t, 5);
                EXPECT_EQ(got->hops, 3);
                arrival = now;
            }
        }
        net.step(now);
    }
    // terminal link 3 + 3 routers x (rc 2 + pipe 2) + 2 internal hops
    // + terminal link 3 = 20.
    EXPECT_EQ(arrival, 20);
}

TEST(Network, SameLeafTrafficSkipsTheSpine)
{
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 1);
    Flit flit;
    flit.dst = 1; // same leaf
    flit.head = flit.tail = true;
    flit.vc = 0;
    ASSERT_TRUE(net.tryInject(0, 0, flit));
    Cycle arrival = -1;
    int hops = 0;
    for (Cycle now = 0; now < 50 && arrival < 0; ++now) {
        for (int t = 0; t < net.terminalCount(); ++t) {
            if (auto got = net.eject(t, now)) {
                arrival = now;
                hops = got->hops;
            }
        }
        net.step(now);
    }
    EXPECT_EQ(hops, 1);
    EXPECT_EQ(arrival, 3 + 4 + 3); // link + one router + link
}

TEST(Network, InjectionRespectsCredits)
{
    const auto topo = tinyClos();
    NetworkSpec spec = tinySpec();
    spec.buffer_per_port = 2;
    Network net(topo, spec, 1);
    // Without stepping the network no credits return, so only
    // buffer_per_port flits fit (one injection attempt per cycle).
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        Flit flit;
        flit.dst = 4;
        flit.head = flit.tail = true;
        flit.vc = 0;
        if (net.tryInject(0, i, flit))
            ++accepted;
        net.eject(0, i); // keep the credit line drained
    }
    EXPECT_EQ(accepted, 2);
}

TEST(Simulator, ConservesPacketsAtModerateLoad)
{
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 2);
    SyntheticWorkload workload(uniformTraffic(8), 0.3, 2);
    SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 3000;
    cfg.drain_limit = 20000;
    cfg.seed = 3;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    EXPECT_TRUE(result.stable);
    EXPECT_EQ(result.packets_finished, result.packets_measured);
    EXPECT_GT(result.packets_measured, 500);
    EXPECT_NEAR(result.accepted, 0.3, 0.05);
    EXPECT_EQ(net.flitsInFlight(), 0);
}

TEST(Simulator, LatencyRisesWithLoad)
{
    const auto topo = tinyClos();
    const NetworkSpec spec = tinySpec();
    SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 2500;
    cfg.seed = 5;
    const auto sweep = sweepLoad(
        [&] { return std::make_unique<Network>(topo, spec, 9); },
        [&](double rate) {
            return std::make_unique<SyntheticWorkload>(
                uniformTraffic(8), rate, 1);
        },
        {0.05, 0.4, 0.95}, cfg);
    ASSERT_EQ(sweep.points.size(), 3u);
    EXPECT_LT(sweep.points[0].avg_latency, sweep.points[1].avg_latency);
    EXPECT_LT(sweep.points[1].avg_latency, sweep.points[2].avg_latency);
    EXPECT_GT(sweep.saturation_throughput, 0.3);
}

TEST(Simulator, MultiFlitPacketsArriveIntact)
{
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 4);
    SyntheticWorkload workload(uniformTraffic(8), 0.4, 4);
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 2000;
    cfg.seed = 7;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    EXPECT_TRUE(result.stable);
    // Accepted counts flits; at rate 0.4 flits/cycle it should match.
    EXPECT_NEAR(result.accepted, 0.4, 0.06);
}

TEST(Simulator, ProprietaryRoutingCutsLatency)
{
    // Fig. 22's mechanism in miniature: shrinking the transit RC
    // delay lowers zero-load latency.
    const auto topo = tinyClos();
    NetworkSpec base = tinySpec();
    base.rc_delay_ingress = 4;
    base.rc_delay_transit = 4;
    NetworkSpec prop = base;
    prop.rc_delay_ingress = 2;
    prop.rc_delay_transit = 1;

    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.seed = 11;
    auto run = [&](const NetworkSpec &spec) {
        Network net(topo, spec, 13);
        SyntheticWorkload workload(uniformTraffic(8), 0.05, 1);
        Simulator sim(net, workload, cfg);
        return sim.run().avg_packet_latency;
    };
    const double baseline = run(base);
    const double proprietary = run(prop);
    // Three routers: ingress saves 2, transit saves 3 each: ~8 cycles
    // at cross-leaf distance, less for same-leaf pairs.
    EXPECT_GT(baseline - proprietary, 4.0);
}

TEST(Simulator, SaturatedRunIsFlaggedUnstable)
{
    // Tornado traffic at full rate through one spine saturates; the
    // drain cap should trip and flag the run.
    const auto topo = tinyClos();
    NetworkSpec spec = tinySpec();
    Network net(topo, spec, 17);
    SyntheticWorkload workload(tornadoTraffic(8), 1.0, 1);
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 2000;
    cfg.drain_limit = 300; // deliberately short
    cfg.seed = 19;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    EXPECT_FALSE(result.stable);
    EXPECT_LT(result.packets_finished, result.packets_measured);
}


TEST(Network, LinkUtilizationTracksTraffic)
{
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 21);
    SyntheticWorkload workload(uniformTraffic(8), 0.4, 1);
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 2000;
    cfg.seed = 23;
    Simulator sim(net, workload, cfg);
    const SimResult result = sim.run();
    ASSERT_TRUE(result.stable);

    const auto util = net.linkUtilization(2500);
    ASSERT_EQ(util.size(), topo.links().size());
    double total = 0.0;
    for (double u : util) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
        total += u;
    }
    // At 0.4 offered with ~3/4 of pairs crossing the spine, the
    // uplinks must carry real traffic.
    EXPECT_GT(total, 0.1);
}

TEST(Network, IdleFabricHasZeroUtilization)
{
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 25);
    for (Cycle now = 0; now < 100; ++now) {
        for (int t = 0; t < net.terminalCount(); ++t)
            net.eject(t, now);
        net.step(now);
    }
    for (double u : net.linkUtilization(100))
        EXPECT_DOUBLE_EQ(u, 0.0);
}

TEST(Traffic, PatternsStayInRange)
{
    Rng rng(23);
    for (const char *name :
         {"uniform", "bitcomp", "bitrev", "shuffle", "tornado",
          "asymmetric"}) {
        const auto pattern = makeTraffic(name, 64);
        for (int src = 0; src < 64; ++src) {
            for (int i = 0; i < 8; ++i) {
                const int dst = pattern->destination(src, rng);
                EXPECT_GE(dst, 0) << name;
                EXPECT_LT(dst, 64) << name;
            }
        }
    }
}

TEST(Traffic, UniformNeverSendsToSelf)
{
    Rng rng(29);
    const auto pattern = uniformTraffic(16);
    for (int src = 0; src < 16; ++src)
        for (int i = 0; i < 100; ++i)
            EXPECT_NE(pattern->destination(src, rng), src);
}

TEST(Traffic, TransposeAndBitCompAreInvolutions)
{
    Rng rng(31);
    const auto transpose = transposeTraffic(64);
    const auto bitcomp = bitComplementTraffic(64);
    for (int src = 0; src < 64; ++src) {
        const int t = transpose->destination(src, rng);
        EXPECT_EQ(transpose->destination(t, rng), src);
        const int b = bitcomp->destination(src, rng);
        EXPECT_EQ(bitcomp->destination(b, rng), src);
    }
}

TEST(Traffic, ShuffleRotatesBits)
{
    Rng rng(37);
    const auto shuffle = shuffleTraffic(8);
    EXPECT_EQ(shuffle->destination(0b001, rng), 0b010);
    EXPECT_EQ(shuffle->destination(0b100, rng), 0b001);
}

TEST(Traffic, AsymmetricConcentratesOnHotSet)
{
    Rng rng(41);
    const auto pattern = asymmetricTraffic(64, 4, 0.5);
    int hot = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        hot += pattern->destination(32, rng) < 4;
    // 50% hotspot plus the uniform share of the first 4 terminals.
    EXPECT_NEAR(static_cast<double>(hot) / draws, 0.53, 0.03);
}

TEST(Traffic, FactoryRejectsUnknownNames)
{
    EXPECT_DEATH(makeTraffic("nope", 64), "unknown traffic");
}

TEST(LoadSweep, ZeroLoadLatencyComesFromTheMinimumRatePoint)
{
    // Points deliberately out of rate order: front() is NOT the
    // lowest-load point.
    std::vector<LoadPoint> points(3);
    points[0] = {0.5, 0.5, 40.0, 80.0, true};
    points[1] = {0.05, 0.05, 21.0, 30.0, true};
    points[2] = {0.9, 0.7, 200.0, 900.0, false};
    const auto sweep = finalizeSweep(points);
    EXPECT_DOUBLE_EQ(sweep.zero_load_latency, 21.0);
}

TEST(LoadSweep, SaturationThroughputIgnoresUnstablePoints)
{
    // The saturated run reports the highest accepted value (an
    // artifact of the drain window), but only stable points count.
    std::vector<LoadPoint> points(3);
    points[0] = {0.2, 0.2, 25.0, 40.0, true};
    points[1] = {0.6, 0.58, 60.0, 150.0, true};
    points[2] = {1.0, 0.72, 500.0, 2000.0, false};
    const auto sweep = finalizeSweep(points);
    EXPECT_DOUBLE_EQ(sweep.saturation_throughput, 0.58);
}

TEST(LoadSweep, AllUnstableFallsBackWithMaxAccepted)
{
    std::vector<LoadPoint> points(2);
    points[0] = {0.8, 0.55, 300.0, 1000.0, false};
    points[1] = {1.0, 0.6, 500.0, 2000.0, false};
    const auto sweep = finalizeSweep(points);
    EXPECT_DOUBLE_EQ(sweep.saturation_throughput, 0.6);
}

TEST(LoadSweep, LinearRatesRejectNonFiniteAndNonPositive)
{
    EXPECT_DEATH(linearRates(std::nan(""), 4), "finite");
    EXPECT_DEATH(linearRates(
                     std::numeric_limits<double>::infinity(), 4),
                 "finite");
    EXPECT_DEATH(linearRates(-1.0, 4), "finite");
    EXPECT_DEATH(linearRates(0.9, 0), "finite");
}

TEST(LoadSweep, GeometricRatesSpanExactlyAndMonotonically)
{
    const auto rates = geometricRates(0.01, 0.9, 7);
    ASSERT_EQ(rates.size(), 7u);
    EXPECT_DOUBLE_EQ(rates.front(), 0.01);
    EXPECT_DOUBLE_EQ(rates.back(), 0.9);
    for (std::size_t i = 1; i < rates.size(); ++i)
        EXPECT_GT(rates[i], rates[i - 1]);
    // Constant ratio between neighbours (geometric spacing).
    const double ratio = rates[1] / rates[0];
    for (std::size_t i = 2; i < rates.size(); ++i)
        EXPECT_NEAR(rates[i] / rates[i - 1], ratio, 1e-9);
}

TEST(LoadSweep, GeometricRatesEdgeCases)
{
    const auto single = geometricRates(0.1, 0.8, 1);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_DOUBLE_EQ(single.front(), 0.8);

    EXPECT_DEATH(geometricRates(0.0, 0.9, 4), "min_rate");
    EXPECT_DEATH(geometricRates(0.9, 0.1, 4), "min_rate");
    EXPECT_DEATH(geometricRates(std::nan(""), 0.9, 4), "min_rate");
}

TEST(Workload, RejectsOverUnityPacketRate)
{
    EXPECT_DEATH(
        SyntheticWorkload(uniformTraffic(8), 1.5, 1), "exceeds");
}

TEST(Workload, RejectsNonFiniteRate)
{
    // NaN compares false against every bound, so it needs its own
    // check; the message names the rate and the terminal count.
    EXPECT_DEATH(SyntheticWorkload(uniformTraffic(8), std::nan(""), 1),
                 "rate nan over 8 terminals");
    EXPECT_DEATH(
        SyntheticWorkload(uniformTraffic(8),
                          std::numeric_limits<double>::infinity(), 1),
        "rate inf over 8 terminals");
    EXPECT_DEATH(SyntheticWorkload(uniformTraffic(8), -0.5, 1),
                 "rate -0.5 over 8 terminals");
}

TEST(Simulator, RejectsPacketsWithoutFlits)
{
    // A zero-flit packet would count as created but never finish.
    const auto topo = tinyClos();
    Network net(topo, tinySpec(), 1);
    ScriptedPacket workload(5, 2, 6, 0);
    Simulator sim(net, workload, SimConfig{});
    EXPECT_DEATH(sim.run(), "packet of 0 flits \\(2 -> 6\\)");
}

} // namespace
} // namespace wss::sim
