/**
 * @file
 * Tests for the flow-level DCN simulator: profile serialization and
 * interpolation, fat-tree/dragonfly construction and ECMP routing,
 * workload generation, the flow-conservation invariant, fault-driven
 * reroutes, and campaign determinism (byte-identical CSV at any
 * thread count — the engine's core contract). Telemetry: windowed
 * per-link time series reconcile exactly with the run's counters and
 * never perturb the results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "exec/thread_pool.hpp"
#include "fault/flow_faults.hpp"
#include "flow/dcn_campaign.hpp"
#include "flow/dcn_topology.hpp"
#include "flow/flow_sim.hpp"
#include "flow/switch_profile.hpp"
#include "flow/waterfill.hpp"
#include "flow/workload.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "power/ssc.hpp"
#include "util/rng.hpp"

namespace wss::flow {
namespace {

/// A hand-built profile: tests that don't exercise calibration skip
/// the cycle-accurate sweep entirely.
SwitchProfile
testProfile(const std::string &name, std::int64_t radix)
{
    SwitchProfile p;
    p.name = name;
    p.radix = radix;
    p.line_rate_gbps = 200.0;
    p.power_watts = 1000.0;
    p.zero_load_latency = 12.0;
    p.saturation = 0.95;
    p.points = {{0.1, 14.0, 20.0}, {0.5, 25.0, 60.0},
                {0.9, 80.0, 300.0}};
    return p;
}

// --- SwitchProfile ---------------------------------------------------

TEST(FlowProfile, InterpolationAnchorsAndClamps)
{
    const SwitchProfile p = testProfile("t", 64);
    // Anchored at (0, zero_load_latency).
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.0), 12.0);
    // Halfway between the anchor and the first point.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.05), 13.0);
    // On the calibrated points.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.1), 14.0);
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.5), 25.0);
    // Between points.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.3), 19.5);
    // Clamped past the last point.
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.9), 80.0);
    EXPECT_DOUBLE_EQ(p.latencyCycles(1.5), 80.0);
    // p99 uses the same scheme on its own column.
    EXPECT_DOUBLE_EQ(p.p99LatencyCycles(0.5), 60.0);
    // Seconds conversion.
    EXPECT_DOUBLE_EQ(p.latencySeconds(0.0), 12.0 * p.cycle_seconds);
}

TEST(FlowProfile, EmptyCurveFallsBackToZeroLoad)
{
    SwitchProfile p = testProfile("t", 64);
    p.points.clear();
    EXPECT_DOUBLE_EQ(p.latencyCycles(0.7), 12.0);
}

TEST(FlowProfile, JsonRoundTripIsBitExact)
{
    SwitchProfile p = testProfile("ws-6400", 6400);
    // Awkward doubles must survive the round trip bit-for-bit.
    p.line_rate_gbps = 200.0 / 3.0;
    p.cycle_seconds = 2.56e-9;
    p.zero_load_latency = 12.3456789012345;
    p.saturation = 1.0 / 3.0;
    p.points = {{0.1 / 3.0, 1.0 / 7.0, 2.0 / 7.0},
                {0.9, 1e-17, 3.0e17}};

    std::stringstream ss;
    p.writeJson(ss);
    const SwitchProfile q = SwitchProfile::fromJson(ss);

    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.radix, p.radix);
    EXPECT_EQ(q.line_rate_gbps, p.line_rate_gbps);
    EXPECT_EQ(q.cycle_seconds, p.cycle_seconds);
    EXPECT_EQ(q.power_watts, p.power_watts);
    EXPECT_EQ(q.zero_load_latency, p.zero_load_latency);
    EXPECT_EQ(q.saturation, p.saturation);
    ASSERT_EQ(q.points.size(), p.points.size());
    for (std::size_t i = 0; i < p.points.size(); ++i) {
        EXPECT_EQ(q.points[i].offered, p.points[i].offered);
        EXPECT_EQ(q.points[i].avg_latency, p.points[i].avg_latency);
        EXPECT_EQ(q.points[i].p99_latency, p.points[i].p99_latency);
    }
}

TEST(FlowProfile, FromJsonRejectsGarbageDiesLoudly)
{
    std::stringstream not_a_profile("{\"foo\": 1}");
    EXPECT_DEATH(SwitchProfile::fromJson(not_a_profile),
                 "wss_switch_profile");
    std::stringstream malformed("{\"wss_switch_profile\": 1,");
    EXPECT_DEATH(SwitchProfile::fromJson(malformed), "JSON");
}

TEST(FlowProfile, CalibrationProducesUsableProfile)
{
    // Tiny cycle-accurate sweep: a 16-port fabric of radix-8 SSCs.
    CalibrationSpec spec;
    spec.name = "cal-test";
    spec.ports = 16;
    spec.ssc = power::scaledSsc(8, 200.0);
    spec.rates = {0.1, 0.5};
    spec.packet_flits = 1;
    spec.sim_cfg.warmup = 100;
    spec.sim_cfg.measure = 300;
    spec.sim_cfg.drain_limit = 2000;
    spec.power_watts = 123.0;

    const SwitchProfile p = calibrateSwitchProfile(spec);
    EXPECT_EQ(p.name, "cal-test");
    EXPECT_EQ(p.radix, 16);
    EXPECT_DOUBLE_EQ(p.line_rate_gbps, 200.0);
    EXPECT_DOUBLE_EQ(p.power_watts, 123.0);
    EXPECT_GT(p.zero_load_latency, 0.0);
    EXPECT_GT(p.saturation, 0.0);
    ASSERT_FALSE(p.points.empty());
    for (std::size_t i = 1; i < p.points.size(); ++i)
        EXPECT_GT(p.points[i].offered, p.points[i - 1].offered);
    // Latency at load must not undercut the zero-load floor.
    EXPECT_GE(p.latencyCycles(0.5), p.zero_load_latency * 0.99);
}

// --- DcnTopology -----------------------------------------------------

TEST(FlowTopology, FatTreeTierSelection)
{
    const DcnTopology one = DcnTopology::buildFatTree(8, 8, 200.0);
    EXPECT_EQ(one.tiers(), 1);
    EXPECT_EQ(one.switchCount(), 1);
    EXPECT_EQ(one.hostCount(), 8);
    EXPECT_EQ(one.worstCaseHops(), 1);
    EXPECT_EQ(one.cableCount(), 8); // host cables only

    const DcnTopology two = DcnTopology::buildFatTree(20, 8, 200.0);
    EXPECT_EQ(two.tiers(), 2);
    EXPECT_GT(two.switchCount(), 1);
    EXPECT_EQ(two.hostCount(), 20);
    EXPECT_EQ(two.worstCaseHops(), 3); // leaf-spine-leaf
    EXPECT_GT(two.cableCount(), 20);

    const DcnTopology three = DcnTopology::buildFatTree(100, 8, 200.0);
    EXPECT_EQ(three.tiers(), 3);
    EXPECT_EQ(three.hostCount(), 100);
    EXPECT_EQ(three.worstCaseHops(), 5); // leaf-agg-core-agg-leaf
}

TEST(FlowTopology, FatTreeBeyondCapacityDiesLoudly)
{
    // radix 8 tops out at 8^3/4 = 128 hosts.
    EXPECT_DEATH(DcnTopology::buildFatTree(129, 8, 200.0), "exceed");
    EXPECT_DEATH(DcnTopology::buildFatTree(8, 7, 200.0), "even");
    EXPECT_DEATH(DcnTopology::buildFatTree(0, 8, 200.0), "host");
}

TEST(FlowTopology, DragonflyShape)
{
    // radix 8: p = 2 hosts/switch, a = 4 switches/group, h = 2.
    const DcnTopology df = DcnTopology::buildDragonfly(32, 8, 200.0);
    EXPECT_EQ(df.kind(), DcnKind::Dragonfly);
    EXPECT_EQ(df.hostCount(), 32);
    EXPECT_EQ(df.switchCount(), 16); // 4 groups of 4
    EXPECT_GE(df.worstCaseHops(), 2);
    EXPECT_LE(df.worstCaseHops(), 4);
    EXPECT_NE(df.name().find("dragonfly"), std::string::npos);
}

TEST(FlowTopology, DragonflyBeyondBudgetDiesLoudly)
{
    // radix 4: a = 2, h = 1 -> 2 global links per group; more than
    // 3 groups cannot form a clique of groups.
    EXPECT_DEATH(DcnTopology::buildDragonfly(64, 4, 200.0), "exceed");
    EXPECT_DEATH(DcnTopology::buildDragonfly(8, 6, 200.0),
                 "multiple of 4");
}

TEST(FlowTopology, EcmpRouteIsDeterministicAndValid)
{
    const DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    ASSERT_EQ(topo.tiers(), 2);
    for (std::uint64_t flow = 0; flow < 100; ++flow) {
        const std::int64_t src = static_cast<std::int64_t>(flow % 32);
        const std::int64_t dst =
            static_cast<std::int64_t>((flow * 7 + 5) % 32);
        if (src == dst)
            continue;
        DcnPath a, b;
        ASSERT_TRUE(topo.route(src, dst, flow, &a));
        ASSERT_TRUE(topo.route(src, dst, flow, &b));
        // Same flow id, same path — bit-for-bit.
        EXPECT_EQ(a.switches, b.switches);
        EXPECT_EQ(a.directed_links, b.directed_links);
        // Structurally valid.
        ASSERT_FALSE(a.switches.empty());
        EXPECT_EQ(a.switches.front(), topo.edgeOf(src));
        EXPECT_EQ(a.switches.back(), topo.edgeOf(dst));
        ASSERT_EQ(a.directed_links.size(), a.switches.size() - 1);
        for (const int dl : a.directed_links) {
            const int link = dl >> 1;
            ASSERT_GE(link, 0);
            ASSERT_LT(static_cast<std::size_t>(link),
                      topo.links().size());
        }
    }
}

TEST(FlowTopology, EcmpSpreadsFlowsAcrossSpines)
{
    const DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    // Pick a cross-leaf pair and count distinct middle switches over
    // many flow ids: ECMP must use more than one spine.
    const std::int64_t src = 0;
    std::int64_t dst = -1;
    for (std::int64_t h = 0; h < 32; ++h)
        if (topo.edgeOf(h) != topo.edgeOf(src)) {
            dst = h;
            break;
        }
    ASSERT_GE(dst, 0);
    std::set<int> middles;
    for (std::uint64_t flow = 0; flow < 64; ++flow) {
        DcnPath path;
        ASSERT_TRUE(topo.route(src, dst, flow, &path));
        ASSERT_EQ(path.switches.size(), 3u);
        middles.insert(path.switches[1]);
    }
    EXPECT_GT(middles.size(), 1u);
}

TEST(FlowTopology, KilledSwitchDisappearsFromRoutes)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    // Find a spine (a switch no host hangs off).
    std::set<int> edges;
    for (std::int64_t h = 0; h < topo.hostCount(); ++h)
        edges.insert(topo.edgeOf(h));
    int spine = -1;
    for (int s = 0; s < topo.switchCount(); ++s)
        if (!edges.count(s)) {
            spine = s;
            break;
        }
    ASSERT_GE(spine, 0);

    topo.setSwitchAlive(spine, false);
    EXPECT_TRUE(topo.routesDirty());
    topo.rebuildRoutes();
    EXPECT_FALSE(topo.switchAlive(spine));
    for (std::uint64_t flow = 0; flow < 200; ++flow) {
        DcnPath path;
        ASSERT_TRUE(topo.route(0, 31, flow, &path));
        for (const int sw : path.switches)
            EXPECT_NE(sw, spine);
    }
    // Killing an edge switch partitions its hosts.
    topo.setSwitchAlive(topo.edgeOf(0), false);
    topo.rebuildRoutes();
    DcnPath path;
    EXPECT_FALSE(topo.route(0, 31, 1, &path));
}

// --- Workloads -------------------------------------------------------

TEST(FlowWorkload, GenerationIsSortedAndDeterministic)
{
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 2000;
    spec.load = 0.4;
    const auto a = generateFlows(spec, 64, 200.0, 9);
    const auto b = generateFlows(spec, 64, 200.0, 9);
    ASSERT_EQ(a.size(), 2000u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].src_host, b[i].src_host);
        EXPECT_EQ(a[i].dst_host, b[i].dst_host);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
        EXPECT_NE(a[i].src_host, a[i].dst_host);
        EXPECT_GT(a[i].bytes, 0.0);
    }
    // A different seed gives a different trace.
    const auto c = generateFlows(spec, 64, 200.0, 10);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
        any_diff = a[i].bytes != c[i].bytes ||
                   a[i].arrival_s != c[i].arrival_s;
    EXPECT_TRUE(any_diff);
}

TEST(FlowWorkload, IncastMixProducesSynchronisedBursts)
{
    DcnWorkloadSpec spec = workloadByName("incast");
    EXPECT_GT(spec.incast_fraction, 0.0);
    spec.flow_count = 5000;
    const auto flows = generateFlows(spec, 64, 200.0, 4);
    ASSERT_EQ(flows.size(), 5000u);
    // A burst is >= incast_degree/2 flows at the same instant aimed
    // at the same destination (the generator emits whole bursts
    // unless truncated by flow_count).
    bool found_burst = false;
    for (std::size_t i = 0; i + 8 < flows.size() && !found_burst;
         ++i) {
        std::size_t j = i;
        while (j < flows.size() &&
               flows[j].arrival_s == flows[i].arrival_s &&
               flows[j].dst_host == flows[i].dst_host)
            ++j;
        found_burst = j - i >= 8;
    }
    EXPECT_TRUE(found_burst);
}

TEST(FlowWorkload, FixedDistMeanMatchesSpec)
{
    DcnWorkloadSpec spec = workloadByName("fixed");
    EXPECT_DOUBLE_EQ(meanFlowBytes(spec), spec.fixed_bytes);
    EXPECT_GT(meanFlowBytes(workloadByName("websearch")), 0.0);
    EXPECT_GT(meanFlowBytes(workloadByName("hadoop")), 0.0);
}

TEST(FlowWorkload, UnknownNameDiesLoudly)
{
    EXPECT_DEATH(workloadByName("netflix"), "unknown DCN workload");
}

// --- Flow simulator --------------------------------------------------

TEST(FlowSim, ConservationViolationDiesLoudly)
{
    // 10 started but only 5 + 1 + 2 accounted for: the engine must
    // abort, never quietly emit statistics.
    EXPECT_DEATH(verifyFlowConservation(10, 5, 1, 2),
                 "flow conservation violated");
    // And the accounting identity passes when it holds.
    verifyFlowConservation(10, 7, 1, 2);
    verifyFlowConservation(0, 0, 0, 0);
}

TEST(FlowSim, CleanRunCompletesEveryFlow)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 500;
    spec.load = 0.5;
    const auto flows = generateFlows(spec, 16, 200.0, 2);

    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.started, 500);
    EXPECT_EQ(r.completed, 500);
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.rerouted, 0);
    EXPECT_EQ(r.fault_events, 0);
    EXPECT_GT(r.duration_s, 0.0);
    EXPECT_GT(r.throughput_gbps, 0.0);
    EXPECT_GT(r.fct_avg_s, 0.0);
    EXPECT_GE(r.fct_p99_s, r.fct_p50_s);
    EXPECT_GE(r.fct_p999_s, r.fct_p99_s);
    // A shared fabric can't beat the lone-flow ideal.
    EXPECT_GE(r.slowdown_p50, 0.99);
    EXPECT_GE(r.avg_hops, 1.0);
    EXPECT_LE(r.avg_hops, 3.0);
}

TEST(FlowSim, MetricsAndTraceCoverTheRun)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 300;
    const auto flows = generateFlows(spec, 16, 200.0, 3);

    obs::MetricsRegistry metrics;
    obs::TraceEventSink trace;
    FlowSimConfig cfg;
    cfg.metrics = &metrics;
    cfg.trace = &trace;
    const FlowSimResult r = simulateFlows(topo, profile, flows, {}, cfg);

    EXPECT_EQ(metrics.counterValue("flow.started"),
              static_cast<std::uint64_t>(r.started));
    EXPECT_EQ(metrics.counterValue("flow.completed"),
              static_cast<std::uint64_t>(r.completed));
    EXPECT_EQ(metrics.counterValue("flow.failed"), 0u);
    ASSERT_TRUE(metrics.histograms().count("flow.slowdown"));
    EXPECT_EQ(metrics.histograms().at("flow.slowdown").count,
              static_cast<std::uint64_t>(r.completed));
    EXPECT_GE(trace.size(), 1u);
}

TEST(FlowSim, SwitchKillMidRunReroutesSurvivors)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    ASSERT_EQ(topo.tiers(), 2);
    // Find a spine switch.
    std::set<int> edges;
    for (std::int64_t h = 0; h < topo.hostCount(); ++h)
        edges.insert(topo.edgeOf(h));
    int spine = -1;
    for (int s = 0; s < topo.switchCount(); ++s)
        if (!edges.count(s)) {
            spine = s;
            break;
        }
    ASSERT_GE(spine, 0);

    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 3000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, 5);

    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 2].arrival_s, spine);

    const FlowSimResult r = simulateFlows(topo, profile, flows, faults);
    EXPECT_EQ(r.fault_events, 1);
    // Flows in flight across the dead spine moved to survivors.
    EXPECT_GT(r.rerouted, 0);
    // The surviving spines keep every flow alive.
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.completed + r.failed, r.started);
    EXPECT_FALSE(topo.switchAlive(spine));
}

TEST(FlowSim, EdgeSwitchKillFailsStrandedFlows)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    const int edge = topo.edgeOf(0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 3000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, 6);

    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 3].arrival_s, edge);

    const FlowSimResult r = simulateFlows(topo, profile, flows, faults);
    // Flows touching the dead leaf's hosts have no path: they fail,
    // and the accounting still balances (the engine panics
    // otherwise).
    EXPECT_GT(r.failed, 0);
    EXPECT_GT(r.completed, 0);
    EXPECT_EQ(r.completed + r.failed, r.started);
}

// --- Degenerate flows ------------------------------------------------

TEST(FlowSim, LoopbackFlowsCompleteWithoutTouchingTheFabric)
{
    // src == dst never leaves the host NIC: zero hops, line-rate
    // transfer, and no share of any switch's capacity.
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    const double bytes = 1e6;
    std::vector<FlowArrival> flows = {{1, 0.0, 3, 3, bytes}};
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.completed, 1);
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.avg_hops, 0.0);
    const double xfer = bytes / (200.0 * 1e9 / 8.0);
    EXPECT_NEAR(r.fct_avg_s, xfer, 1e-12);
    EXPECT_NEAR(r.slowdown_p50, 1.0, 1e-9);
    EXPECT_EQ(r.completed_bytes, bytes);
}

TEST(FlowSim, ZeroByteFlowsPayOnlyPathLatency)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {{1, 0.0, 0, 9, 0.0},
                                      {2, 0.0, 1, 2, 0.0}};
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.completed, 2);
    EXPECT_EQ(r.failed, 0);
    // An RPC-style empty flow still crosses the calibrated switches:
    // its FCT is the zero-load path latency, not zero and not NaN.
    EXPECT_GT(r.fct_avg_s, 0.0);
    EXPECT_LT(r.fct_avg_s, 1e-3);
    EXPECT_TRUE(std::isfinite(r.slowdown_p99));
    EXPECT_EQ(r.completed_bytes, 0.0);
}

TEST(FlowSim, MixedDegenerateAndBulkFlowsBalance)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {
        {1, 0.0, 0, 1, 1e7},   // bulk
        {2, 0.0, 4, 4, 5e5},   // loopback
        {3, 0.0, 2, 11, 0.0},  // zero-byte RPC
        {4, 1e-5, 6, 6, 0.0},  // zero-byte loopback
    };
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.started, 4);
    EXPECT_EQ(r.completed, 4);
    EXPECT_EQ(r.completed + r.failed, r.started);
    EXPECT_EQ(r.completed_bytes, 1e7 + 5e5);
    // fct_max_s covers the slowest flow — the bulk one here.
    EXPECT_GE(r.fct_max_s, 1e7 / (200.0 * 1e9 / 8.0));
    EXPECT_GE(r.fct_max_s, r.fct_p999_s);
}

TEST(FlowSim, NegativeByteSizeDiesLoudly)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {{1, 0.0, 0, 1, -5.0}};
    EXPECT_DEATH(simulateFlows(topo, profile, flows), "negative size");
}

TEST(FlowSim, NonFiniteByteSizeDiesLoudly)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<FlowArrival> flows = {{1, 0.0, 0, 1, 1e4},
                                      {7, 0.0, 2, 3, nan}};
    EXPECT_DEATH(simulateFlows(topo, profile, flows),
                 "flow 7 has non-finite size");
    flows[1].bytes = inf;
    EXPECT_DEATH(simulateFlows(topo, profile, flows),
                 "flow 7 has non-finite size");
}

TEST(FlowSim, OutOfOrderArrivalDiesLoudly)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {{1, 0.0, 0, 1, 1e4},
                                      {2, 2e-6, 2, 3, 1e4},
                                      {3, 1e-6, 4, 5, 1e4}};
    EXPECT_DEATH(simulateFlows(topo, profile, flows),
                 "flow 3 arrives at .* before flow 2");
}

TEST(FlowSim, NonFiniteArrivalTimeDiesLoudly)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows = {
        {4, std::numeric_limits<double>::quiet_NaN(), 0, 1, 1e4}};
    EXPECT_DEATH(simulateFlows(topo, profile, flows),
                 "flow 4 has non-finite arrival time");
    flows[0].arrival_s = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(simulateFlows(topo, profile, flows),
                 "flow 4 has non-finite arrival time");
}

TEST(FlowSim, FctMaxTracksTheSlowestFlow)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    std::vector<FlowArrival> flows;
    for (int i = 0; i < 8; ++i)
        flows.push_back({static_cast<std::uint64_t>(i + 1), 0.0, i,
                         i + 8, (i + 1) * 1e5});
    const FlowSimResult r = simulateFlows(topo, profile, flows);
    EXPECT_EQ(r.completed, 8);
    EXPECT_GE(r.fct_max_s, r.fct_p50_s);
    // The slowest flow is the largest one; its ideal time lower-bounds
    // the max FCT.
    EXPECT_GE(r.fct_max_s, 8e5 / (200.0 * 1e9 / 8.0));
}

/// Every FlowSimResult column of one run, as exact values.
struct GoldenRow
{
    const char *cell;
    std::int64_t started, completed, failed, rerouted, fault_events;
    double duration_s, completed_bytes, throughput_gbps;
    double fct_avg_s, fct_max_s, fct_p50_s, fct_p99_s, fct_p999_s;
    double slowdown_avg, slowdown_p50, slowdown_p99, slowdown_p999;
    double avg_hops;
};

void
expectGolden(const FlowSimResult &r, const GoldenRow &g)
{
    SCOPED_TRACE(g.cell);
    EXPECT_EQ(r.started, g.started);
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(r.failed, g.failed);
    EXPECT_EQ(r.rerouted, g.rerouted);
    EXPECT_EQ(r.fault_events, g.fault_events);
    EXPECT_EQ(r.duration_s, g.duration_s);
    EXPECT_EQ(r.completed_bytes, g.completed_bytes);
    EXPECT_EQ(r.throughput_gbps, g.throughput_gbps);
    EXPECT_EQ(r.fct_avg_s, g.fct_avg_s);
    EXPECT_EQ(r.fct_max_s, g.fct_max_s);
    EXPECT_EQ(r.fct_p50_s, g.fct_p50_s);
    EXPECT_EQ(r.fct_p99_s, g.fct_p99_s);
    EXPECT_EQ(r.fct_p999_s, g.fct_p999_s);
    EXPECT_EQ(r.slowdown_avg, g.slowdown_avg);
    EXPECT_EQ(r.slowdown_p50, g.slowdown_p50);
    EXPECT_EQ(r.slowdown_p99, g.slowdown_p99);
    EXPECT_EQ(r.slowdown_p999, g.slowdown_p999);
    EXPECT_EQ(r.avg_hops, g.avg_hops);
}

TEST(FlowSim, GoldenResultsOnFatTreeCells)
{
    // The engine's end-to-end bits, pinned: any change to the
    // waterfill, the event loop or the latency lookups that moves a
    // single result bit fails here. 256 hosts on a conv-64 leaf-spine
    // (shared trunks) and on a single 512-port wafer (NICs only), at
    // websearch@0.7 and hadoop@0.3, plus a conv-64 run whose spine
    // dies mid-run. Recorded with the per-event global re-solve, before
    // the solver became incremental.
    static const GoldenRow kGolden[] = {
        {"conv-64 websearch@0.7",
         1500, 1500, 0, 0, 0,
         0x1.89e29fe1f54ecp-9, 0x1.1b858c7bb6d41p+31, 0x1.8bb7f0f1642a9p+12,
         0x1.d3341f3c11168p-14, 0x1.74d5c12c86099p-9, 0x1.073c311738a1bp-18,
         0x1.9de2dd48534d9p-10, 0x1.647c7c06b2506p-9, 0x1.f23c208d7d27fp+0,
         0x1.f55e34a191fdp+0, 0x1.1089d2c99fcp+2, 0x1.5bdbfff6e12bp+2,
         0x1.6508dfea2798p+1},
        {"conv-64 hadoop@0.3",
         1500, 1500, 0, 0, 0,
         0x1.2a4b0bf3719dfp-9, 0x1.ddc842dc46d16p+29, 0x1.b847104c4add5p+11,
         0x1.13eea0b0dacf7p-15, 0x1.03f54d80bc063p-9, 0x1.211e8c34b95dep-23,
         0x1.130b084d0fb67p-10, 0x1.ef9cdc3efaad9p-10, 0x1.3d9fe4d99197dp+0,
         0x1.27a6f19bfe219p+0, 0x1.328667333497p+1, 0x1.c5c95f4429716p+1,
         0x1.6508dfea2798p+1},
        {"ws-512 websearch@0.7",
         1500, 1500, 0, 0, 0,
         0x1.89e29fe1f54ecp-9, 0x1.1b858c7bb6d41p+31, 0x1.8bb7f0f1642a9p+12,
         0x1.d2cc507242d68p-14, 0x1.74d59dec2ad88p-9, 0x1.ff17f67ac1457p-19,
         0x1.9ddb88bbc43e6p-10, 0x1.6478a6399c7a3p-9, 0x1.f36dd15262cfep+0,
         0x1.fb473243779f7p+0, 0x1.173c0e2d72bc2p+2, 0x1.5ca6592e9cdc8p+2,
         0x1p+0},
        {"ws-512 hadoop@0.3",
         1500, 1500, 0, 0, 0,
         0x1.2a4b0bf3719dfp-9, 0x1.ddc842dc46d16p+29, 0x1.b847104c4add5p+11,
         0x1.135cbaf74f3bfp-15, 0x1.03f2d6d9f1d1ap-9, 0x1.0182aba4fd6a4p-24,
         0x1.1305cbd77b7b3p-10, 0x1.ef973423f947cp-10, 0x1.354a2d603269p+0,
         0x1.1489ec82157eep+0, 0x1.38f54c3eee435p+1, 0x1.c5f083b0b92e1p+1,
         0x1p+0},
        {"conv-64 websearch@0.7 spine killed",
         1500, 1500, 0, 30, 1,
         0x1.89e29fe1f54efp-9, 0x1.1b858c7bb6d4p+31, 0x1.8bb7f0f1642a4p+12,
         0x1.d3b2146b79c1p-14, 0x1.74d5c12c8609cp-9, 0x1.073fc8484d3f5p-18,
         0x1.9de2dd48534dbp-10, 0x1.647c7c06b2509p-9, 0x1.f44246716ebdcp+0,
         0x1.fa41e8e77d3ddp+0, 0x1.108b23b047a95p+2, 0x1.5bdee51ed7bb4p+2,
         0x1.6508dfea2798p+1},
    };
    const auto run = [](int radix, const char *workload, double load,
                        bool kill_spine) {
        DcnTopology topo = DcnTopology::buildFatTree(256, radix, 200.0);
        DcnWorkloadSpec spec = workloadByName(workload);
        spec.flow_count = 1500;
        spec.load = load;
        const auto flows = generateFlows(spec, 256, 200.0, 11);
        fault::DcnFaultSchedule faults;
        if (kill_spine) {
            std::set<int> edges;
            for (std::int64_t h = 0; h < topo.hostCount(); ++h)
                edges.insert(topo.edgeOf(h));
            int spine = 0;
            while (edges.count(spine))
                ++spine;
            faults.killSwitch(flows[flows.size() / 2].arrival_s, spine);
        }
        return simulateFlows(topo, testProfile("t", radix), flows, faults);
    };
    const FlowSimResult got[] = {
        run(64, "websearch", 0.7, false), run(64, "hadoop", 0.3, false),
        run(512, "websearch", 0.7, false), run(512, "hadoop", 0.3, false),
        run(64, "websearch", 0.7, true)};
    for (std::size_t i = 0; i < std::size(got); ++i)
        expectGolden(got[i], kGolden[i]);
}

// --- Waterfill -------------------------------------------------------

/// The textbook progressive waterfill: rescan every touched resource
/// each round and keep the first strictly smaller fair share. This is
/// the reference Waterfill must match bit for bit.
struct FillRounds
{
    int rounds = 0;
    /// Rounds whose minimal share several resources attained.
    int tied = 0;
};

std::vector<double>
linearScanWaterfill(const std::vector<double> &cap,
                    const std::vector<std::vector<int>> &flows,
                    FillRounds *stats = nullptr)
{
    const int n = static_cast<int>(flows.size());
    std::vector<std::vector<int>> users(cap.size());
    std::vector<int> touched;
    for (int f = 0; f < n; ++f)
        for (int r : flows[f]) {
            if (users[r].empty())
                touched.push_back(r);
            users[r].push_back(f);
        }
    std::vector<double> remcap(cap.size(), 0.0);
    std::vector<int> cnt(cap.size(), 0);
    for (int r : touched) {
        remcap[r] = cap[r];
        cnt[r] = static_cast<int>(users[r].size());
    }
    std::vector<double> rate(flows.size(), 0.0);
    std::vector<char> frozen(flows.size(), 0);
    int unfrozen = n;
    while (unfrozen > 0) {
        double best = std::numeric_limits<double>::infinity();
        int bottleneck = -1;
        for (int r : touched)
            if (cnt[r] > 0) {
                const double fair = remcap[r] / cnt[r];
                if (fair < best) {
                    best = fair;
                    bottleneck = r;
                }
            }
        if (bottleneck < 0) {
            ADD_FAILURE() << "reference waterfill stalled";
            return rate;
        }
        if (stats) {
            ++stats->rounds;
            if (std::count_if(touched.begin(), touched.end(), [&](int r) {
                    return cnt[r] > 0 && remcap[r] / cnt[r] == best;
                }) > 1)
                ++stats->tied;
        }
        best = std::max(best, 0.0);
        for (int f : users[bottleneck]) {
            if (frozen[f])
                continue;
            frozen[f] = 1;
            rate[f] = best;
            --unfrozen;
            for (int r : flows[f])
                if (r != bottleneck) {
                    remcap[r] -= best;
                    --cnt[r];
                }
        }
        cnt[bottleneck] = 0;
    }
    return rate;
}

std::vector<double>
solveWaterfill(Waterfill &wf, const std::vector<std::vector<int>> &flows)
{
    wf.clear();
    for (const auto &res : flows)
        wf.addFlow(res);
    return wf.solve();
}

void
expectBitIdentical(const std::vector<double> &got,
                   const std::vector<double> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t f = 0; f < got.size(); ++f)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[f]),
                  std::bit_cast<std::uint64_t>(want[f]))
            << what << ": flow " << f << " rate " << got[f] << " vs "
            << want[f];
}

TEST(FlowWaterfill, TextbookMaxMinInstance)
{
    // r0 (cap 10) carries f0, f1, f3; r1 (cap 4) carries f1, f2;
    // r2 (cap 6) carries f3, f4. Round 1 freezes r1's flows at 2,
    // round 2 r2's at 3, and f0 takes what r0 has left: 10 - 2 - 3.
    const std::vector<double> cap = {10.0, 4.0, 6.0};
    Waterfill wf(cap);
    const std::vector<std::vector<int>> flows = {
        {0}, {0, 1}, {1}, {0, 2}, {2}};
    const std::vector<double> rates = solveWaterfill(wf, flows);
    EXPECT_EQ(rates, (std::vector<double>{5.0, 2.0, 2.0, 3.0, 3.0}));
    expectBitIdentical(rates, linearScanWaterfill(cap, flows), "textbook");
}

TEST(FlowWaterfill, EmptySetAndSingleFlow)
{
    Waterfill wf({5.0, 3.0, 7.0});
    EXPECT_TRUE(solveWaterfill(wf, {}).empty());
    EXPECT_EQ(wf.flowCount(), 0u);
    // A lone flow runs at its narrowest resource.
    EXPECT_EQ(solveWaterfill(wf, {{0, 1, 2}}), std::vector<double>{3.0});
    EXPECT_EQ(solveWaterfill(wf, {{2}}), std::vector<double>{7.0});
    EXPECT_TRUE(solveWaterfill(wf, {}).empty());
}

TEST(FlowWaterfill, MatchesLinearScanBitwiseOnTieHeavyInstances)
{
    // Fat-tree-shaped instances: a tx and an rx NIC per host, then
    // two directions per trunk; each flow runs src tx -> up to three
    // trunk directions -> dst rx. Capacities are all equal, drawn
    // from a three-value palette, or continuous, so exact ties in
    // remcap/cnt are the norm. One solver is reused across several
    // instances per capacity set, exercising its buffer recycling.
    FillRounds stats;
    std::size_t flows_checked = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        const int hosts = static_cast<int>(rng.nextInRange(4, 48));
        const int trunks = static_cast<int>(rng.nextInRange(2, 16));
        const int host_res = 2 * hosts;
        std::vector<double> cap(
            static_cast<std::size_t>(host_res + 2 * trunks));
        for (std::size_t r = 0; r < cap.size(); ++r) {
            switch (seed % 3) {
            case 0:
                cap[r] = 25e9;
                break;
            case 1:
                cap[r] = 1e9 * static_cast<double>(
                                   1u << rng.nextBelow(3));
                break;
            default:
                cap[r] = (0.5 + rng.nextDouble()) * 1e9;
                break;
            }
        }
        Waterfill wf(cap);
        for (int instance = 0; instance < 4; ++instance) {
            std::vector<std::vector<int>> flows(
                static_cast<std::size_t>(rng.nextInRange(0, 2 * hosts)));
            for (auto &res : flows) {
                const auto src = rng.nextBelow(
                    static_cast<std::uint64_t>(hosts));
                const auto dst = rng.nextBelow(
                    static_cast<std::uint64_t>(hosts));
                res.push_back(static_cast<int>(2 * src));
                const auto hops = rng.nextBelow(4);
                for (std::uint64_t h = 0; h < hops; ++h)
                    res.push_back(host_res +
                                  static_cast<int>(rng.nextBelow(
                                      static_cast<std::uint64_t>(
                                          2 * trunks))));
                res.push_back(static_cast<int>(2 * dst + 1));
            }
            expectBitIdentical(
                solveWaterfill(wf, flows),
                linearScanWaterfill(cap, flows, &stats),
                "seed " + std::to_string(seed) + " instance " +
                    std::to_string(instance));
            flows_checked += flows.size();
        }
    }
    // The instances must actually stress tie-breaking: in more than
    // one round in ten, several resources share the minimal share.
    EXPECT_GT(stats.tied * 10, stats.rounds)
        << stats.tied << " of " << stats.rounds << " rounds tied";
    EXPECT_GT(flows_checked, 15000u);
}

TEST(FlowWaterfill, IncrementalMatchesLinearScanBitwiseOverEventSequences)
{
    // One persistent solver per instance driven through event batches
    // as simulateFlows issues them: arrivals, swap-with-last removals
    // (several in one batch, as same-instant completions are) and
    // reroutes that replace a flow's resources. After every solve the
    // rates must match the linear scan over the same slot order bit
    // for bit, whatever the solver replayed from its previous solve.
    FillRounds stats;
    std::size_t events = 0, solves = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed * 7919);
        const int hosts = static_cast<int>(rng.nextInRange(4, 40));
        const int trunks = static_cast<int>(rng.nextInRange(2, 12));
        const int host_res = 2 * hosts;
        std::vector<double> cap(
            static_cast<std::size_t>(host_res + 2 * trunks));
        for (std::size_t r = 0; r < cap.size(); ++r)
            cap[r] = seed % 3 == 0   ? 25e9
                     : seed % 3 == 1 ? 1e9 * static_cast<double>(
                                                 1u << rng.nextBelow(3))
                                     : (0.5 + rng.nextDouble()) * 1e9;
        const auto randomPath = [&]() {
            std::vector<int> res;
            res.push_back(static_cast<int>(
                2 * rng.nextBelow(static_cast<std::uint64_t>(hosts))));
            const auto hops = rng.nextBelow(4);
            for (std::uint64_t h = 0; h < hops; ++h)
                res.push_back(host_res +
                              static_cast<int>(rng.nextBelow(
                                  static_cast<std::uint64_t>(2 * trunks))));
            res.push_back(static_cast<int>(
                2 * rng.nextBelow(static_cast<std::uint64_t>(hosts)) + 1));
            return res;
        };

        Waterfill wf(cap);
        std::vector<std::vector<int>> flows;
        const auto target = static_cast<std::size_t>(
            rng.nextInRange(4, 3 * hosts / 2 + 4));
        for (int batch = 0; batch < 700; ++batch) {
            // Mostly single events, sometimes a same-instant burst.
            const auto size = rng.nextBool(0.15) ? rng.nextInRange(2, 6) : 1;
            for (std::int64_t e = 0; e < size; ++e, ++events) {
                const double pick = rng.nextDouble();
                const bool grow = flows.size() < target;
                if (flows.empty() || (grow ? pick < 0.6 : pick < 0.35)) {
                    flows.push_back(randomPath());
                    wf.addFlow(flows.back());
                } else if (pick < 0.85) {
                    const auto slot = static_cast<std::size_t>(
                        rng.nextBelow(flows.size()));
                    flows[slot] = std::move(flows.back());
                    flows.pop_back();
                    wf.removeFlow(slot);
                } else {
                    const auto slot = static_cast<std::size_t>(
                        rng.nextBelow(flows.size()));
                    flows[slot] = randomPath();
                    wf.rerouteFlow(slot, flows[slot]);
                }
            }
            ASSERT_EQ(wf.flowCount(), flows.size());
            expectBitIdentical(wf.solve(),
                               linearScanWaterfill(cap, flows, &stats),
                               "seed " + std::to_string(seed) +
                                   " batch " + std::to_string(batch));
            ++solves;
        }
        for (std::size_t slot = 0; slot < flows.size(); ++slot) {
            const auto res = wf.resources(slot);
            EXPECT_EQ(std::vector<int>(res.begin(), res.end()), flows[slot]);
        }
    }
    EXPECT_GT(stats.tied * 10, stats.rounds)
        << stats.tied << " of " << stats.rounds << " rounds tied";
    EXPECT_GE(events, 50000u);
    EXPECT_EQ(solves, 60u * 700u);
}

TEST(FlowWaterfill, SlotOutsideTheInstanceDiesLoudly)
{
    Waterfill wf({1.0, 2.0});
    wf.addFlow({0, 1});
    EXPECT_DEATH(wf.removeFlow(1), "slot 1 outside");
    EXPECT_DEATH(wf.rerouteFlow(3, {0}), "slot 3 outside");
}

TEST(FlowWaterfill, FlowWithoutResourcesDiesLoudly)
{
    Waterfill wf({1.0});
    EXPECT_DEATH(wf.addFlow({}), "crosses no resource");
    EXPECT_DEATH(wf.addFlow({1}), "resource 1 outside");
}

// --- Campaign --------------------------------------------------------

DcnCampaignConfig
smallCampaign()
{
    DcnCampaignConfig cfg;
    cfg.designs = {testProfile("ws-512", 512), testProfile("conv", 8)};
    cfg.hosts = 32;
    cfg.workloads = {workloadByName("websearch")};
    cfg.loads = {0.5};
    cfg.flows_per_cell = 1500;
    cfg.seed = 3;
    return cfg;
}

TEST(FlowCampaign, CsvByteIdenticalAcrossJobs)
{
    const DcnCampaign campaign(smallCampaign());

    std::ostringstream serial, threaded, serial_again;
    campaign.run(nullptr).writeCsv(serial);
    {
        exec::ThreadPool pool(4);
        campaign.run(&pool).writeCsv(threaded);
    }
    campaign.run(nullptr).writeCsv(serial_again);

    // The engine's core contract: same (config, seed) => the same
    // bytes, at any thread count, on every run.
    EXPECT_EQ(serial.str(), threaded.str());
    EXPECT_EQ(serial.str(), serial_again.str());
    EXPECT_NE(serial.str().find("ws-512"), std::string::npos);
    EXPECT_NE(serial.str().find("fct_p99_us"), std::string::npos);
}

TEST(FlowCampaign, SeedChangesTheResults)
{
    DcnCampaignConfig cfg = smallCampaign();
    std::ostringstream a, b;
    DcnCampaign(cfg).run(nullptr).writeCsv(a);
    cfg.seed = 4;
    DcnCampaign(cfg).run(nullptr).writeCsv(b);
    EXPECT_NE(a.str(), b.str());
}

TEST(FlowCampaign, FieldFailuresKillSwitchesMidRun)
{
    DcnCampaignConfig cfg = smallCampaign();
    cfg.designs = {testProfile("conv", 8)};
    // Certain death for every switch during the arrival window.
    cfg.fault_model.node_field_failure = 1.0;
    const DcnResult result = DcnCampaign(cfg).run(nullptr);
    ASSERT_EQ(result.cells.size(), 1u);
    const auto &cell = result.cells[0];
    EXPECT_EQ(cell.sim.fault_events, cell.switches);
    // With the whole fabric eventually dead, late flows fail — but
    // the accounting identity held throughout (no panic).
    EXPECT_GT(cell.sim.failed, 0);
    EXPECT_EQ(cell.sim.completed + cell.sim.failed, cell.sim.started);
}

TEST(FlowCampaign, JsonIsWellFormedEnough)
{
    const DcnResult result = DcnCampaign(smallCampaign()).run(nullptr);
    std::ostringstream os;
    result.writeJson(os);
    const std::string json = os.str();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"fct_p99_s\""), std::string::npos);
}

TEST(FlowCampaign, EmptyAxesDiesLoudly)
{
    DcnCampaignConfig cfg;
    EXPECT_DEATH(DcnCampaign{cfg}, "at least one");
    cfg = smallCampaign();
    cfg.designs[0].radix = 0;
    EXPECT_DEATH(DcnCampaign{cfg}, "calibrated");
}

// --- Telemetry -------------------------------------------------------

FlowSimResult
runWithTelemetry(double window_s, std::uint64_t seed = 7,
                 std::int64_t flow_count = 2000)
{
    DcnTopology topo = DcnTopology::buildFatTree(16, 8, 200.0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = flow_count;
    spec.load = 0.5;
    const auto flows = generateFlows(spec, 16, 200.0, seed);
    FlowSimConfig cfg;
    cfg.telemetry_window_s = window_s;
    return simulateFlows(topo, profile, flows, {}, cfg);
}

TEST(FlowTelemetry, WindowsReconcileExactlyWithTheResult)
{
    const FlowSimResult r = runWithTelemetry(1e-5);
    ASSERT_NE(r.telemetry, nullptr);
    const FlowTelemetry &t = *r.telemetry;
    ASSERT_FALSE(t.windows.empty());

    // Integer totals reconcile exactly — every started flow lands in
    // exactly one window, ditto completions and failures.
    EXPECT_EQ(t.totalStarted(), r.started);
    EXPECT_EQ(t.totalCompleted(), r.completed);
    EXPECT_EQ(t.totalFailed(), r.failed);
    EXPECT_EQ(r.failed, 0);

    std::int64_t started = 0, completed = 0, failed = 0;
    double bytes = 0.0;
    for (const FlowTelemetry::Window &w : t.windows) {
        started += w.started;
        completed += w.completed;
        failed += w.failed;
        bytes += w.completed_bytes;
        EXPECT_GE(w.in_flight_end, 0);
    }
    EXPECT_EQ(started, r.started);
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(failed, r.failed);
    EXPECT_NEAR(bytes, r.completed_bytes,
                1e-9 * std::max(1.0, r.completed_bytes));

    // The window grid covers the whole run: the last completion is
    // inside the recorded span.
    EXPECT_GE(static_cast<double>(t.windows.size()) * t.window_s,
              r.duration_s);

    // Utilization is a fraction of derated capacity.
    for (std::size_t w = 0; w < t.windows.size(); ++w)
        for (std::size_t l = 0; l < t.link_capacity_bps.size(); ++l)
            EXPECT_GE(t.linkUtilization(w, l), 0.0);
}

TEST(FlowTelemetry, FaultedRunAccountsFailedFlowsInWindows)
{
    DcnTopology topo = DcnTopology::buildFatTree(32, 8, 200.0);
    const int edge = topo.edgeOf(0);
    const SwitchProfile profile = testProfile("t", 8);
    DcnWorkloadSpec spec = workloadByName("websearch");
    spec.flow_count = 3000;
    spec.load = 0.7;
    const auto flows = generateFlows(spec, 32, 200.0, 6);

    fault::DcnFaultSchedule faults;
    faults.killSwitch(flows[flows.size() / 3].arrival_s, edge);

    FlowSimConfig cfg;
    cfg.telemetry_window_s = 1e-5;
    const FlowSimResult r = simulateFlows(topo, profile, flows, faults, cfg);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_GT(r.failed, 0);
    // Failures reconcile through the same window accounting as
    // completions — a faulted run cannot silently leak flows.
    EXPECT_EQ(r.telemetry->totalStarted(), r.started);
    EXPECT_EQ(r.telemetry->totalCompleted(), r.completed);
    EXPECT_EQ(r.telemetry->totalFailed(), r.failed);
    EXPECT_EQ(r.telemetry->totalCompleted() +
                  r.telemetry->totalFailed(),
              r.telemetry->totalStarted());
}

TEST(FlowTelemetry, ResultsAreBitIdenticalWithTelemetryOnOrOff)
{
    // Watching the run must not change it: every behavioural field
    // compares with EXPECT_EQ, not NEAR.
    const FlowSimResult off = runWithTelemetry(0.0);
    const FlowSimResult on = runWithTelemetry(1e-5);
    EXPECT_EQ(off.telemetry, nullptr);
    ASSERT_NE(on.telemetry, nullptr);

    EXPECT_EQ(off.started, on.started);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.failed, on.failed);
    EXPECT_EQ(off.rerouted, on.rerouted);
    EXPECT_EQ(off.duration_s, on.duration_s);
    EXPECT_EQ(off.completed_bytes, on.completed_bytes);
    EXPECT_EQ(off.throughput_gbps, on.throughput_gbps);
    EXPECT_EQ(off.fct_avg_s, on.fct_avg_s);
    EXPECT_EQ(off.fct_max_s, on.fct_max_s);
    EXPECT_EQ(off.fct_p50_s, on.fct_p50_s);
    EXPECT_EQ(off.fct_p99_s, on.fct_p99_s);
    EXPECT_EQ(off.fct_p999_s, on.fct_p999_s);
    EXPECT_EQ(off.slowdown_avg, on.slowdown_avg);
    EXPECT_EQ(off.slowdown_p99, on.slowdown_p99);
    EXPECT_EQ(off.avg_hops, on.avg_hops);
}

TEST(FlowTelemetry, ResultsAreBitIdenticalWithFlightRecorderOnOrOff)
{
    // Same contract as the telemetry test, but for the flight
    // recorder: its per-batch SimEpoch marks must observe the run
    // without perturbing a single behavioural field.
    obs::FlightRecorder::resetForTesting();
    const FlowSimResult off = runWithTelemetry(0.0);

    obs::FlightRecorder::enable(256);
    obs::FlightRecorder::attachCurrentThread("flow-test");
    const FlowSimResult on = runWithTelemetry(0.0);
    const std::uint64_t epochs =
        obs::FlightRecorder::kindCount(obs::EventKind::SimEpoch);
    obs::FlightRecorder::detachCurrentThread();
    obs::FlightRecorder::resetForTesting();

    EXPECT_GT(epochs, 0u) << "recorder saw no flow-sim epoch marks";
    EXPECT_EQ(off.started, on.started);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.failed, on.failed);
    EXPECT_EQ(off.rerouted, on.rerouted);
    EXPECT_EQ(off.duration_s, on.duration_s);
    EXPECT_EQ(off.completed_bytes, on.completed_bytes);
    EXPECT_EQ(off.throughput_gbps, on.throughput_gbps);
    EXPECT_EQ(off.fct_avg_s, on.fct_avg_s);
    EXPECT_EQ(off.fct_max_s, on.fct_max_s);
    EXPECT_EQ(off.fct_p50_s, on.fct_p50_s);
    EXPECT_EQ(off.fct_p99_s, on.fct_p99_s);
    EXPECT_EQ(off.fct_p999_s, on.fct_p999_s);
    EXPECT_EQ(off.slowdown_avg, on.slowdown_avg);
    EXPECT_EQ(off.slowdown_p99, on.slowdown_p99);
    EXPECT_EQ(off.avg_hops, on.avg_hops);
}

TEST(FlowTelemetry, DumpCsvIsWellFormedLongFormat)
{
    const FlowSimResult r = runWithTelemetry(1e-5);
    ASSERT_NE(r.telemetry, nullptr);
    std::ostringstream os;
    r.telemetry->dumpCsv(os);

    std::istringstream in(os.str());
    std::string line;
    bool saw_header = false;
    std::map<std::string, int> kinds;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "record,window,scope,metric,value") {
            saw_header = true;
            continue;
        }
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4)
            << line;
        kinds[line.substr(0, line.find(','))]++;
    }
    EXPECT_TRUE(saw_header);
    EXPECT_GT(kinds["capacity"], 0);
    EXPECT_GT(kinds["window"], 0);
    EXPECT_GT(kinds["link"], 0);
    EXPECT_GT(kinds["total"], 0);
}

TEST(FlowTelemetry, NonPositiveWindowMeansNoTelemetry)
{
    const FlowSimResult r = runWithTelemetry(0.0);
    EXPECT_EQ(r.telemetry, nullptr);
}

} // namespace
} // namespace wss::flow
