/**
 * @file
 * The benchmark's own tests: digests are reproducible (same seed
 * twice, 1 vs 4 workers) and seed-sensitive, the stall check tells a
 * deadlocked mesh from a saturated but live Clos, and span self
 * times partition their root.
 *
 * Run with `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "sim/load_sweep.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "span_recorder.hpp"
#include "stall_watch.hpp"
#include "topology/clos.hpp"
#include "topology/mesh.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::uint64_t
digestOf(const std::string &workload, std::uint64_t seed, int workers,
         int iterations = 1)
{
    wss::exec::ThreadPool pool(workers);
    Context ctx;
    ctx.seed = seed;
    ctx.pool = &pool;
    std::unique_ptr<Workload> w = makeWorkload(workload);
    w->setup(ctx);
    std::uint64_t digest = 0;
    for (int i = 0; i < iterations; ++i) {
        const IterationResult r = w->iterate(ctx);
        EXPECT_TRUE(r.check_failures.empty())
            << workload << ": " << r.check_failures.front();
        EXPECT_GT(r.attempted, 0);
        if (i > 0) {
            EXPECT_EQ(r.digest, digest) << workload << " iteration " << i;
        }
        digest = r.digest;
    }
    return digest;
}

class WorkloadDigest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDigest, SameSeedSameDigestAtAnyWorkerCount)
{
    const std::uint64_t four = digestOf(GetParam(), 7, 4, 2);
    EXPECT_EQ(digestOf(GetParam(), 7, 4), four);
    EXPECT_EQ(digestOf(GetParam(), 7, 1), four);
}

TEST_P(WorkloadDigest, DifferentSeedChangesDigest)
{
    EXPECT_NE(digestOf(GetParam(), 7, 4), digestOf(GetParam(), 8, 4));
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadDigest,
                         ::testing::Values("fabric", "dcn", "coll"));

TEST(Workloads, UnknownNameIsRejected)
{
    EXPECT_EQ(makeWorkload("fabrik"), nullptr);
}

/// Run one uniform-traffic point under a StallWatch; returns the
/// cycle it was flagged at (-1 = live) and the run's result.
wss::sim::Cycle
watchPoint(const wss::topology::LogicalTopology &topo,
           const wss::sim::NetworkSpec &spec, double rate, int packet_flits,
           wss::sim::SimResult *result)
{
    StallWatch watch(StallWatch::windowFor(spec));
    wss::sim::SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1000;
    cfg.drain_limit = 2000;
    cfg.seed = 1;
    cfg.on_cycle = watch.hook();
    StallWatch::setCurrentPoint(0);
    const int terminals = static_cast<int>(topo.totalExternalPorts());
    wss::sim::runLoadPoint(
        [&] { return std::make_unique<wss::sim::Network>(topo, spec, 1); },
        [&](double r) {
            return std::make_unique<wss::sim::SyntheticWorkload>(
                wss::sim::uniformTraffic(terminals), r, packet_flits);
        },
        rate, cfg, result);
    return watch.stalledAt(0);
}

TEST(StallWatch, FlagsTheDeadlockedMesh)
{
    const auto mesh = wss::topology::buildMesh(
        4, 4, wss::power::scaledSsc(16, 200.0));
    wss::sim::SimResult r;
    EXPECT_GE(watchPoint(mesh, meshFabricSpec(), 0.20, 1, &r), 0);
    // Frozen: next to nothing is accepted in the measure window.
    EXPECT_LT(r.accepted, 0.01);
    EXPECT_EQ(watchPoint(mesh, meshFabricSpec(), 0.10, 1, &r), -1);
}

TEST(StallWatch, DoesNotFlagASaturatedLiveClos)
{
    const auto clos = wss::topology::buildFoldedClos(
        {256, wss::power::tomahawk5(1), 1});
    wss::sim::SimResult r;
    EXPECT_EQ(watchPoint(clos, cliFabricSpec(), 0.9, 4, &r), -1);
    // Saturated: it accepts clearly less than is offered.
    EXPECT_LT(r.accepted, 0.9 * r.offered);
    EXPECT_GT(r.accepted, 0.0);
}

TEST(SpanRecorder, SelfTimesPartitionTheRoot)
{
    SpanRecorder rec(1);
    int root = 0;
    {
        ScopedSpan r(&rec, "bench.run");
        root = r.index();
        {
            ScopedSpan a(&rec, "sim.run");
            ScopedSpan b(&rec, "sim.build");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ScopedSpan c(&rec, "flow.simulate");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    double sum = 0.0;
    for (const auto &[name, self] : rec.selfByName(root)) {
        EXPECT_GE(self, 0.0) << name;
        sum += self;
    }
    const Span &r = rec.spans()[static_cast<std::size_t>(root)];
    EXPECT_NEAR(sum, r.end_s - r.start_s, 1e-12);
    EXPECT_EQ(rec.spans()[2].parent, 1); // sim.build under sim.run
    const Span &outer = rec.spans()[1];
    EXPECT_LE(rec.selfSeconds(1), outer.end_s - outer.start_s);
    EXPECT_GE(rec.selfByName(root).at("sim.build"), 0.002);
}

TEST(SpanRecorder, NullRecorderIsANoOp)
{
    ScopedSpan s(nullptr, "sim.run");
    EXPECT_EQ(s.index(), -1);
}

} // namespace
