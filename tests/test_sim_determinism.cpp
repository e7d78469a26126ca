/**
 * @file
 * Bit-exact determinism suite for the simulator core.
 *
 * The hot-path work (ring-buffer channels, flit pooling, active-set
 * scheduling, wake wheels, pending-VC lists) is only admissible
 * because it is behaviour-preserving. This suite pins that down:
 * every SimResult field — including the floating-point latency and
 * throughput statistics — must match golden values recorded from the
 * pre-optimization simulator, bit for bit, across the full matrix of
 * {uniform, transpose, tornado} x {mesh, clos} x {adaptive on/off}
 * x {low load, high load}, with observability off AND on. Paper-scale
 * rows (radix-256 routers with 16 VCs, and 80 VCs per port) add the
 * per-router allocation counters to the contract.
 *
 * A second invariant rides along: once the fabric reaches steady
 * state, the cycle loop performs no heap allocation at all (every
 * ring, pool, wheel and scratch vector has reached its high-water
 * mark or was reserved up front). A global operator new/delete
 * counting hook asserts a zero allocation delta across the
 * measurement window. The AddressSanitizer preset excludes the
 * ZeroAllocation test (ASan interposes the allocator) and runs the
 * golden matrix under heap checking instead.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "power/ssc.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

// --- Global allocation counter -------------------------------------
//
// Replaces the global allocation functions for this test binary only.
// The counter is monotone (frees are not subtracted): the invariant
// under test is "no allocation happens", not "allocation is
// balanced", and a monotone counter cannot be fooled by a
// free-then-alloc pair inside one cycle.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace wss::sim {
namespace {

/// One cell of the golden matrix. The doubles are hexadecimal float
/// literals (exact), recorded with tools equivalent to
/// std::printf("%a", ...) against the pre-optimization core.
struct GoldenRow
{
    const char *pattern;
    const char *topo;
    bool adaptive;
    double load;
    double avg_packet_latency;
    double p99_packet_latency;
    double avg_network_latency;
    double avg_hops;
    double accepted;
    std::int64_t packets_measured;
    std::int64_t packets_finished;
    bool stable;
    std::int64_t end_cycle;
    std::int64_t flits_delivered;
    std::int64_t flits_injected;
};

constexpr GoldenRow kGolden[] = {
    {"uniform", "mesh", false, 0x1.999999999999ap-4,
     0x1.0e301b7d6c3d8p+4, 0x1.9p+4,
     0x1.fa93c225cc74dp+3, 0x1.0af3f920a4f03p+1,
     0x1.9735ee402bb0dp-4,
     1192, 1192, true, 1815, 2860, 2860},
    {"uniform", "mesh", false, 0x1.6666666666666p-1,
     0x0p+0, 0x0p+0,
     0x0p+0, 0x0p+0,
     0x0p+0,
     8418, 0, false, 11800, 316, 476},
    {"uniform", "clos", false, 0x1.999999999999ap-4,
     0x1.35a338b2af3fdp+4, 0x1.8p+4,
     0x1.24bcfe48293cp+4, 0x1.4e63a6a860368p+1,
     0x1.96b2dbd194238p-4,
     1192, 1192, true, 1820, 2860, 2860},
    {"uniform", "clos", false, 0x1.6666666666666p-1,
     0x1.7d10f82769a5dp+7, 0x1.bap+8,
     0x1.c71b4f2125e2bp+4, 0x1.4e08e148ecf74p+1,
     0x1.370a3d70a3d71p-1,
     8418, 8418, true, 2216, 20172, 20172},
    {"transpose", "mesh", false, 0x1.999999999999ap-4,
     0x1.1ec3dda338b2ap+4, 0x1.9p+4,
     0x1.0e112e63a6a87p+4, 0x1.286036fad87bfp+1,
     0x1.317e4b17e4b18p-4,
     894, 894, true, 1819, 2142, 2142},
    {"transpose", "mesh", false, 0x1.6666666666666p-1,
     0x1.1009c09c09c08p+4, 0x1.5p+4,
     0x1.ep+3, 0x1p+1,
     0x1.68b4395810625p-3,
     6315, 2100, false, 11800, 5178, 5274},
    {"transpose", "clos", false, 0x1.999999999999ap-4,
     0x1.537d6c3dda33bp+4, 0x1.8p+4,
     0x1.42cabcfe48291p+4, 0x1.8p+1,
     0x1.31d5acb6f4651p-4,
     894, 894, true, 1821, 2142, 2142},
    {"transpose", "clos", false, 0x1.6666666666666p-1,
     0x1.06078a46c7b18p+6, 0x1.54p+7,
     0x1.bbd3bb68b5f06p+4, 0x1.8p+1,
     0x1.05ddddddddddep-1,
     6315, 6315, true, 1969, 15202, 15202},
    {"tornado", "mesh", false, 0x1.999999999999ap-4,
     0x1.12f80c0975254p+4, 0x1.8p+4,
     0x1.0229b30cae892p+4, 0x1.0fcc69c0ce589p+1,
     0x1.97e4b17e4b17ep-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "mesh", false, 0x1.6666666666666p-1,
     0x1.029d3ca31dbabp+11, 0x1.8f6p+12,
     0x1.95c948a94f772p+4, 0x1.0fcdf5bca7025p+1,
     0x1.18ca11bfd44f3p-2,
     8431, 8431, true, 7945, 20296, 20296},
    {"tornado", "clos", false, 0x1.999999999999ap-4,
     0x1.546808990a88ap+4, 0x1.8p+4,
     0x1.4399af9c43ec7p+4, 0x1.8p+1,
     0x1.9810624dd2f1bp-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "clos", false, 0x1.6666666666666p-1,
     0x1.090c254982f4fp+8, 0x1.29p+9,
     0x1.eb7e29b866bf9p+4, 0x1.8p+1,
     0x1.24f3078263ab6p-1,
     8431, 8431, true, 2383, 20296, 20296},
    {"uniform", "mesh", true, 0x1.999999999999ap-4,
     0x1.0dbb4671655e7p+4, 0x1.8p+4,
     0x1.f9aa180dbeb67p+3, 0x1.0af3f920a4f0ap+1,
     0x1.96de8ca11bfd4p-4,
     1192, 1192, true, 1815, 2860, 2860},
    {"uniform", "mesh", true, 0x1.6666666666666p-1,
     0x0p+0, 0x0p+0,
     0x0p+0, 0x0p+0,
     0x0p+0,
     8418, 0, false, 11800, 227, 419},
    {"uniform", "clos", true, 0x1.999999999999ap-4,
     0x1.35a338b2af402p+4, 0x1.8p+4,
     0x1.24bcfe48293bep+4, 0x1.4e63a6a860367p+1,
     0x1.970a3d70a3d71p-4,
     1192, 1192, true, 1820, 2860, 2860},
    {"uniform", "clos", true, 0x1.6666666666666p-1,
     0x1.cf865b1c86892p+6, 0x1.14p+8,
     0x1.d393400bad87ap+4, 0x1.4e08e148ecf58p+1,
     0x1.4d3490b9af72p-1,
     8418, 8418, true, 2081, 20172, 20172},
    {"transpose", "mesh", true, 0x1.999999999999ap-4,
     0x1.1dda338b2af3cp+4, 0x1.8p+4,
     0x1.0d27844b98eap+4, 0x1.286036fad87cp+1,
     0x1.317e4b17e4b18p-4,
     894, 894, true, 1819, 2142, 2142},
    {"transpose", "mesh", true, 0x1.6666666666666p-1,
     0x0p+0, 0x0p+0,
     0x0p+0, 0x0p+0,
     0x0p+0,
     6315, 0, false, 11800, 480, 640},
    {"transpose", "clos", true, 0x1.999999999999ap-4,
     0x1.52816e884de3p+4, 0x1.8p+4,
     0x1.41cebf48bbd91p+4, 0x1.8p+1,
     0x1.31a9fbe76c8b4p-4,
     894, 894, true, 1819, 2142, 2142},
    {"transpose", "clos", true, 0x1.6666666666666p-1,
     0x1.51684e2875141p+5, 0x1.a8p+6,
     0x1.a6d88e5ef0e1bp+4, 0x1.8p+1,
     0x1.0b7fa89e60f05p-1,
     6315, 6315, true, 1875, 15202, 15202},
    {"tornado", "mesh", true, 0x1.999999999999ap-4,
     0x1.11ebcb8da626dp+4, 0x1.8p+4,
     0x1.011a022642a2ap+4, 0x1.0fcc69c0ce58ap+1,
     0x1.97e4b17e4b17ep-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "mesh", true, 0x1.6666666666666p-1,
     0x1.374f997d9dcd7p+11, 0x1.6cdp+12,
     0x1.89b95f7ec52efp+4, 0x1.0fcdf5bca700bp+1,
     0x1.b194237fa89e6p-3,
     8431, 8431, true, 7370, 20296, 20296},
    {"tornado", "clos", true, 0x1.999999999999ap-4,
     0x1.532831de09e2dp+4, 0x1.8p+4,
     0x1.4259d8e14346dp+4, 0x1.8p+1,
     0x1.9810624dd2f1bp-4,
     1191, 1191, true, 1819, 2844, 2844},
    {"tornado", "clos", true, 0x1.6666666666666p-1,
     0x1.351ef0e8b5f18p+7, 0x1.51p+8,
     0x1.e26d5f217ddbfp+4, 0x1.8p+1,
     0x1.4322d0e560419p-1,
     8431, 8431, true, 2128, 20296, 20296},
};

/// Per-router instrument values of one run with observability on.
struct RouterCounters
{
    std::uint64_t vc_alloc_failures;
    std::uint64_t sa_conflicts;
    std::uint64_t credit_stalls;
    std::uint64_t flits_routed;
};

/// A golden row at the scale the paper simulates, plus every router's
/// allocation counters (observability on).
struct ScaleRow
{
    GoldenRow result;
    std::vector<RouterCounters> routers;
};

/**
 * Rows past the radix-8 matrix, recorded before the switch- and
 * VC-allocation rewrite:
 *  - "th5clos": the 256-port folded Clos of TH-5 chiplets (radix-256
 *    routers, 16 VCs, the `wss` CLI's fabric timings), 4-flit
 *    packets, at low load and saturated, oblivious and adaptive;
 *  - "clos-vc80": the matrix's radix-8 Clos with 80 VCs per port and
 *    a 64-flit buffer, so output-VC state spans two 64-bit words.
 */
const ScaleRow kScaleGolden[] = {
    {{"uniform", "th5clos", false, 0x1.999999999999ap-4,
      0x1.54d3038f5f79ap+5, 0x1.d8p+5,
      0x1.3ba2ca9967e43p+5, 0x1.fd2b0b53d2b01p+0,
      0x1.92fdf3b645a1dp-4,
      6328, 6328, true, 1354, 33080, 33080},
     {{0, 2168, 0, 24624},
      {0, 1999, 0, 24748},
      {0, 819, 0, 16292}}},
    {{"uniform", "th5clos", false, 0x1.ccccccccccccdp-1,
      0x1.50073fc736ae8p+8, 0x1.3f8p+9,
      0x1.16ba30328a363p+7, 0x1.003683d0b9b0cp+1,
      0x1.598p-1,
      57704, 57704, true, 1949, 299500, 299500},
     {{68923, 121462, 543, 224152},
      {67912, 122789, 561, 225540},
      {0, 35834, 0, 150192}}},
    {{"uniform", "th5clos", true, 0x1.999999999999ap-4,
      0x1.54193e7673dccp+5, 0x1.d8p+5,
      0x1.3ae905807c479p+5, 0x1.fd2b0b53d2afdp+0,
      0x1.92f9db22d0e56p-4,
      6328, 6328, true, 1354, 33080, 33080},
     {{0, 1926, 0, 24624},
      {0, 1856, 0, 24748},
      {0, 310, 0, 16292}}},
    {{"uniform", "th5clos", true, 0x1.ccccccccccccdp-1,
      0x1.4a60c358569dbp+8, 0x1.388p+9,
      0x1.13175f02bb9d3p+7, 0x1.003683d0b9b14p+1,
      0x1.5b0083126e979p-1,
      57704, 57704, true, 1951, 299500, 299500},
     {{58173, 122986, 774, 224152},
      {59032, 122784, 807, 225540},
      {0, 32111, 0, 150192}}},
    {{"uniform", "clos-vc80", false, 0x1.6666666666666p-1,
      0x1.f84b2d11b2fe9p+5, 0x1.72p+7,
      0x1.e61ae222e96fcp+5, 0x1.4e08e148ecf69p+1,
      0x1.615810624dd2fp-1,
      8418, 8418, true, 1909, 20172, 20172},
     {{0, 4231, 0, 9220},
      {0, 3865, 0, 8712},
      {0, 4366, 0, 9296},
      {0, 4264, 0, 9150},
      {0, 3099, 0, 8020},
      {0, 3300, 0, 8186}}},
};

/// Rebuild the exact fabric + workload a golden row was recorded
/// with and run it.
SimResult
runGoldenConfig(const GoldenRow &row, bool observe)
{
    const std::string topo_name = row.topo;
    NetworkSpec spec;
    spec.vcs = 4;
    spec.buffer_per_port = 8;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 1;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    spec.internal_link_latency = 2;
    spec.adaptive_routing = row.adaptive;
    int terminals = 16;
    int packet_flits = 2;
    topology::LogicalTopology topo =
        topo_name == "mesh"
            ? topology::buildMesh(2, 2, power::scaledSsc(8, 200.0))
            : topology::buildFoldedClos(
                  {16, power::scaledSsc(8, 200.0), 1});
    if (topo_name == "th5clos") {
        terminals = 256;
        packet_flits = 4;
        topo = topology::buildFoldedClos({256, power::tomahawk5(1), 1});
        spec.vcs = 16;
        spec.buffer_per_port = 64;
        spec.rc_delay_ingress = 2;
        spec.rc_delay_transit = 2;
        spec.pipeline_delay = 9;
        spec.terminal_link_latency = 8;
        spec.internal_link_latency = 1;
    } else if (topo_name == "clos-vc80") {
        spec.vcs = 80;
        spec.buffer_per_port = 64;
    }

    Network net(topo, spec, 7);
    SyntheticWorkload workload(makeTraffic(row.pattern, terminals),
                               row.load, packet_flits);
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = terminals > 16 ? 1000 : 1500;
    cfg.drain_limit = 10000;
    cfg.seed = 42;
    cfg.observe = observe;
    Simulator simulator(net, workload, cfg);
    return simulator.run();
}

void
expectMatchesGolden(const SimResult &r, const GoldenRow &row)
{
    SCOPED_TRACE(std::string(row.pattern) + "/" + row.topo +
                 (row.adaptive ? "/adaptive" : "/oblivious") +
                 "/load=" + std::to_string(row.load));
    // EXPECT_EQ on doubles is deliberate: the contract is bit-exact
    // reproduction, not closeness.
    EXPECT_EQ(r.avg_packet_latency, row.avg_packet_latency);
    EXPECT_EQ(r.p99_packet_latency, row.p99_packet_latency);
    EXPECT_EQ(r.avg_network_latency, row.avg_network_latency);
    EXPECT_EQ(r.avg_hops, row.avg_hops);
    EXPECT_EQ(r.accepted, row.accepted);
    EXPECT_EQ(r.packets_measured, row.packets_measured);
    EXPECT_EQ(r.packets_finished, row.packets_finished);
    EXPECT_EQ(r.stable, row.stable);
    EXPECT_EQ(r.end_cycle, row.end_cycle);
    EXPECT_EQ(r.flits_delivered, row.flits_delivered);
    EXPECT_EQ(r.flits_injected, row.flits_injected);
}

TEST(SimDeterminism, MatchesGoldenMatrix)
{
    for (const GoldenRow &row : kGolden)
        expectMatchesGolden(runGoldenConfig(row, false), row);
}

TEST(SimDeterminism, ObservabilityNeverPerturbsResults)
{
    // The full matrix again with instruments attached: every counter
    // bump and histogram record must leave the simulated behaviour
    // untouched.
    for (const GoldenRow &row : kGolden) {
        const SimResult r = runGoldenConfig(row, true);
        expectMatchesGolden(r, row);
        ASSERT_NE(r.observation, nullptr);
    }
}

TEST(SimDeterminism, MatchesPaperScaleGoldens)
{
    for (const ScaleRow &row : kScaleGolden)
        expectMatchesGolden(runGoldenConfig(row.result, false),
                            row.result);
}

TEST(SimDeterminism, PaperScaleRouterCountersMatchGoldens)
{
    // Observability on: the results again, and every router's
    // allocation counters, whose counting the allocators own.
    for (const ScaleRow &row : kScaleGolden) {
        const SimResult r = runGoldenConfig(row.result, true);
        expectMatchesGolden(r, row.result);
        ASSERT_NE(r.observation, nullptr);
        const obs::MetricsRegistry &reg = r.observation->registry;
        ASSERT_EQ(r.observation->routers, row.routers.size());
        for (std::size_t i = 0; i < row.routers.size(); ++i) {
            SCOPED_TRACE(std::string(row.result.topo) + " router " +
                         std::to_string(i));
            const std::string p = "r" + std::to_string(i) + ".";
            const RouterCounters &want = row.routers[i];
            EXPECT_EQ(reg.counterValue(p + "vc_alloc_failures"),
                      want.vc_alloc_failures);
            EXPECT_EQ(reg.counterValue(p + "sa_conflicts"),
                      want.sa_conflicts);
            EXPECT_EQ(reg.counterValue(p + "credit_stalls"),
                      want.credit_stalls);
            EXPECT_EQ(reg.counterValue(p + "flits_routed"),
                      want.flits_routed);
        }
    }
}

TEST(SimDeterminism, FreeVcSearchMatchesALinearScan)
{
    // VA's bitmask search against the scan it replaced, on random
    // masks at VC counts below, at and across 64-bit word boundaries
    // (in this suite so the sanitizer build checks its bit indexing).
    Rng rng(11);
    for (const int vcs : {1, 5, 16, 63, 64, 65, 80, 128, 200}) {
        const std::size_t words = (static_cast<std::size_t>(vcs) + 63) / 64;
        for (int trial = 0; trial < 200; ++trial) {
            // Sparse, dense, empty and full masks.
            const int density = trial % 5;
            std::vector<std::uint64_t> mask(words, 0);
            for (int v = 0; v < vcs; ++v)
                if (density == 4 ||
                    (density > 0 &&
                     static_cast<int>(rng.nextBelow(4)) < density))
                    mask[static_cast<std::size_t>(v) >> 6] |=
                        std::uint64_t{1} << (v & 63);
            for (int from = 0; from < vcs; ++from) {
                int want = -1;
                for (int i = 0; i < vcs && want < 0; ++i) {
                    const int v = (from + i) % vcs;
                    if (mask[static_cast<std::size_t>(v) >> 6] >>
                            (v & 63) &
                        1)
                        want = v;
                }
                ASSERT_EQ(findFreeVc(mask.data(), vcs, from), want)
                    << "vcs " << vcs << " from " << from;
            }
        }
    }
}

/// Count heap allocations between cycles 800 and 1800 of a stable
/// low-load run on @p topo and expect none.
void
expectSteadyStateAllocFree(const topology::LogicalTopology &topo,
                           const NetworkSpec &spec, int terminals,
                           int packet_flits)
{
    Network net(topo, spec, 7);
    SyntheticWorkload workload(makeTraffic("uniform", terminals), 0.1,
                               packet_flits);
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.drain_limit = 10000;
    cfg.seed = 42;
    std::uint64_t at_steady = 0;
    std::uint64_t at_window_end = 0;
    cfg.on_cycle = [&](Network &, Cycle now) {
        if (now == 800)
            at_steady = allocCount();
        if (now == 1800)
            at_window_end = allocCount();
    };
    Simulator simulator(net, workload, cfg);
    const SimResult r = simulator.run();

    ASSERT_TRUE(r.stable);
    ASSERT_GT(at_steady, 0u);
    ASSERT_GE(at_window_end, at_steady);
    EXPECT_EQ(at_window_end - at_steady, 0u)
        << "the cycle loop heap-allocated "
        << (at_window_end - at_steady)
        << " times between cycles 800 and 1800";
}

TEST(SimDeterminismZeroAllocation, SteadyStateCycleLoopIsAllocFree)
{
    // A stable low-load run: by mid-measurement every pool, ring,
    // wheel and scratch vector has hit its high-water mark, so the
    // cycle loop must run entirely allocation-free from there to the
    // end of the measurement window. Once on the radix-8 mesh, once
    // on the 256-port Clos of radix-256, 16-VC routers, where the
    // switch- and VC-allocation state is sized by ports and VCs.
    NetworkSpec spec;
    spec.vcs = 4;
    spec.buffer_per_port = 8;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 1;
    spec.pipeline_delay = 2;
    spec.terminal_link_latency = 3;
    spec.internal_link_latency = 2;
    {
        SCOPED_TRACE("mesh 2x2, radix 8, 4 VCs");
        expectSteadyStateAllocFree(
            topology::buildMesh(2, 2, power::scaledSsc(8, 200.0)), spec,
            16, 2);
    }

    spec.vcs = 16;
    spec.buffer_per_port = 64;
    spec.rc_delay_transit = 2;
    spec.pipeline_delay = 9;
    spec.terminal_link_latency = 8;
    spec.internal_link_latency = 1;
    {
        SCOPED_TRACE("folded Clos, 256 ports, radix 256, 16 VCs");
        expectSteadyStateAllocFree(
            topology::buildFoldedClos({256, power::tomahawk5(1), 1}),
            spec, 256, 4);
    }
}

} // namespace
} // namespace wss::sim
