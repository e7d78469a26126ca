/**
 * @file
 * google-benchmark microbenchmarks for the heavy inner loops: the
 * pairwise-exchange mapping search and the cycle-accurate router —
 * performance regressions here directly inflate every figure bench.
 */

#include <benchmark/benchmark.h>

#include <bit>

#include "mapping/pairwise_exchange.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "power/ssc.hpp"
#include "sim/simulator.hpp"
#include "topology/clos.hpp"
#include "util/ring_queue.hpp"

namespace {

using namespace wss;

void
BM_MappingSearch(benchmark::State &state)
{
    const std::int64_t ports = state.range(0);
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});
    const int rows = static_cast<int>(
        std::ceil(std::sqrt(topo.nodeCount())));
    const int cols = (topo.nodeCount() + rows - 1) / rows;
    const mapping::WaferFloorplan fp(rows, cols, true, 28.284);
    Rng rng(1);
    for (auto _ : state) {
        const auto result =
            mapping::searchBestMapping(topo, fp, true, rng, 1);
        benchmark::DoNotOptimize(result.max_edge_load);
    }
    state.SetLabel(std::to_string(topo.nodeCount()) + " chiplets");
}
BENCHMARK(BM_MappingSearch)->Arg(1024)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void
BM_IncrementalSwap(benchmark::State &state)
{
    const auto topo =
        topology::buildFoldedClos({8192, power::tomahawk5(1), 1});
    const mapping::WaferFloorplan fp(10, 10, true, 28.284);
    mapping::WaferMapping wm(topo, fp, true);
    Rng rng(2);
    wm.assignRandom(rng);
    int a = 0;
    for (auto _ : state) {
        const int b =
            static_cast<int>(rng.nextBelow(topo.nodeCount()));
        if (a != b)
            wm.swapNodes(a, b);
        benchmark::DoNotOptimize(wm.maxEdgeLoad());
        a = b;
    }
}
BENCHMARK(BM_IncrementalSwap);

void
BM_RouterCycleThroughput(benchmark::State &state)
{
    // Flit-forwarding throughput of the 2048-port fabric at 50% load:
    // items processed = simulated cycles.
    const auto topo =
        topology::buildFoldedClos({2048, power::tomahawk5(3), 1});
    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 32;
    spec.pipeline_delay = 9;
    spec.terminal_link_latency = 8;
    sim::Network net(topo, spec, 3);
    sim::SyntheticWorkload workload(sim::uniformTraffic(2048), 0.5, 1);
    Rng rng(4);
    sim::Cycle now = 0;
    std::vector<util::RingQueue<sim::Flit>> source(2048);
    for (auto _ : state) {
        workload.generate(now, rng, [&](int src, int dst, int flits) {
            for (int i = 0; i < flits; ++i) {
                sim::Flit flit;
                flit.dst = dst;
                flit.head = i == 0;
                flit.tail = i == flits - 1;
                flit.vc = 0;
                source[src].push_back(flit);
            }
        });
        for (int t = 0; t < 2048; ++t) {
            if (!source[t].empty() &&
                net.tryInject(t, now, source[t].front()))
                source[t].pop_front();
            benchmark::DoNotOptimize(net.eject(t, now));
        }
        net.step(now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterCycleThroughput)->Unit(benchmark::kMicrosecond);

void
BM_RouterCycleThroughputObserved(benchmark::State &state)
{
    // Same fabric and load as BM_RouterCycleThroughput, but through
    // the Simulator with observability on — compare against the
    // un-instrumented variant to see the cost of live counters and
    // per-cycle occupancy histograms (the "obs on" price).
    const auto topo =
        topology::buildFoldedClos({2048, power::tomahawk5(3), 1});
    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 32;
    spec.pipeline_delay = 9;
    spec.terminal_link_latency = 8;
    sim::Network net(topo, spec, 3);
    sim::SyntheticWorkload workload(sim::uniformTraffic(2048), 0.5, 1);
    obs::MetricsRegistry registry;
    net.instrument(registry);
    Rng rng(4);
    sim::Cycle now = 0;
    std::vector<util::RingQueue<sim::Flit>> source(2048);
    for (auto _ : state) {
        workload.generate(now, rng, [&](int src, int dst, int flits) {
            for (int i = 0; i < flits; ++i) {
                sim::Flit flit;
                flit.dst = dst;
                flit.head = i == 0;
                flit.tail = i == flits - 1;
                flit.vc = 0;
                source[src].push_back(flit);
            }
        });
        for (int t = 0; t < 2048; ++t) {
            if (!source[t].empty() &&
                net.tryInject(t, now, source[t].front()))
                source[t].pop_front();
            benchmark::DoNotOptimize(net.eject(t, now));
        }
        net.step(now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterCycleThroughputObserved)
    ->Unit(benchmark::kMicrosecond);

void
BM_ChannelPushPop(benchmark::State &state)
{
    // The ring-buffer DelayLine at full occupancy: one push + one
    // pop per simulated cycle, the per-hop cost floor of every flit.
    sim::DelayLine<sim::Flit> line(8);
    sim::Flit flit;
    sim::Cycle now = 0;
    for (now = 0; now < 8; ++now)
        line.push(now, flit);
    for (auto _ : state) {
        auto out = line.pop(now);
        benchmark::DoNotOptimize(out);
        line.push(now, flit);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop);

void
BM_RouterStepIdle(benchmark::State &state)
{
    // Stepping a fabric with nothing in flight. With the active-set
    // scheduler this is O(1) in fabric size — no router has pending
    // work, so none is stepped — which is what keeps low-load and
    // drain phases cheap.
    const auto topo =
        topology::buildFoldedClos({2048, power::tomahawk5(3), 1});
    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 32;
    sim::Network net(topo, spec, 3);
    sim::Cycle now = 0;
    for (auto _ : state) {
        net.step(now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::to_string(net.routerCount()) + " routers");
}
BENCHMARK(BM_RouterStepIdle);

void
BM_InjectSparse(benchmark::State &state)
{
    // One busy terminal out of 2048: the injection/ejection sweeps
    // and the router active set should scale with traffic, not with
    // terminal count.
    const auto topo =
        topology::buildFoldedClos({2048, power::tomahawk5(3), 1});
    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 32;
    sim::Network net(topo, spec, 3);
    sim::Flit flit;
    flit.dst = 1;
    flit.head = true;
    flit.tail = true;
    sim::Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.tryInject(0, now, flit));
        const auto &pending = net.ejectPending();
        for (std::size_t w = 0; w < pending.size(); ++w) {
            std::uint64_t word = pending[w];
            while (word) {
                const int t = static_cast<int>(w) * 64 +
                              std::countr_zero(word);
                word &= word - 1;
                benchmark::DoNotOptimize(net.eject(t, now));
            }
        }
        net.step(now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InjectSparse);

void
BM_CounterHandleDisabled(benchmark::State &state)
{
    // The <=1%-overhead contract rests on this: bumping a detached
    // (default-constructed) counter must cost one predicted branch.
    obs::Counter counter;
    std::uint64_t i = 0;
    for (auto _ : state) {
        counter.inc(i++ & 1);
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterHandleDisabled);

void
BM_CounterHandleEnabled(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Counter counter = registry.counter("bench");
    std::uint64_t i = 0;
    for (auto _ : state) {
        counter.inc(i++ & 1);
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterHandleEnabled);

void
BM_ProfilerScopeDisabled(benchmark::State &state)
{
    // Same contract as the detached counter: a ScopedPhase on a null
    // profiler must cost one predicted branch each way, so hot loops
    // can stay instrumented unconditionally.
    for (auto _ : state) {
        obs::ScopedPhase phase(nullptr, "bench");
        benchmark::DoNotOptimize(&phase);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerScopeDisabled);

void
BM_ProfilerScopeEnabled(benchmark::State &state)
{
    obs::Profiler profiler;
    for (auto _ : state) {
        obs::ScopedPhase phase(&profiler, "bench");
        benchmark::DoNotOptimize(&phase);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerScopeEnabled);

void
BM_FlightRecorderDisabled(benchmark::State &state)
{
    // The recorder's null-handle contract: with no ring attached to
    // this thread, recordEvent is one predicted branch, so campaign
    // and simulator call sites stay instrumented unconditionally.
    // tools/check.sh gates the disabled/enabled ratio at >= 10x.
    std::int64_t i = 0;
    for (auto _ : state) {
        obs::recordEvent(obs::EventKind::SimEpoch, i++, 0);
        benchmark::DoNotOptimize(i);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderDisabled);

void
BM_FlightRecorderEnabled(benchmark::State &state)
{
    obs::FlightRecorder::enable();
    obs::FlightRecorder::attachCurrentThread("bench");
    std::int64_t i = 0;
    for (auto _ : state) {
        obs::recordEvent(obs::EventKind::SimEpoch, i++, 0, "bench");
        benchmark::DoNotOptimize(i);
    }
    state.SetItemsProcessed(state.iterations());
    obs::FlightRecorder::detachCurrentThread();
    obs::FlightRecorder::resetForTesting();
}
BENCHMARK(BM_FlightRecorderEnabled);

} // namespace

BENCHMARK_MAIN();
