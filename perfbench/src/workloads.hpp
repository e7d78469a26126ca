/**
 * @file
 * The benchmark's three workloads, each driving the wss libraries
 * through the same public entry points the `wss` subcommands call.
 *
 *   fabric  exec::SweepRunner load sweeps on the cycle-accurate
 *           simulator (Clos uniform/ECMP, Clos transpose/adaptive, a
 *           larger Clos, the Fig. 25 4x4 mesh).
 *   dcn     one flow::DcnCampaign, solver-sized waferscale switch vs
 *           the conv-64 leaf-spine at 256 hosts.
 *   coll    one coll::CollCampaign at 512 ranks with the program's
 *           observability on, a mid-collective spine kill through
 *           coll::executeOnDcn and a coll::executeOnFabric replay.
 *
 * A workload is set up once (setup()), then iterated; every iteration
 * repeats the same simulations and must produce the same digest.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "span_recorder.hpp"

namespace perfbench {

struct Context
{
    std::uint64_t seed = 1;
    /// Worker pool shared by every parallel layer call.
    wss::exec::ThreadPool *pool = nullptr;
    /// The benchmark's own trace; null in untraced runs.
    SpanRecorder *spans = nullptr;
    /// coll: run with the program's own observability (metrics,
    /// trace sink, profiler, telemetry, flight recorder) attached.
    /// Once the flight recorder is on it stays on for the process.
    bool program_obs = true;
};

/// What one iteration measured.
struct IterationResult
{
    /// Host seconds of the timed simulation calls.
    double wall_s = 0.0;
    /// Operations attempted / failed (a fabric point, a DCN cell or a
    /// collective execution), and output checks that did not hold.
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> check_failures;
    /// Cycle-accurate simulator work and the host seconds of its runs
    /// (0 when the workload runs none in its timed calls).
    double sim_flits = 0.0;
    double sim_seconds = 0.0;
    /// Flows or messages finished by the flow engine and the host
    /// seconds of those runs (for coll, the calls the program's
    /// observability instruments).
    double flows = 0.0;
    double flow_seconds = 0.0;
    /// Behaviour digest over every simulated result field.
    std::uint64_t digest = 0;
    /// Per-layer values computed from program outputs, keyed by
    /// per-layer metric name.
    std::map<std::string, double> layer;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /// Everything before the first timed simulation call.
    virtual void setup(const Context &ctx) = 0;
    virtual IterationResult iterate(const Context &ctx) = 0;
};

/// "fabric", "dcn" or "coll"; null for any other name.
std::unique_ptr<Workload> makeWorkload(const std::string &name);

std::unique_ptr<Workload> makeFabricWorkload();
std::unique_ptr<Workload> makeDcnWorkload();
std::unique_ptr<Workload> makeCollWorkload();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
