/**
 * @file
 * Experiment campaigns: many heterogeneous jobs, one pool, one
 * artifact — the one executor of simulator load points.
 *
 * A Campaign batches sweep jobs (full latency-vs-load curves) and
 * generic timed tasks (e.g. radix-solver design points) in a single
 * invocation. All cells of all jobs are flattened into one
 * parallelFor, so a short job cannot leave the pool idle while a
 * long one finishes. Campaign::run is the only place that schedules,
 * times, traces, profiles and liveness-marks a load point;
 * exec::SweepRunner is a one-job campaign.
 *
 * Determinism is by construction: every sweep cell's RNG seed is
 * derived from the job's base seed and the *repetition index* alone
 * (deriveSeed, a splitmix64 finalizer in the spirit of Rng::split;
 * repetition 0 keeps the base seed), each point executes through the
 * one serial code path (sim::runLoadPoint), and results land in
 * preallocated slots keyed by cell index — so the output is
 * bit-identical whether the campaign runs serially, on 1 thread, or
 * on 64, in any scheduling order. Each slot also holds its cell's
 * wall time, so the per-job timing summary is read off the slots
 * once the barrier has passed: nothing on the execution path takes
 * a lock.
 *
 * CampaignResult carries wall-clock and per-job timing and can emit
 * itself as CSV (one row per cell) or JSON (nested per-job summary)
 * for the figure benches' artifact trail.
 */

#ifndef WSS_EXEC_CAMPAIGN_HPP
#define WSS_EXEC_CAMPAIGN_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_event.hpp"
#include "sim/load_sweep.hpp"
#include "util/seed.hpp"

namespace wss::exec {

/// Builds a fresh network for one run, seeded explicitly.
using SeededNetworkFactory =
    std::function<std::unique_ptr<sim::Network>(std::uint64_t seed)>;
/// Builds the workload for one run at the given offered load.
using SeededWorkloadFactory = std::function<std::unique_ptr<sim::Workload>(
    double rate, std::uint64_t seed)>;

/// The shared splitmix64 per-index seed derivation (util/seed.hpp);
/// re-exported here because the sweeps' determinism contract is
/// stated in terms of it.
using wss::deriveSeed;

/// Everything needed to run one load-sweep curve.
struct SweepJob
{
    SeededNetworkFactory make_network;
    SeededWorkloadFactory make_workload;
    /// Offered loads, one sweep point each.
    std::vector<double> rates;
    /// Phase configuration; cfg.seed is the base seed the
    /// per-repetition seeds derive from.
    sim::SimConfig cfg;
    /// Independent repetitions (seeds derived per index).
    int repetitions = 1;
};

/// One executed (repetition, rate) cell.
struct PointOutcome
{
    int repetition = 0;
    int rate_index = 0;
    sim::LoadPoint point;
    sim::SimResult result;
    /// Wall-clock spent simulating this cell.
    double seconds = 0.0;
};

/// What a sweep produced.
struct SweepRunOutput
{
    /// Finalized curve per repetition.
    std::vector<sim::SweepResult> reps;
    /// Points averaged across repetitions (== reps[0] when
    /// repetitions == 1, bit-identically).
    sim::SweepResult combined;
    /// Flat repetition-major cell outcomes (timing, full SimResult).
    std::vector<PointOutcome> outcomes;
    /// Wall-clock of the campaign that ran the sweep: the whole
    /// sweep for a SweepRunner, all jobs of the batch (one barrier)
    /// for a job inside a multi-job campaign. Never the sum of the
    /// cell times (that is CampaignJobResult::seconds).
    double wall_seconds = 0.0;
};

/// Timing/result summary of one campaign job.
struct CampaignJobResult
{
    std::string name;
    /// "sweep" or "task".
    std::string kind;
    /// Sweep output (curves, outcomes); empty for generic tasks.
    SweepRunOutput sweep;
    /// Sum of the job's per-cell wall times. Cells run
    /// concurrently, so this exceeds the campaign wall-clock; it is
    /// the job's serial-equivalent cost.
    double seconds = 0.0;
    /// Distribution of per-cell seconds (read off the cell slots
    /// after the barrier).
    double mean_cell_seconds = 0.0;
    double max_cell_seconds = 0.0;
    double p95_cell_seconds = 0.0;
    int cells = 0;
};

/// What a whole campaign produced.
struct CampaignResult
{
    std::vector<CampaignJobResult> jobs;
    /// Wall-clock of the whole campaign (all jobs, one barrier).
    double wall_seconds = 0.0;
    /// Worker threads the campaign ran on (1 when run serially).
    int threads = 1;

    /// One row per executed cell plus `# key=value` header lines.
    void writeCsv(std::ostream &os) const;
    /// Nested per-job summary, full precision.
    void writeJson(std::ostream &os) const;

    /// writeCsv()/writeJson() to @p path through a flush-checked
    /// stream: the data hits the file (or a fatal() reports the I/O
    /// failure) before control returns, so later fatal() exits can
    /// never truncate the artifact.
    void writeCsvFile(const std::string &path) const;
    void writeJsonFile(const std::string &path) const;
};

/**
 * A batch of jobs executed together on one pool.
 */
class Campaign
{
  public:
    /// Add a load-sweep job; returns its job index. fatal() when the
    /// job has no rate, no repetition or a missing factory.
    int addSweep(std::string name, SweepJob job);

    /// Add a generic timed task (runs once); returns its job index.
    int addTask(std::string name, std::function<void()> fn);

    int jobCount() const { return static_cast<int>(entries_.size()); }

    /**
     * Execute every cell of every job. @p pool nullptr runs
     * serially; otherwise all cells share the pool's workers plus
     * the calling thread. @p trace, when given, records one span per
     * cell on per-worker tracks (args: job, kind, and for sweep
     * cells repetition/rate_index/rate) plus thread-name metadata —
     * deterministic in content at any pool size. @p profiler, when
     * given, accumulates one "campaign/<job>" phase per cell (job
     * names are '/'-sanitized): workers time into per-worker
     * profilers merged into @p profiler after the barrier.
     */
    CampaignResult run(ThreadPool *pool = nullptr,
                       obs::TraceEventSink *trace = nullptr,
                       obs::Profiler *profiler = nullptr) const;

  private:
    struct Entry
    {
        std::string name;
        bool is_sweep = false;
        SweepJob sweep;
        std::function<void()> fn;
    };

    std::vector<Entry> entries_;
};

} // namespace wss::exec

#endif // WSS_EXEC_CAMPAIGN_HPP
