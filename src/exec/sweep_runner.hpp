/**
 * @file
 * One latency-vs-load sweep as a one-job campaign.
 *
 * SweepRunner is the convenience front end for callers with a single
 * curve (`wss sim`, switch-profile calibration): it runs its SweepJob
 * through exec::Campaign, which schedules, times, traces and profiles
 * the (repetition x rate) cells and keeps the output bit-identical at
 * any pool size (see exec/campaign.hpp for the determinism contract).
 */

#ifndef WSS_EXEC_SWEEP_RUNNER_HPP
#define WSS_EXEC_SWEEP_RUNNER_HPP

#include "exec/campaign.hpp"

namespace wss::exec {

/**
 * Runs a SweepJob, serially or on a pool.
 */
class SweepRunner
{
  public:
    /// fatal() on the same malformed jobs Campaign::addSweep rejects.
    explicit SweepRunner(SweepJob job);

    /// Execute every (repetition, rate) cell. @p pool nullptr runs
    /// serially in the calling thread. @p trace and @p profiler
    /// record as Campaign::run does for a job named "sweep": one
    /// span per cell, one "campaign/sweep" phase per cell.
    /// wall_seconds is this call's wall clock.
    SweepRunOutput run(ThreadPool *pool = nullptr,
                       obs::TraceEventSink *trace = nullptr,
                       obs::Profiler *profiler = nullptr) const;

  private:
    Campaign campaign_;
};

} // namespace wss::exec

#endif // WSS_EXEC_SWEEP_RUNNER_HPP
