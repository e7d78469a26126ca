#include "exec/sweep_runner.hpp"

#include <utility>

namespace wss::exec {

SweepRunner::SweepRunner(SweepJob job)
{
    campaign_.addSweep("sweep", std::move(job));
}

SweepRunOutput
SweepRunner::run(ThreadPool *pool, obs::TraceEventSink *trace,
                 obs::Profiler *profiler) const
{
    return std::move(campaign_.run(pool, trace, profiler).jobs.front().sweep);
}

} // namespace wss::exec
