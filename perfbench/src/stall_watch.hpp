/**
 * @file
 * Liveness check for cycle-accurate runs, watched from outside the
 * simulator through SimConfig::on_cycle.
 *
 * A run has stalled when flits are in flight and nothing moves — no
 * flit crosses a link and the in-flight count does not change — for
 * `window` cycles. The window is a generous multiple of the longest
 * channel plus router pipeline delay, so a live but saturated fabric
 * (where something moves every few cycles) is never flagged, while a
 * deadlocked one is flagged shortly after it freezes.
 *
 * One StallWatch serves every point of a sweep. Points run
 * concurrently on pool workers, one at a time per thread, so the
 * per-run state is thread-local; the point being run is named by
 * setCurrentPoint() on the same thread before the run starts (the
 * sweep's workload factory does this).
 */

#ifndef PERFBENCH_STALL_WATCH_HPP
#define PERFBENCH_STALL_WATCH_HPP

#include <functional>
#include <map>
#include <mutex>

#include "sim/network.hpp"

namespace perfbench {

class StallWatch
{
  public:
    /// Cycles without movement that count as a stall for @p spec.
    static wss::sim::Cycle windowFor(const wss::sim::NetworkSpec &spec);

    explicit StallWatch(wss::sim::Cycle window);
    StallWatch(const StallWatch &) = delete;
    StallWatch &operator=(const StallWatch &) = delete;

    /// The SimConfig::on_cycle hook; it refers to this watch, which
    /// must outlive every run that uses it.
    std::function<void(wss::sim::Network &, wss::sim::Cycle)> hook();

    /// Name the point the calling thread is about to simulate.
    static void setCurrentPoint(int point);

    /// Cycle at which @p point was flagged, or -1 when it never was.
    wss::sim::Cycle stalledAt(int point) const;
    int stalledCount() const;

  private:
    void observe(wss::sim::Network &net, wss::sim::Cycle now);

    wss::sim::Cycle window_;
    mutable std::mutex mutex_;
    std::map<int, wss::sim::Cycle> stalled_; // guarded by mutex_
};

} // namespace perfbench

#endif // PERFBENCH_STALL_WATCH_HPP
