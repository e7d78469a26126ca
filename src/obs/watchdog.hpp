/**
 * @file
 * Liveness watchdog and live progress for long-running campaigns.
 *
 * The watchdog keeps no per-thread state of its own: it reads the
 * flight recorder's rings (obs/flight_recorder.hpp), the one
 * per-thread record of the process. A thread's heartbeat is the
 * newest event on its ring, so every recordEvent() is a sign of life:
 * exec::Campaign workers (every sweep runs there) record once per cell and
 * label themselves with the design point they are on
 * (FlightRecorder::setThreadDetail); flow::simulateFlows records an
 * epoch mark every few thousand event-loop iterations; the
 * simulator every 64k cycles; the coll:: execution loops once per
 * collective step. Two consumers ride on the rings:
 *
 *   - a monitor thread (Watchdog::start with a stall timeout) that
 *     detects an active thread whose newest event has gone stale,
 *     dumps every ring (liveness, detail, open phases, event tail)
 *     to stderr, and panic()s with the culprit named — so a hung
 *     10k-job campaign produces a diagnosis (and, with
 *     obs::CrashDump installed, a crash.json post-mortem) instead of
 *     sitting silent forever;
 *   - a `--progress` status line (jobs done/total, percent, ETA,
 *     per-worker current design point), re-rendered in place on
 *     stderr at a fixed period.
 *
 * Threads that wait for work mark themselves idle
 * (FlightRecorder::markThreadIdle) and are never culprits. The
 * monitor only reads, so runs are bit-identical with it on or off.
 *
 * Stall detection itself is testable without dying:
 * Watchdog::checkStalls() returns the culprit description (empty
 * when everything is live) and is what the monitor thread calls
 * before escalating to panic().
 */

#ifndef WSS_OBS_WATCHDOG_HPP
#define WSS_OBS_WATCHDOG_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace wss::obs {

/// Point-in-time liveness view of one flight-recorder ring
/// (Watchdog::snapshot).
struct HeartbeatSnap
{
    std::string label;
    /// Current design-point / step description ("" when none).
    std::string detail;
    /// Events recorded so far: each one is a heartbeat.
    std::uint64_t beats = 0;
    /// Seconds since the newest event (or since the thread turned
    /// active, if that is later).
    double age_s = 0.0;
    /// False once the thread declared itself idle (idle threads are
    /// never stall culprits).
    bool active = false;
};

class Watchdog
{
  public:
    /// Campaign progress for the status line: total cells in the
    /// current run, and completions as they happen.
    static void setProgressTotal(std::uint64_t total);
    static void addProgressDone(std::uint64_t n = 1);
    static std::uint64_t progressTotal();
    static std::uint64_t progressDone();

    /**
     * Start the monitor thread. @p stall_timeout_s > 0 arms stall
     * detection: an *active* ring whose newest event is older than
     * the timeout triggers a diagnostic dump and panic() naming the
     * culprit. @p progress additionally re-renders the status line
     * on stderr every @p progress_period_s. Enables the flight
     * recorder if it is off. No-op if already running.
     */
    static void start(double stall_timeout_s, bool progress,
                      double progress_period_s = 0.5);

    /// Join the monitor thread and erase the progress line.
    static void stop();

    /// Every flight-recorder ring, attach order.
    static std::vector<HeartbeatSnap> snapshot();

    /**
     * The monitor's core, exposed for tests: the description of the
     * first active ring whose newest event is older than
     * @p stall_timeout_s ("worker-3: no heartbeat for 1.2s ..."),
     * or "" when every active thread is live.
     */
    static std::string checkStalls(double stall_timeout_s);

    /// The status line ("jobs 12/40 (30%) eta 42s | ..."), without
    /// the leading carriage return.
    static std::string renderProgressLine();

    /// Stop the monitor and zero the progress counters. Test-only;
    /// the rings are FlightRecorder::resetForTesting()'s.
    static void resetForTesting();
};

} // namespace wss::obs

#endif // WSS_OBS_WATCHDOG_HPP
