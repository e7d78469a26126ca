/**
 * @file
 * Hierarchical wall-clock self-profiler for the execution engine.
 *
 * Answers "where does the wall time go?" across the repo's fidelity
 * stack: calibration sweeps, campaign cells, the flow-level event
 * loop, collective steps. The design mirrors obs::MetricsRegistry's
 * null-handle contract:
 *
 *   - instrumented code takes a `Profiler *` that may be nullptr;
 *   - ScopedPhase on a null profiler is a single predicted branch
 *     (≤1% hot-loop overhead, guarded by BM_ProfilerScope* in
 *     bench_micro);
 *   - a Profiler is single-threaded — concurrent workers each keep
 *     their own and the owner merge()s them after the barrier,
 *     exactly like per-worker MetricsRegistries.
 *
 * Phases nest: entering "waterfill" inside "flow-sim" accumulates
 * under the path "flow-sim/waterfill". Aggregation is by path, so a
 * phase entered a million times costs one map node, and merge() of
 * two profilers is a sum over the union of their paths. The
 * aggregate exports three ways: a self-time summary table
 * (writeSummary), Chrome-trace spans laid out synthetically so the
 * hierarchy renders in Perfetto (addToTrace), and raw phases() for
 * RunManifest's timing section.
 */

#ifndef WSS_OBS_PROFILER_HPP
#define WSS_OBS_PROFILER_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wss::obs {

class TraceEventSink;

/// Accumulated totals of one phase path.
struct PhaseStats
{
    /// Times the phase was entered.
    std::int64_t calls = 0;
    /// Total inclusive wall seconds (children included).
    double seconds = 0.0;
};

/**
 * Per-thread hierarchical phase-timer aggregate.
 *
 * Copying is deleted for the same reason as MetricsRegistry: an
 * accidental copy would fork the aggregate and silently drop half
 * the timings at merge; moves are fine.
 */
class Profiler
{
  public:
    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;
    Profiler(Profiler &&) = default;
    Profiler &operator=(Profiler &&) = default;

    /// Open a phase named @p name nested under the currently open
    /// phase (or at the root). Prefer ScopedPhase over calling this
    /// directly — unbalanced enter/exit() panics.
    void enter(std::string_view name);

    /// Close the innermost open phase, accumulating its elapsed time.
    void exit();

    /// True while any phase is open (merge()/exports require false).
    bool open() const { return !stack_.empty(); }

    /// Aggregated stats keyed by '/'-joined phase path, sorted — the
    /// sort order is a pre-order walk of the phase tree ("a" before
    /// "a/b" before "a/b/c").
    const std::map<std::string, PhaseStats> &
    phases() const
    {
        return phases_;
    }

    /// Inclusive seconds of @p path (0 when never entered).
    double totalSeconds(const std::string &path) const;

    /// Self time of @p path: inclusive minus the sum of its nearest
    /// recorded descendants (a merged "a/sweep/point" with no
    /// "a/sweep" node counts against "a"). Self times therefore
    /// partition the totals: summed over every path they equal the
    /// summed totals of the paths with no recorded ancestor.
    /// Concurrent merged children can push this below zero (their
    /// inclusive times overlap the parent's single wall clock); the
    /// summary clamps at zero.
    double selfSeconds(const std::string &path) const;

    /**
     * Fold @p other into this profiler: stats sum path-by-path. A
     * non-empty @p prefix re-roots the other profiler's paths under
     * "prefix/..." so an engine can file its workers' phases below
     * its own (exec::Campaign merges worker profilers under a
     * "campaign" prefix this way). When *this* profiler has a phase
     * open, the merged paths additionally nest under the open path —
     * so a caller timing "calibrate" sees its sweep's worker phases
     * land at "calibrate/sweep/...". @p other must be fully exited.
     */
    void merge(const Profiler &other, const std::string &prefix = "");

    /// Aligned self-time table, heaviest self time first.
    void writeSummary(std::ostream &os) const;

    /**
     * Emit the aggregate as Chrome-trace spans on track @p tid of
     * @p sink. The layout is synthetic: children are laid end-to-end
     * inside their parent starting at the parent's start, preserving
     * nesting for Perfetto's flame view. Spans carry the call count
     * as an arg. Timestamps are deterministic functions of the
     * aggregate, not of when this is called.
     */
    void addToTrace(TraceEventSink &sink, int tid) const;

  private:
    struct OpenPhase
    {
        std::string path;
        std::chrono::steady_clock::time_point start;
    };

    std::vector<OpenPhase> stack_;
    std::map<std::string, PhaseStats> phases_;
};

/**
 * RAII phase scope: enters on construction, exits on destruction.
 * The default-constructed or null-profiler form is a no-op (one
 * branch per end), so call sites instrument unconditionally:
 *
 *   obs::ScopedPhase phase(cfg.profiler, "waterfill");
 */
class ScopedPhase
{
  public:
    ScopedPhase() = default;

    ScopedPhase(Profiler *profiler, std::string_view name)
        : profiler_(profiler)
    {
        if (profiler_)
            profiler_->enter(name);
    }

    ~ScopedPhase()
    {
        if (profiler_)
            profiler_->exit();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Profiler *profiler_ = nullptr;
};

} // namespace wss::obs

#endif // WSS_OBS_PROFILER_HPP
