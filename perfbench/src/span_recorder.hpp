/**
 * @file
 * The benchmark's own trace: one span per call into a wss layer.
 *
 * Spans are recorded only by the benchmark's calling thread, around
 * the public entry points it invokes, so children never overlap and
 * a span's self time (its duration minus the time its direct
 * children cover) partitions the root span exactly: the self times
 * of every span under a root sum to the root's duration.
 *
 * A span's name is "<layer>.<what>" ("sim.run", "flow.calibrate");
 * the layer is the text before the first '.'. Spans stay in memory
 * and are written as JSON when the run ends.
 */

#ifndef PERFBENCH_SPAN_RECORDER_HPP
#define PERFBENCH_SPAN_RECORDER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    /// Seconds since the recorder was created.
    double start_s = 0.0;
    double end_s = 0.0;
    /// Index of the enclosing span, -1 for a root.
    int parent = -1;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::uint64_t run_id);

    /// Open a span as a child of the innermost open span.
    int open(const std::string &name);
    /// Close the innermost open span (must be @p index).
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /// Duration minus the time covered by direct children.
    double selfSeconds(int index) const;
    /// Self seconds summed per span name over the subtree of root
    /// @p root (the root itself included).
    std::map<std::string, double> selfByName(int root) const;

    /// Write {"run_id", "spans": [{name, start_s, end_s, parent,
    /// self_s}]}; fatal on I/O error.
    void writeJson(const std::string &path) const;

  private:
    double now() const;
    bool inSubtree(int index, int root) const;

    std::uint64_t run_id_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name)
        : recorder_(recorder),
          index_(recorder ? recorder->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_RECORDER_HPP
