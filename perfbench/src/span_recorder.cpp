#include "span_recorder.hpp"

#include <iomanip>
#include <limits>

#include "util/artifact.hpp"
#include "util/logging.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : run_id_(run_id), epoch_(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::open(const std::string &name)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_s = now();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    if (open_.empty() || open_.back() != index)
        wss::panic("SpanRecorder: span '",
                   spans_[static_cast<std::size_t>(index)].name,
                   "' closed out of order");
    spans_[static_cast<std::size_t>(index)].end_s = now();
    open_.pop_back();
}

double
SpanRecorder::selfSeconds(int index) const
{
    const Span &span = spans_[static_cast<std::size_t>(index)];
    double self = span.end_s - span.start_s;
    // Children are recorded after their parent, in order.
    for (std::size_t i = static_cast<std::size_t>(index) + 1;
         i < spans_.size(); ++i)
        if (spans_[i].parent == index)
            self -= spans_[i].end_s - spans_[i].start_s;
    return self;
}

bool
SpanRecorder::inSubtree(int index, int root) const
{
    for (int i = index; i >= 0;
         i = spans_[static_cast<std::size_t>(i)].parent)
        if (i == root)
            return true;
    return false;
}

std::map<std::string, double>
SpanRecorder::selfByName(int root) const
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (inSubtree(static_cast<int>(i), root))
            out[spans_[i].name] += selfSeconds(static_cast<int>(i));
    return out;
}

void
SpanRecorder::writeJson(const std::string &path) const
{
    wss::util::writeArtifactFile(
        path, "perfbench spans", [this](std::ostream &os) {
            os << std::setprecision(
                std::numeric_limits<double>::max_digits10);
            os << "{\"run_id\": \"" << std::hex << run_id_ << std::dec
               << "\", \"spans\": [";
            for (std::size_t i = 0; i < spans_.size(); ++i) {
                const Span &s = spans_[i];
                os << (i ? ",\n  " : "\n  ") << "{\"name\": \""
                   << s.name << "\", \"start_s\": " << s.start_s
                   << ", \"end_s\": " << s.end_s
                   << ", \"parent\": " << s.parent << ", \"self_s\": "
                   << selfSeconds(static_cast<int>(i)) << "}";
            }
            os << "\n]}\n";
        });
}

} // namespace perfbench
