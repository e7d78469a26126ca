#include "obs/trace_event.hpp"

#include <algorithm>
#include <ostream>

#include "util/artifact.hpp"
#include "util/logging.hpp"
#include "util/text.hpp"

namespace wss::obs {

namespace {

using util::jsonEscape;

void
writeArgs(std::ostream &os, const std::vector<TraceArg> &args)
{
    os << "{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        os << (i ? ", " : "") << "\"" << jsonEscape(args[i].key)
           << "\": ";
        if (args[i].is_number)
            os << args[i].value;
        else
            os << "\"" << jsonEscape(args[i].value) << "\"";
    }
    os << "}";
}

} // namespace

TraceArg
TraceArg::str(std::string key, std::string value)
{
    return {std::move(key), std::move(value), false};
}

TraceArg
TraceArg::num(std::string key, double value)
{
    std::string text = util::jsonNumber(value);
    // JSON has no literal for non-finite numbers.
    if (text == "inf" || text == "-inf" || text == "nan" ||
        text == "-nan")
        return {std::move(key), std::move(text), false};
    return {std::move(key), std::move(text), true};
}

TraceArg
TraceArg::num(std::string key, std::int64_t value)
{
    return {std::move(key), std::to_string(value), true};
}

TraceEventSink::TraceEventSink()
    : epoch_(std::chrono::steady_clock::now())
{
}

std::int64_t
TraceEventSink::nowMicros() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
TraceEventSink::push(Event event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
}

void
TraceEventSink::complete(std::string name, std::string category,
                         int tid, std::int64_t ts_us,
                         std::int64_t dur_us,
                         std::vector<TraceArg> args)
{
    Event event;
    event.phase = 'X';
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = tid;
    event.ts = ts_us;
    event.dur = dur_us;
    event.args = std::move(args);
    push(std::move(event));
}

void
TraceEventSink::instant(std::string name, std::string category,
                        int tid, std::int64_t ts_us,
                        std::vector<TraceArg> args)
{
    Event event;
    event.phase = 'i';
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = tid;
    event.ts = ts_us;
    event.args = std::move(args);
    push(std::move(event));
}

void
TraceEventSink::counter(std::string name, std::string category,
                        int tid, std::int64_t ts_us, double value)
{
    Event event;
    event.phase = 'C';
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = tid;
    event.ts = ts_us;
    event.args.push_back(TraceArg::num("value", value));
    push(std::move(event));
}

int
TraceEventSink::allocateTrack(const std::string &name)
{
    // The metadata event is appended inline rather than via push():
    // the track id and its thread_name must land under one lock so
    // two racing allocations of different names cannot interleave.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tracks_.find(name);
    if (it != tracks_.end())
        return it->second;
    const int tid =
        kFirstAllocatedTrack + static_cast<int>(tracks_.size());
    tracks_.emplace(name, tid);
    nameTrackLocked(tid, name);
    return tid;
}

void
TraceEventSink::nameTrackLocked(int tid, std::string name)
{
    if (!named_tracks_.insert(tid).second)
        return;
    Event event;
    event.phase = 'M';
    event.name = "thread_name";
    event.tid = tid;
    event.args.push_back(TraceArg::str("name", std::move(name)));
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
}

void
TraceEventSink::setProcessName(std::string name)
{
    Event event;
    event.phase = 'M';
    event.name = "process_name";
    event.args.push_back(TraceArg::str("name", std::move(name)));
    push(std::move(event));
}

void
TraceEventSink::setThreadName(int tid, std::string name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    nameTrackLocked(tid, std::move(name));
}

std::size_t
TraceEventSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
TraceEventSink::write(std::ostream &os) const
{
    std::vector<Event> sorted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sorted = events_;
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Event &a, const Event &b) {
                  // Metadata first so viewers name tracks before any
                  // span references them; then chronological with
                  // record order as the tie-break.
                  if ((a.phase == 'M') != (b.phase == 'M'))
                      return a.phase == 'M';
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.seq < b.seq;
              });

    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const Event &e = sorted[i];
        os << (i ? ",\n  " : "\n  ");
        os << "{\"name\": \"" << jsonEscape(e.name) << "\", \"ph\": \""
           << e.phase << "\", \"pid\": 1, \"tid\": " << e.tid;
        if (e.phase != 'M') {
            os << ", \"ts\": " << e.ts;
            if (!e.category.empty())
                os << ", \"cat\": \"" << jsonEscape(e.category)
                   << "\"";
            if (e.phase == 'X')
                os << ", \"dur\": " << e.dur;
            if (e.phase == 'i')
                os << ", \"s\": \"t\"";
        }
        if (!e.args.empty()) {
            os << ", \"args\": ";
            writeArgs(os, e.args);
        }
        os << "}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void
TraceEventSink::writeFile(const std::string &path) const
{
    util::writeArtifactFile(path, "TraceEventSink",
                            [this](std::ostream &os) { write(os); });
}

} // namespace wss::obs
