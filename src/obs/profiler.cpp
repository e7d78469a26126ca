#include "obs/profiler.hpp"

#include <algorithm>
#include <ostream>

#include "obs/flight_recorder.hpp"
#include "obs/trace_event.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace wss::obs {

namespace {

/// Leaf name of a '/'-joined phase path.
std::string_view
leafName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos
               ? std::string_view(path)
               : std::string_view(path).substr(slash + 1);
}

/// Parent path ("" for roots).
std::string
parentPath(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/// Longest recorded proper prefix path of @p path ("" if none).
std::string
nearestRecordedAncestor(const std::map<std::string, PhaseStats> &phases,
                        const std::string &path)
{
    for (std::string up = parentPath(path); !up.empty();
         up = parentPath(up))
        if (phases.count(up))
            return up;
    return {};
}

} // namespace

void
Profiler::enter(std::string_view name)
{
    if (name.empty() || name.find('/') != std::string_view::npos)
        panic("Profiler: phase name '", std::string(name),
              "' must be non-empty and '/'-free ('/' joins the "
              "hierarchy)");
    std::string path;
    if (stack_.empty()) {
        path.assign(name);
    } else {
        path.reserve(stack_.back().path.size() + 1 + name.size());
        path = stack_.back().path;
        path += '/';
        path += name;
    }
    stack_.push_back({std::move(path), std::chrono::steady_clock::now()});
    recordPhaseEnter(name);
}

void
Profiler::exit()
{
    if (stack_.empty())
        panic("Profiler: exit() without a matching enter()");
    const OpenPhase &top = stack_.back();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      top.start)
            .count();
    PhaseStats &stats = phases_[top.path];
    stats.calls += 1;
    stats.seconds += elapsed;
    stack_.pop_back();
    recordPhaseExit();
}

double
Profiler::totalSeconds(const std::string &path) const
{
    const auto it = phases_.find(path);
    return it == phases_.end() ? 0.0 : it->second.seconds;
}

double
Profiler::selfSeconds(const std::string &path) const
{
    const auto it = phases_.find(path);
    if (it == phases_.end())
        return 0.0;
    // The nearest recorded descendants, not only direct children:
    // merge() files "calibrate/sweep/point" with no "calibrate/sweep"
    // node, and that time is still inside "calibrate".
    double children = 0.0;
    const std::string prefix = path + "/";
    for (auto child = phases_.upper_bound(prefix);
         child != phases_.end() &&
         child->first.compare(0, prefix.size(), prefix) == 0;
         ++child) {
        if (nearestRecordedAncestor(phases_, child->first) == path)
            children += child->second.seconds;
    }
    return it->second.seconds - children;
}

void
Profiler::merge(const Profiler &other, const std::string &prefix)
{
    if (other.open())
        panic("Profiler: merge() source has open phases (exit all "
              "scopes before merging)");
    // Merging while a phase is open files the other profiler's paths
    // below it, so engines can merge worker profilers mid-scope.
    std::string base = stack_.empty() ? "" : stack_.back().path;
    if (!prefix.empty())
        base = base.empty() ? prefix : base + "/" + prefix;
    for (const auto &[path, stats] : other.phases_) {
        const std::string key =
            base.empty() ? path : base + "/" + path;
        PhaseStats &mine = phases_[key];
        mine.calls += stats.calls;
        mine.seconds += stats.seconds;
    }
}

void
Profiler::writeSummary(std::ostream &os) const
{
    if (open())
        panic("Profiler: writeSummary() with open phases");

    // Heaviest self time first; path breaks ties so the table is
    // deterministic even when timings collide (e.g. all zero).
    std::vector<std::pair<double, const std::string *>> order;
    order.reserve(phases_.size());
    double total_self = 0.0;
    for (const auto &[path, stats] : phases_) {
        const double self = std::max(selfSeconds(path), 0.0);
        order.emplace_back(self, &path);
        total_self += self;
    }
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return *a.second < *b.second;
              });

    Table table("Profile (self time)",
                {"phase", "calls", "total s", "self s", "self %"});
    for (const auto &[self, path] : order) {
        const PhaseStats &stats = phases_.at(*path);
        table.addRow({*path, Table::num(stats.calls),
                      Table::num(stats.seconds, 4),
                      Table::num(self, 4),
                      Table::num(total_self > 0.0
                                     ? 100.0 * self / total_self
                                     : 0.0,
                                 1)});
    }
    table.print(os);
}

void
Profiler::addToTrace(TraceEventSink &sink, int tid) const
{
    if (open())
        panic("Profiler: addToTrace() with open phases");

    // Synthetic layout: each phase starts at its parent's cursor and
    // advances it by its own inclusive duration, so siblings sit
    // end-to-end and children nest under their parent's span. The
    // sorted map is already a pre-order walk, so one pass suffices.
    // Merged concurrent children can overflow their parent's span —
    // the aggregate has more child-seconds than parent wall time —
    // which Perfetto renders as overhang, not an error.
    std::map<std::string, double> cursor;
    cursor[""] = 0.0;
    for (const auto &[path, stats] : phases_) {
        const double start = cursor[parentPath(path)];
        const double dur_us = stats.seconds * 1e6;
        sink.complete(std::string(leafName(path)), "profile", tid,
                      static_cast<std::int64_t>(start),
                      static_cast<std::int64_t>(dur_us),
                      {TraceArg::num("calls", stats.calls),
                       TraceArg::str("path", path)});
        cursor[path] = start;
        cursor[parentPath(path)] = start + dur_us;
    }
}

} // namespace wss::obs
