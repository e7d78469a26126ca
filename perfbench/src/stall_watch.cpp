#include "stall_watch.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace perfbench {

namespace {

using wss::sim::Cycle;

/// Sampling period of the hook: the in-flight count and per-link
/// totals cost a pass over the fabric, so they are read this often.
constexpr Cycle kCheckEvery = 64;

/// Per-thread state of the run the thread is executing.
struct Tracker
{
    const StallWatch *owner = nullptr;
    const wss::sim::Network *net = nullptr;
    Cycle last_now = -1;
    Cycle last_move = 0;
    std::int64_t in_flight = 0;
    std::uint64_t forwarded = 0;
    bool flagged = false;
    int point = -1;
};

thread_local Tracker tl_tracker;
thread_local int tl_point = -1;

} // namespace

Cycle
StallWatch::windowFor(const wss::sim::NetworkSpec &spec)
{
    const Cycle hop =
        std::max(spec.terminal_link_latency, spec.internal_link_latency) +
        spec.pipeline_delay +
        std::max(spec.rc_delay_ingress, spec.rc_delay_transit);
    return std::max<Cycle>(64 * hop, 1024);
}

StallWatch::StallWatch(Cycle window) : window_(window) {}

std::function<void(wss::sim::Network &, Cycle)>
StallWatch::hook()
{
    return [this](wss::sim::Network &net, Cycle now) {
        observe(net, now);
    };
}

void
StallWatch::setCurrentPoint(int point)
{
    tl_point = point;
}

void
StallWatch::observe(wss::sim::Network &net, Cycle now)
{
    Tracker &t = tl_tracker;
    if (t.owner != this || t.net != &net || now <= t.last_now) {
        t = Tracker{};
        t.owner = this;
        t.net = &net;
        t.point = tl_point;
        t.last_move = now;
    }
    t.last_now = now;
    if (now % kCheckEvery != 0 || t.flagged)
        return;

    const std::int64_t in_flight = net.flitsInFlight();
    const std::vector<std::uint64_t> links = net.linkFlitsForwarded();
    const std::uint64_t forwarded =
        std::accumulate(links.begin(), links.end(), std::uint64_t{0});
    if (in_flight == 0 || in_flight != t.in_flight ||
        forwarded != t.forwarded) {
        t.in_flight = in_flight;
        t.forwarded = forwarded;
        t.last_move = now;
        return;
    }
    if (now - t.last_move >= window_) {
        t.flagged = true;
        std::lock_guard<std::mutex> lock(mutex_);
        stalled_.emplace(t.point, now);
    }
}

Cycle
StallWatch::stalledAt(int point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stalled_.find(point);
    return it == stalled_.end() ? -1 : it->second;
}

int
StallWatch::stalledCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(stalled_.size());
}

} // namespace perfbench
