#include "sim/workload.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace wss::sim {

SyntheticWorkload::SyntheticWorkload(
    std::unique_ptr<TrafficPattern> pattern, double rate, int packet_size)
    : pattern_(std::move(pattern)), rate_(rate), packet_size_(packet_size)
{
    if (!pattern_)
        fatal("SyntheticWorkload: pattern is required");
    // NaN passes every ordered comparison below and would make a
    // silently empty run.
    if (!std::isfinite(rate_) || rate_ < 0.0)
        fatal("SyntheticWorkload: rate ", rate_, " over ",
              pattern_->terminals(),
              " terminals must be finite and non-negative");
    if (packet_size_ < 1)
        fatal("SyntheticWorkload: packet size must be >= 1");
    if (rate_ / packet_size_ > 1.0)
        fatal("SyntheticWorkload: rate ", rate_, " with packet size ",
              packet_size_, " exceeds one packet per cycle");
}

void
SyntheticWorkload::generate(Cycle, Rng &rng, const EmitPacket &emit)
{
    const double p = rate_ / packet_size_;
    const int n = pattern_->terminals();
    for (int src = 0; src < n; ++src) {
        if (rng.nextBool(p))
            emit(src, pattern_->destination(src, rng), packet_size_);
    }
}

std::string
SyntheticWorkload::name() const
{
    return pattern_->name();
}

} // namespace wss::sim
