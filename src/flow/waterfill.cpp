#include "flow/waterfill.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.hpp"

namespace wss::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

Waterfill::Waterfill(std::vector<double> capacity)
    : cap_(std::move(capacity)), pos_(cap_.size(), -1)
{}

void
Waterfill::clear()
{
    for (int r : touched_)
        pos_[static_cast<std::size_t>(r)] = -1;
    touched_.clear();
    users_cnt_.clear();
    flow_off_.assign(1, 0);
    flow_pos_.clear();
}

void
Waterfill::addFlow(const std::vector<int> &res)
{
    if (res.empty())
        panic("Waterfill::addFlow: flow ", flowCount(),
              " crosses no resource");
    for (int r : res) {
        if (r < 0 || static_cast<std::size_t>(r) >= cap_.size())
            panic("Waterfill::addFlow: resource ", r, " outside [0, ",
                  cap_.size(), ")");
        int &p = pos_[static_cast<std::size_t>(r)];
        if (p < 0) {
            p = static_cast<int>(touched_.size());
            touched_.push_back(r);
            users_cnt_.push_back(0);
        }
        ++users_cnt_[static_cast<std::size_t>(p)];
        flow_pos_.push_back(p);
    }
    flow_off_.push_back(flow_pos_.size());
}

/// The left entry wins unless the right one is strictly smaller, so
/// the root holds the earliest-touched minimal share — exactly the
/// linear scan's pick.
Waterfill::Node
Waterfill::match(const Node &left, const Node &right)
{
    return right.key < left.key ? right : left;
}

/// What the linear scan compares: remcap/cnt for a loaded resource,
/// +inf for an unloaded one. A NaN share never wins a strict `<`
/// against the scan's +inf start, so it maps to +inf too.
double
Waterfill::fairShare(int p) const
{
    const auto i = static_cast<std::size_t>(p);
    if (cnt_[i] <= 0)
        return kInf;
    const double fair = remcap_[i] / cnt_[i];
    return fair < kInf ? fair : kInf;
}

/// Re-key leaf @p p and replay its matches up to the root, stopping
/// once a match result is unchanged (nothing above it can change).
void
Waterfill::rekey(int p)
{
    std::size_t i = leaves_ + static_cast<std::size_t>(p);
    nodes_[i].key = fairShare(p);
    for (i >>= 1; i >= 1; i >>= 1) {
        const Node win = match(nodes_[2 * i], nodes_[2 * i + 1]);
        if (win.pos == nodes_[i].pos && win.key == nodes_[i].key)
            break;
        nodes_[i] = win;
    }
}

const std::vector<double> &
Waterfill::solve()
{
    const std::size_t n = flowCount();
    const std::size_t t = touched_.size();
    rate_.assign(n, 0.0);
    if (n == 0)
        return rate_;

    // Users of each resource, in flow order (CSR): user_off_[p]
    // starts at p's end and counts down as flows are placed back to
    // front, ending at p's start.
    user_off_.resize(t + 1);
    std::size_t end = 0;
    for (std::size_t p = 0; p < t; ++p)
        user_off_[p] = end += static_cast<std::size_t>(users_cnt_[p]);
    user_off_[t] = end;
    users_.resize(end);
    for (std::size_t f = n; f-- > 0;)
        for (std::size_t k = flow_off_[f]; k < flow_off_[f + 1]; ++k)
            users_[--user_off_[static_cast<std::size_t>(flow_pos_[k])]] =
                static_cast<int>(f);

    remcap_.resize(t);
    cnt_.resize(t);
    for (std::size_t p = 0; p < t; ++p) {
        remcap_[p] = cap_[static_cast<std::size_t>(touched_[p])];
        cnt_[p] = users_cnt_[p];
    }
    frozen_.assign(n, 0);
    dirty_flag_.assign(t, 0);

    leaves_ = 1;
    while (leaves_ < t)
        leaves_ *= 2;
    nodes_.resize(2 * leaves_);
    for (std::size_t p = 0; p < leaves_; ++p)
        nodes_[leaves_ + p] = {p < t ? fairShare(static_cast<int>(p))
                                     : kInf,
                               static_cast<int>(p)};
    for (std::size_t i = leaves_ - 1; i >= 1; --i)
        nodes_[i] = match(nodes_[2 * i], nodes_[2 * i + 1]);

    std::size_t unfrozen = n;
    while (unfrozen > 0) {
        const int bn = nodes_[1].pos;
        // Read the share off the leaf: inner nodes may hold a stale
        // -0.0 for a fresh 0.0 (they compare equal), and the leaf
        // is what the scan would have computed.
        double best = nodes_[leaves_ + static_cast<std::size_t>(bn)].key;
        if (!(best < kInf))
            panic("flow waterfill: ", unfrozen,
                  " unfrozen flows but no loaded resource");
        best = std::max(best, 0.0);
        const auto b = static_cast<std::size_t>(bn);
        for (std::size_t k = user_off_[b]; k < user_off_[b + 1]; ++k) {
            const auto f = static_cast<std::size_t>(users_[k]);
            if (frozen_[f])
                continue;
            frozen_[f] = 1;
            rate_[f] = best;
            --unfrozen;
            for (std::size_t j = flow_off_[f]; j < flow_off_[f + 1]; ++j) {
                const int p = flow_pos_[j];
                if (p == bn)
                    continue;
                const auto pi = static_cast<std::size_t>(p);
                remcap_[pi] -= best;
                --cnt_[pi];
                if (!dirty_flag_[pi]) {
                    dirty_flag_[pi] = 1;
                    dirty_.push_back(p);
                }
            }
        }
        cnt_[b] = 0;
        rekey(bn);
        for (int p : dirty_) {
            dirty_flag_[static_cast<std::size_t>(p)] = 0;
            rekey(p);
        }
        dirty_.clear();
    }
    return rate_;
}

} // namespace wss::flow
