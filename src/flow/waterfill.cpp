#include "flow/waterfill.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/logging.hpp"

namespace wss::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Tie-break key of a resource nobody uses (and of empty tree leaves).
constexpr std::uint64_t kUnused = ~std::uint64_t{0};
/// built_ value of a resource dirtied between rounds.
constexpr std::size_t kBetweenRounds = ~std::size_t{0};
/// changed_flag_ levels: a moved user (dirty only when the tie-break
/// key moved) and a user set that changed (always dirty).
constexpr char kMoved = 1;
constexpr char kChanged = 2;

} // namespace

Waterfill::Waterfill(std::vector<double> capacity)
    : cap_(std::move(capacity)), users_(cap_.size()),
      tie_(cap_.size(), kUnused), changed_flag_(cap_.size(), 0),
      dirty_flag_(cap_.size(), 0), remcap_(cap_.size(), 0.0),
      cnt_(cap_.size(), 0), built_(cap_.size(), kBetweenRounds),
      touched_flag_(cap_.size(), 0)
{}

std::uint64_t
Waterfill::userKey(std::size_t slot, std::size_t idx)
{
    return static_cast<std::uint64_t>(slot) << 32 |
           static_cast<std::uint64_t>(idx);
}

void
Waterfill::clear()
{
    for (std::size_t s = 0; s < flows_; ++s)
        for (int r : resources(s)) {
            users_[static_cast<std::size_t>(r)].clear();
            tie_[static_cast<std::size_t>(r)] = kUnused;
        }
    for (int r : changed_)
        changed_flag_[static_cast<std::size_t>(r)] = 0;
    changed_.clear();
    flows_ = 0;
    log_.clear();
    log_flows_.clear();
}

void
Waterfill::checkResources(const std::vector<int> &res) const
{
    if (res.empty())
        panic("Waterfill::addFlow: flow ", flowCount(),
              " crosses no resource");
    for (int r : res)
        if (r < 0 || static_cast<std::size_t>(r) >= cap_.size())
            panic("Waterfill::addFlow: resource ", r, " outside [0, ",
                  cap_.size(), ")");
}

void
Waterfill::markChanged(int r, char level)
{
    char &flag = changed_flag_[static_cast<std::size_t>(r)];
    if (flag == 0)
        changed_.push_back(r);
    flag = std::max(flag, level);
}

/// Write @p res into @p slot's slice of the flat list buffer,
/// widening every slice first when it is the longest list so far.
void
Waterfill::store(std::size_t slot, const std::vector<int> &res)
{
    if (res.size() > stride_) {
        std::vector<int> old = std::move(flat_);
        flat_.assign(std::max(slot + 1, flows_) * res.size(), -1);
        for (std::size_t s = 0; s < flows_; ++s)
            std::copy_n(old.begin() + static_cast<std::ptrdiff_t>(s * stride_),
                        len_[s],
                        flat_.begin() +
                            static_cast<std::ptrdiff_t>(s * res.size()));
        stride_ = res.size();
    }
    if (flat_.size() < (slot + 1) * stride_)
        flat_.resize(std::max((slot + 1) * stride_, 2 * flat_.size()), -1);
    std::copy(res.begin(), res.end(),
              flat_.begin() + static_cast<std::ptrdiff_t>(slot * stride_));
    len_[slot] = res.size();
}

void
Waterfill::attach(std::size_t slot)
{
    const std::span<const int> res = resources(slot);
    for (std::size_t idx = 0; idx < res.size(); ++idx) {
        users_[static_cast<std::size_t>(res[idx])].push_back(
            userKey(slot, idx));
        markChanged(res[idx], kChanged);
    }
}

void
Waterfill::detach(std::size_t slot)
{
    const std::span<const int> res = resources(slot);
    for (std::size_t idx = 0; idx < res.size(); ++idx) {
        auto &users = users_[static_cast<std::size_t>(res[idx])];
        *std::find(users.begin(), users.end(), userKey(slot, idx)) =
            users.back();
        users.pop_back();
        markChanged(res[idx], kChanged);
    }
}

void
Waterfill::addFlow(const std::vector<int> &res)
{
    checkResources(res);
    const std::size_t slot = flows_;
    if (len_.size() <= slot) {
        len_.push_back(0);
        log_pos_.push_back(-1);
    }
    store(slot, res);
    ++flows_;
    log_pos_[slot] = -1;
    attach(slot);
}

void
Waterfill::removeFlow(std::size_t slot)
{
    if (slot >= flows_)
        panic("Waterfill::removeFlow: slot ", slot, " outside [0, ",
              flows_, ")");
    detach(slot);
    if (log_pos_[slot] >= 0)
        log_flows_[static_cast<std::size_t>(log_pos_[slot])] = -1;
    const std::size_t last = --flows_;
    if (slot == last)
        return;
    // The last flow takes the freed slot: its user entries follow it,
    // and each of its resources must re-check its first-touch key.
    const std::span<const int> moved = resources(last);
    for (std::size_t idx = 0; idx < moved.size(); ++idx) {
        auto &users = users_[static_cast<std::size_t>(moved[idx])];
        *std::find(users.begin(), users.end(), userKey(last, idx)) =
            userKey(slot, idx);
        markChanged(moved[idx], kMoved);
    }
    std::copy(moved.begin(), moved.end(),
              flat_.begin() + static_cast<std::ptrdiff_t>(slot * stride_));
    len_[slot] = len_[last];
    log_pos_[slot] = log_pos_[last];
    if (log_pos_[slot] >= 0)
        log_flows_[static_cast<std::size_t>(log_pos_[slot])] =
            static_cast<std::ptrdiff_t>(slot);
}

void
Waterfill::rerouteFlow(std::size_t slot, const std::vector<int> &res)
{
    if (slot >= flows_)
        panic("Waterfill::rerouteFlow: slot ", slot, " outside [0, ",
              flows_, ")");
    checkResources(res);
    detach(slot);
    store(slot, res);
    attach(slot);
}

/// The resource's position in first-touch order, as a sortable key:
/// its smallest (slot, index-in-list) user entry.
std::uint64_t
Waterfill::firstTouch(int r) const
{
    const auto &users = users_[static_cast<std::size_t>(r)];
    return users.empty() ? kUnused
                         : *std::min_element(users.begin(), users.end());
}

/// What the linear scan compares: remcap/cnt for a loaded resource,
/// +inf for an unloaded one. A NaN share never wins a strict `<`
/// against the scan's +inf start, so it maps to +inf too.
double
Waterfill::fairShare(int r) const
{
    const auto i = static_cast<std::size_t>(r);
    if (cnt_[i] <= 0)
        return kInf;
    const double fair = remcap_[i] / cnt_[i];
    return fair < kInf ? fair : kInf;
}

/// (key, tie) strictly before (other_key, other_tie): the scan's
/// strict `<` on shares, then first-touch order among equal shares.
bool
Waterfill::beats(double key, std::uint64_t tie, double other_key,
                 std::uint64_t other_tie)
{
    return key < other_key || (key == other_key && tie < other_tie);
}

/// The left entry wins unless the right one is strictly smaller.
/// Leaves sit in first-touch order, so the root holds the
/// earliest-touched minimal share — exactly the linear scan's pick.
Waterfill::Node
Waterfill::match(const Node &left, const Node &right)
{
    return right.key < left.key ? right : left;
}

/// Tree leaf of a used resource: the flat-buffer position of its
/// first-touch entry, so leaf order is first-touch order.
std::size_t
Waterfill::leafOf(int r) const
{
    const std::uint64_t tie = tie_[static_cast<std::size_t>(r)];
    return leaves_ + static_cast<std::size_t>(tie >> 32) * stride_ +
           static_cast<std::size_t>(tie & 0xffffffffu);
}

/// Mark resource @p r dirty with its state rebuilt from the flows
/// frozen so far: capacity minus their rates in round order (the
/// global fill's subtraction sequence), and its unfrozen user count.
/// @p round is the round in progress (its flows are already counted),
/// or kBetweenRounds. The caller puts it in the tree.
void
Waterfill::enterDirty(int r, std::size_t round)
{
    const auto i = static_cast<std::size_t>(r);
    rebuild_.clear();
    int cnt = 0;
    for (std::uint64_t u : users_[i]) {
        const auto slot = static_cast<std::size_t>(u >> 32);
        if (frozen_[slot]) {
            rebuild_.emplace_back(round_of_[slot], rate_[slot]);
        } else {
            ++cnt;
            reaches_dirty_[slot] = 1;
        }
    }
    // Flows frozen in one round share one rate, so ordering by round
    // alone fixes the sequence of subtracted values.
    std::sort(rebuild_.begin(), rebuild_.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    double remcap = cap_[i];
    for (const auto &[rd, rate] : rebuild_)
        remcap -= rate;
    remcap_[i] = remcap;
    cnt_[i] = cnt;
    built_[i] = round;
    dirty_flag_[i] = 1;
    dirty_.push_back(r);
}

/// enterDirty() plus a tree leaf for @p r (an unused resource needs
/// none: its share is +inf).
void
Waterfill::makeDirty(int r, std::size_t round)
{
    enterDirty(r, round);
    if (!users_[static_cast<std::size_t>(r)].empty())
        rekey(r);
}

/// Replay the matches above tree node @p n up to the root, stopping
/// once a match result is unchanged (nothing above it can change).
void
Waterfill::climb(std::size_t n)
{
    for (n >>= 1; n >= 1; n >>= 1) {
        const Node win = match(nodes_[2 * n], nodes_[2 * n + 1]);
        if (win.res == nodes_[n].res && win.key == nodes_[n].key)
            break;
        nodes_[n] = win;
    }
}

/// Re-key dirty resource @p r's leaf.
void
Waterfill::rekey(int r)
{
    const std::size_t n = leafOf(r);
    nodes_[n] = {fairShare(r), r};
    climb(n);
}

/// Give every used dirty resource its leaf (@p clear: reset those
/// leaves to +inf) and fix the matches above them: leaf by leaf for a
/// few, over the whole tree when that is cheaper.
void
Waterfill::placeLeaves(bool clear)
{
    std::size_t used = 0;
    for (int r : dirty_)
        used += !users_[static_cast<std::size_t>(r)].empty();
    if (used * static_cast<std::size_t>(std::bit_width(leaves_)) >
        leaves_) {
        if (clear) {
            std::fill(nodes_.begin(), nodes_.end(), Node{kInf, -1});
            return;
        }
        for (int r : dirty_)
            if (!users_[static_cast<std::size_t>(r)].empty())
                nodes_[leafOf(r)] = {fairShare(r), r};
        for (std::size_t n = leaves_ - 1; n >= 1; --n)
            nodes_[n] = match(nodes_[2 * n], nodes_[2 * n + 1]);
        return;
    }
    for (int r : dirty_)
        if (!users_[static_cast<std::size_t>(r)].empty()) {
            const std::size_t n = leafOf(r);
            nodes_[n] = clear ? Node{kInf, -1} : Node{fairShare(r), r};
            climb(n);
        }
}

/// Deduct frozen flow @p slot's @p rate from every dirty resource it
/// crosses besides @p bottleneck. With @p cascade, the clean ones turn
/// dirty too: the round was not the log's, so their state left it.
void
Waterfill::charge(std::size_t slot, int bottleneck, double rate,
                  std::size_t round, bool cascade)
{
    if (!cascade && !reaches_dirty_[slot])
        return;
    for (int p : resources(slot)) {
        if (p == bottleneck)
            continue;
        const auto pi = static_cast<std::size_t>(p);
        if (!dirty_flag_[pi]) {
            if (cascade)
                makeDirty(p, round);
            continue;
        }
        if (built_[pi] == round)
            continue;
        remcap_[pi] -= rate;
        --cnt_[pi];
        if (!touched_flag_[pi]) {
            touched_flag_[pi] = 1;
            touched_.push_back(p);
        }
    }
}

const std::vector<double> &
Waterfill::solve()
{
    const std::size_t n = flows_;
    if (n == 0) {
        // Nothing to solve; the resources' keys still follow the
        // removals, and the next solve starts from an empty log.
        for (int r : changed_) {
            tie_[static_cast<std::size_t>(r)] = kUnused;
            changed_flag_[static_cast<std::size_t>(r)] = 0;
        }
        changed_.clear();
        log_.clear();
        log_flows_.clear();
        rate_.clear();
        return rate_;
    }
    frozen_.assign(n, 0);
    reaches_dirty_.assign(n, 0);
    round_of_.resize(n);
    rate_.resize(n); // every flow freezes, so every rate is written
    next_log_.clear();
    next_log_flows_.clear();

    // One leaf per flat-buffer entry; all are +inf between solves.
    if (const std::size_t need = std::max<std::size_t>(n * stride_, 1);
        leaves_ < need) {
        leaves_ = std::bit_ceil(need);
        nodes_.assign(2 * leaves_, Node{kInf, -1});
    }

    // Resources whose users changed, or whose first-touch key moved,
    // since the last solve start out dirty.
    for (int r : changed_) {
        const auto i = static_cast<std::size_t>(r);
        const std::uint64_t tie = firstTouch(r);
        const bool dirty =
            changed_flag_[i] == kChanged || tie != tie_[i];
        tie_[i] = tie;
        changed_flag_[i] = 0;
        if (dirty)
            enterDirty(r, kBetweenRounds);
    }
    changed_.clear();
    placeLeaves(false);

    // openRound() appends a round to the new log and returns its index;
    // freeze() fixes one flow's rate in it.
    std::size_t unfrozen = n;
    const auto openRound = [&](int bottleneck, double share,
                               std::uint64_t tie) {
        const std::size_t round = next_log_.size();
        next_log_.push_back({bottleneck, share, tie,
                             next_log_flows_.size(),
                             next_log_flows_.size()});
        return round;
    };
    const auto freeze = [&](std::size_t slot, double rate,
                            std::size_t round) {
        frozen_[slot] = 1;
        round_of_[slot] = round;
        rate_[slot] = rate;
        log_pos_[slot] =
            static_cast<std::ptrdiff_t>(next_log_flows_.size());
        next_log_flows_.push_back(static_cast<std::ptrdiff_t>(slot));
        ++next_log_[round].end;
        --unfrozen;
    };
    const auto rekeyTouched = [&]() {
        for (int p : touched_) {
            touched_flag_[static_cast<std::size_t>(p)] = 0;
            rekey(p);
        }
        touched_.clear();
    };

    std::size_t j = 0; // next log round to replay
    while (unfrozen > 0) {
        // The tree's best dirty resource, its share read off the leaf:
        // inner nodes may hold a stale -0.0 for a fresh 0.0 (they
        // compare equal), and the leaf is what the scan would compute.
        const Node top = nodes_[1];
        const double top_key = top.res < 0 ? kInf : nodes_[leafOf(top.res)].key;
        const std::uint64_t top_tie =
            top.res < 0 ? kUnused : tie_[static_cast<std::size_t>(top.res)];

        // Every clean resource still holds its state from before log
        // round j, so it stands behind that round's (share, key). When
        // that bound beats the tree, the round is next — replay it if
        // its bottleneck is clean, else give it up (its flows'
        // resources turn dirty) and try the following round.
        if (j < log_.size() &&
            beats(log_[j].share, log_[j].tie, top_key, top_tie)) {
            const Round &old = log_[j++];
            if (dirty_flag_[static_cast<std::size_t>(old.bottleneck)]) {
                for (std::size_t k = old.begin; k < old.end; ++k) {
                    if (log_flows_[k] < 0)
                        continue;
                    const auto slot = static_cast<std::size_t>(log_flows_[k]);
                    if (frozen_[slot])
                        continue;
                    for (int p : resources(slot))
                        if (!dirty_flag_[static_cast<std::size_t>(p)])
                            makeDirty(p, kBetweenRounds);
                }
                continue;
            }
            const double rate = std::max(old.share, 0.0);
            const std::size_t round =
                openRound(old.bottleneck, old.share, old.tie);
            for (std::size_t k = old.begin; k < old.end; ++k) {
                if (log_flows_[k] < 0)
                    panic("flow waterfill: replayed round ", round,
                          " holds a removed flow");
                freeze(static_cast<std::size_t>(log_flows_[k]), rate, round);
            }
            for (std::size_t k = old.begin; k < old.end; ++k)
                charge(static_cast<std::size_t>(log_flows_[k]),
                       old.bottleneck, rate, round, false);
            rekeyTouched();
            continue;
        }

        if (!(top_key < kInf))
            panic("flow waterfill: ", unfrozen,
                  " unfrozen flows but no loaded resource");
        const int bn = top.res;
        const auto b = static_cast<std::size_t>(bn);
        const double rate = std::max(top_key, 0.0);
        const std::size_t round = openRound(bn, top_key, tie_[b]);
        for (std::uint64_t u : users_[b]) {
            const auto slot = static_cast<std::size_t>(u >> 32);
            if (!frozen_[slot])
                freeze(slot, rate, round);
        }
        // A round that reproduces log round j bit for bit (bottleneck,
        // share, frozen set) leaves every clean resource on the log.
        const Round &fresh = next_log_[round];
        bool same = false;
        if (j < log_.size()) {
            const Round &old = log_[j];
            same = old.bottleneck == bn &&
                   std::bit_cast<std::uint64_t>(old.share) ==
                       std::bit_cast<std::uint64_t>(top_key) &&
                   old.end - old.begin == fresh.end - fresh.begin;
            for (std::size_t k = old.begin; same && k < old.end; ++k) {
                const std::ptrdiff_t slot = log_flows_[k];
                same = slot >= 0 &&
                       frozen_[static_cast<std::size_t>(slot)] &&
                       round_of_[static_cast<std::size_t>(slot)] == round;
            }
            if (same)
                ++j;
        }
        for (std::size_t k = fresh.begin; k < fresh.end; ++k)
            charge(static_cast<std::size_t>(next_log_flows_[k]), bn, rate,
                   round, !same);
        cnt_[b] = 0;
        rekey(bn);
        rekeyTouched();
    }

    placeLeaves(true);
    for (int r : dirty_)
        dirty_flag_[static_cast<std::size_t>(r)] = 0;
    dirty_.clear();
    std::swap(log_, next_log_);
    std::swap(log_flows_, next_log_flows_);
    return rate_;
}

} // namespace wss::flow
