/**
 * @file
 * Max-min fair rate allocation by progressive filling — the
 * bandwidth solver behind flow::simulateFlows.
 *
 * Flows cross resources (directional NIC and trunk capacities).
 * Each fill round picks the bottleneck — the loaded resource with
 * the smallest fair share remcap/cnt (remaining capacity over
 * unfrozen flows) — freezes its unfrozen flows at that share,
 * deducts the share from every other resource those flows cross,
 * and repeats until every flow is frozen.
 *
 * The solver is persistent: it holds the flows in slots (append on
 * arrival, swap-with-last on removal, replace on reroute) and keeps
 * the previous solve's round log — per round the bottleneck, its
 * share, its tie-break key and the flows it froze. A solve replays
 * that log and re-solves only what the changes since it disturbed.
 *
 * Bit-identity contract. The result is bit-identical to the textbook
 * linear scan over the current slots: it walks the resources in
 * first-touch order (flows in slot order, each flow's resources in
 * list order) and keeps the first strictly smaller remcap/cnt. Ties
 * between equal fair shares — the common case, since every NIC has
 * the same capacity — go to the earliest-touched resource. The solver
 * orders resources by the same key, (first slot using the resource,
 * index in that flow's list), so it picks the same bottleneck in
 * every round, and every share is computed by the same division of
 * the same operands: a resource's remaining capacity is its capacity
 * minus its frozen users' rates in round order, which is the
 * subtraction sequence the global fill performs (all flows frozen in
 * one round share one rate, so their order within a round does not
 * matter). tests/test_flow.cpp holds that linear scan as a reference
 * and checks rates bitwise, on fresh instances and over long event
 * sequences.
 *
 * Dirty resources. A resource is dirty in a solve when its state may
 * differ from the log: it is crossed by a flow added, removed or
 * rerouted since the last solve, its tie-break key moved because a
 * swap-with-last changed its first user's slot, or a round of this
 * solve froze one of its users differently from the log (a round
 * whose bottleneck, share or frozen set is not the log's, or a log
 * round given up because its bottleneck turned dirty). Every other
 * resource is clean: its users were frozen exactly as the log says,
 * so it has the log's state and never needs to be looked at.
 *
 * Cost model. Only dirty resources enter the tournament tree, each
 * with its state rebuilt once by subtracting its frozen users' rates
 * in round order. The tree has one leaf per entry of the flat path
 * buffer (F flows x the longest path L), and a dirty resource sits at
 * its first-touch entry, so leaf order is tie-break order and a
 * re-key costs O(log(F·L)); between solves every leaf is +inf, and a
 * solve resets only the leaves it used. A log round is replayed,
 * without tree work, when its bottleneck is clean and no dirty
 * resource beats its (share, key): the clean resources were all
 * behind it in the previous solve and still hold that state. A
 * replayed round costs O(frozen flows) to re-freeze its flows, plus a
 * path walk for each frozen flow that crosses a dirty resource, to
 * charge it. A round the tree wins is also charged like a replay when
 * it reproduces the next log round bit for bit. A solve therefore
 * costs O(F) for the slot arrays and the replayed rounds plus
 * O(D·(U log U + log(F·L))) for the D dirty resources (U users
 * each), against O(F·L·log T + T) to solve F flows over T resources
 * from scratch. With an empty log — the first solve, or after
 * clear() — every touched resource is dirty and the solve is the
 * from-scratch one.
 */

#ifndef WSS_FLOW_WATERFILL_HPP
#define WSS_FLOW_WATERFILL_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace wss::flow {

/**
 * Persistent max-min solver over a fixed set of resource capacities.
 * Flows live in slots 0..flowCount()-1; every buffer is kept between
 * solves and slots are recycled, so the steady state of a long
 * simulation allocates nothing.
 */
class Waterfill
{
  public:
    /// @p capacity[r] is resource r's capacity (bytes/s).
    explicit Waterfill(std::vector<double> capacity);

    std::size_t flowCount() const { return flows_; }

    /// Drop every flow and the round log.
    void clear();

    /// Append a flow in slot flowCount(), crossing the resource ids
    /// in @p res (at least one, each indexing the capacities).
    void addFlow(const std::vector<int> &res);

    /// Remove the flow in @p slot; the last flow moves into it
    /// (swap-with-last, as the caller's own flow array does).
    void removeFlow(std::size_t slot);

    /// Replace the resources the flow in @p slot crosses (a reroute).
    void rerouteFlow(std::size_t slot, const std::vector<int> &res);

    /// The resource ids the flow in @p slot crosses, in list order.
    std::span<const int> resources(std::size_t slot) const
    {
        return {flat_.data() + slot * stride_, len_[slot]};
    }

    /// Max-min fair rate of every flow, indexed by slot. panic() when
    /// a flow can never be frozen (every resource it crosses has an
    /// infinite or NaN fair share).
    const std::vector<double> &solve();

  private:
    /// Tournament-tree entry: the winning resource of a subtree and
    /// its fair share (+inf when unloaded).
    struct Node
    {
        double key;
        int res;
    };

    /// One fill round of a solve.
    struct Round
    {
        int bottleneck;
        /// Fair share before the max(share, 0) clamp.
        double share;
        std::uint64_t tie;
        /// Its frozen slots: log_flows_[begin, end).
        std::size_t begin, end;
    };

    static bool beats(double key, std::uint64_t tie, double other_key,
                      std::uint64_t other_tie);
    static Node match(const Node &left, const Node &right);
    static std::uint64_t userKey(std::size_t slot, std::size_t idx);

    void checkResources(const std::vector<int> &res) const;
    void store(std::size_t slot, const std::vector<int> &res);
    void attach(std::size_t slot);
    void detach(std::size_t slot);
    void markChanged(int r, char level);
    std::uint64_t firstTouch(int r) const;
    double fairShare(int r) const;

    void enterDirty(int r, std::size_t round);
    void makeDirty(int r, std::size_t round);
    std::size_t leafOf(int r) const;
    void climb(std::size_t n);
    void rekey(int r);
    void placeLeaves(bool clear);
    void charge(std::size_t slot, int bottleneck, double rate,
                std::size_t round, bool cascade);

    std::vector<double> cap_;

    // Instance, by slot: the resource list (slot s holds
    // flat_[s * stride_, s * stride_ + len_[s]); stride_ is the longest
    // list so far) and the flow's position in log_flows_ (-1 when the
    // flow arrived after the last solve).
    std::size_t flows_ = 0;
    std::size_t stride_ = 0;
    std::vector<int> flat_;
    std::vector<std::size_t> len_;
    std::vector<std::ptrdiff_t> log_pos_;

    // Per resource: its users as userKey(slot, idx), one entry per
    // occurrence in any flow's list; the tie-break key (smallest
    // user entry, ~0 when unused); and whether it changed since the
    // last solve (changed_ lists those).
    std::vector<std::vector<std::uint64_t>> users_;
    std::vector<std::uint64_t> tie_;
    std::vector<char> changed_flag_;
    std::vector<int> changed_;

    // The previous solve's rounds, and the one being written.
    std::vector<Round> log_, next_log_;
    std::vector<std::ptrdiff_t> log_flows_, next_log_flows_;

    // Solve state. Per slot: frozen flag, whether it crosses a dirty
    // resource (only then does freezing it need to charge anything
    // outside a cascade), round it froze in and rate.
    std::vector<char> frozen_;
    std::vector<char> reaches_dirty_;
    std::vector<std::size_t> round_of_;
    std::vector<double> rate_;
    // Per resource: whether it is dirty (dirty_ lists those), its
    // remaining capacity and unfrozen user count (valid while dirty),
    // and the last round already counted in remcap_.
    std::vector<char> dirty_flag_;
    std::vector<double> remcap_;
    std::vector<int> cnt_;
    std::vector<std::size_t> built_;
    std::vector<int> dirty_;
    std::vector<char> touched_flag_;
    std::vector<int> touched_;
    std::vector<std::pair<std::size_t, double>> rebuild_;
    /// Implicit binary tree over the flat-buffer entries: root at 1,
    /// leaf leaves_ + s * stride_ + i for entry i of slot s. A dirty
    /// resource occupies its first-touch entry's leaf; every other
    /// leaf is +inf (between solves, all of them).
    std::vector<Node> nodes_;
    std::size_t leaves_ = 0;
};

} // namespace wss::flow

#endif // WSS_FLOW_WATERFILL_HPP
