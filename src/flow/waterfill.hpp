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
 * Cost model. With F flows of path length L over T distinct touched
 * resources, one solve takes O(F·L) to index the instance plus
 * O(T) to build a tournament tree over the resources' fair shares.
 * Each round reads the bottleneck off the root in O(1) and re-keys
 * only the resources whose remcap/cnt changed (the frozen flows'
 * resources plus the bottleneck itself), each in O(log T). A solve
 * is therefore O(F·L·log T + T), against O(rounds·T) for re-scanning
 * every resource each round.
 *
 * Bit-identity contract. The result is bit-identical to the textbook
 * linear scan that walks the resources in first-touch order (flows
 * in addFlow order, each flow's resources in list order) and keeps
 * the first strictly smaller remcap/cnt. Ties between equal fair
 * shares — the common case, since every NIC has the same capacity —
 * go to the earliest-touched resource, share values are computed by
 * the same division, and deductions happen in the same order. Only
 * the search for the bottleneck changed. tests/test_flow.cpp holds
 * that linear scan as a reference and checks rates bitwise.
 */

#ifndef WSS_FLOW_WATERFILL_HPP
#define WSS_FLOW_WATERFILL_HPP

#include <cstddef>
#include <vector>

namespace wss::flow {

/**
 * Reusable max-min solver over a fixed set of resource capacities.
 * Build an instance with clear() + addFlow(), then solve(); every
 * buffer is kept between instances, so the steady state of a long
 * simulation allocates nothing.
 */
class Waterfill
{
  public:
    /// @p capacity[r] is resource r's capacity (bytes/s).
    explicit Waterfill(std::vector<double> capacity);

    std::size_t flowCount() const { return flow_off_.size() - 1; }

    /// Drop every flow of the current instance.
    void clear();

    /// Add a flow crossing the resource ids in @p res (at least one,
    /// each indexing the capacities).
    void addFlow(const std::vector<int> &res);

    /// Max-min fair rate of every flow, indexed by addFlow order.
    /// panic() when a flow can never be frozen (every resource it
    /// crosses has an infinite or NaN fair share).
    const std::vector<double> &solve();

  private:
    /// Tournament-tree entry: the winning resource position of a
    /// subtree and its fair share (+inf when unloaded).
    struct Node
    {
        double key;
        int pos;
    };

    static Node match(const Node &left, const Node &right);
    double fairShare(int p) const;
    void rekey(int p);

    std::vector<double> cap_;
    /// Per resource id: its position in touched_, or -1.
    std::vector<int> pos_;

    // Instance, indexed by touched position (first-touch order).
    std::vector<int> touched_;
    std::vector<int> users_cnt_;
    std::vector<std::size_t> flow_off_{0};
    std::vector<int> flow_pos_;

    // Solve state.
    std::vector<std::size_t> user_off_;
    std::vector<int> users_;
    std::vector<double> remcap_;
    std::vector<int> cnt_;
    std::vector<char> frozen_;
    std::vector<char> dirty_flag_;
    std::vector<int> dirty_;
    std::vector<double> rate_;
    /// Implicit binary tree: root at 1, leaves at leaves_ + p.
    std::vector<Node> nodes_;
    std::size_t leaves_ = 1;
};

} // namespace wss::flow

#endif // WSS_FLOW_WATERFILL_HPP
