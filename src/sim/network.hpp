/**
 * @file
 * Fabric network: routers + channels + terminals, built from a
 * LogicalTopology.
 *
 * Every logical-topology node becomes a Router whose first ports face
 * terminals (the node's external ports) and whose remaining ports
 * carry the inter-chiplet links (one channel per unit of link
 * multiplicity). Channel latencies model the physical technology:
 * on-wafer hops are ~1 cycle while inter-box links in the baseline
 * switch network take several (Table V); per-link overrides let the
 * benches charge mapped multi-hop feedthrough latencies.
 *
 * Routing is shortest-path ECMP: each router holds, per destination
 * router, the set of output ports on minimal paths, and picks one
 * uniformly at random per packet. On the folded-Clos fabrics the
 * paper simulates this is classic up/down routing and is
 * deadlock-free.
 */

#ifndef WSS_SIM_NETWORK_HPP
#define WSS_SIM_NETWORK_HPP

#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/flit_pool.hpp"
#include "sim/router.hpp"
#include "topology/logical_topology.hpp"

namespace wss::sim {

/// Network-wide simulation parameters.
struct NetworkSpec
{
    /// Virtual channels per router port.
    int vcs = 16;
    /// Shared input buffer per router port (flits).
    int buffer_per_port = 32;
    /// RC delay at ingress (terminal-facing) inputs, cycles.
    int rc_delay_ingress = 1;
    /// RC delay at transit inputs, cycles.
    int rc_delay_transit = 1;
    /// VA/SA/ST pipeline depth, cycles (>= 1).
    int pipeline_delay = 1;
    /// Terminal-to-router channel latency (the paper's "I/O delay").
    int terminal_link_latency = 1;
    /// Default router-to-router channel latency.
    int internal_link_latency = 1;
    /// Optional per-logical-link latency override (indexed like
    /// LogicalTopology::links(); empty = use the default).
    std::vector<int> link_latency;
    /// ECMP next-hop selection: oblivious (false, default) or
    /// credit-adaptive (true). See RouterConfig::adaptive_routing.
    bool adaptive_routing = false;
};

/**
 * The simulated fabric. Terminals inject/eject through
 * tryInject()/eject(); step() advances every router one cycle.
 */
class Network
{
  public:
    Network(const topology::LogicalTopology &topo, const NetworkSpec &spec,
            std::uint64_t seed);

    int terminalCount() const { return terminal_count_; }
    int routerCount() const { return static_cast<int>(routers_.size()); }
    const NetworkSpec &spec() const { return spec_; }

    /// Router @p r (read-only; the fault layer inspects port state
    /// and routing behaviour through this).
    const Router &
    router(int r) const
    {
        return *routers_.at(static_cast<std::size_t>(r));
    }

    /// Number of logical links (indexed like LogicalTopology::links()).
    int
    linkCount() const
    {
        return static_cast<int>(link_channel_count_.size());
    }

    /// Administrative state of logical link @p link.
    bool
    linkUp(int link) const
    {
        return link_up_.at(static_cast<std::size_t>(link)) != 0;
    }

    /**
     * Kill (@p up false) or restore (@p up true) logical link
     * @p link and rebuild every routing table excluding dead links.
     * Flits already in flight on the link keep draining (the
     * maintenance model: a failed link carries no *new* packets);
     * new route computations only see surviving paths. Calls
     * fatal() if the surviving fabric is partitioned.
     */
    void setLinkUp(int link, bool up);

    /// Router hosting terminal @p t (for locality-aware workloads).
    int routerOfTerminal(int t) const { return terminal_router_[t]; }

    /**
     * Try to inject @p flit at terminal @p t (at most one flit per
     * terminal per cycle). Fails (returns false) when the terminal
     * has no credit for the router's input buffer.
     */
    bool tryInject(int t, Cycle now, const Flit &flit);

    /**
     * Would tryInject accept a flit at terminal @p t this cycle?
     * Two array reads (returned credits arrive through the credit
     * wheel during step(), not via a per-attempt channel drain), so a
     * false return lets the caller skip preparing the flit entirely
     * (the hot case at saturation, where most terminals are blocked
     * on credits every cycle).
     */
    bool
    injectReady(int t, Cycle now) const
    {
        const TerminalEndpoint &ep =
            terminals_[static_cast<std::size_t>(t)];
        return ep.credits > 0 && ep.last_inject != now;
    }

    /// Collect the flit arriving at terminal @p t this cycle, if any.
    std::optional<Flit> eject(int t, Cycle now);

    /**
     * Terminals with a flit arriving this cycle, one bit per
     * terminal id, valid between step(now - 1) and step(now).
     * Ejection sweeps iterate set bits (ascending) instead of every
     * terminal; a successful eject() clears its bit (each delivery
     * sets the bit for exactly its arrival cycle, scheduled through
     * the ejection timing wheel at push time).
     */
    const std::vector<std::uint64_t> &
    ejectPending() const
    {
        return eject_mask_;
    }

    /// Advance the active routers one cycle (the scheduler tracks
    /// which routers have pending work). Call after terminal
    /// handling.
    void step(Cycle now);

    /// Flits anywhere in the fabric (buffers, stages, channels) --
    /// zero means fully drained.
    std::int64_t flitsInFlight() const;

    /// Number of virtual channels a terminal can spread packets over.
    int vcs() const { return spec_.vcs; }

    /// Measured utilization of every logical link over @p elapsed
    /// cycles: flits actually forwarded / channel-cycles offered,
    /// indexed like LogicalTopology::links(). Both directions and
    /// all parallel channels of a bundle are aggregated — the
    /// measured counterpart of the mapping layer's provisioned
    /// channel loads (Fig. 8).
    std::vector<double> linkUtilization(Cycle elapsed) const;

    /// Cumulative flits forwarded over every logical link (both
    /// directions and all parallel channels summed), indexed like
    /// LogicalTopology::links().
    std::vector<std::uint64_t> linkFlitsForwarded() const;

    /// Physical channels per logical link (2 x multiplicity).
    const std::vector<int> &
    linkChannelCount() const
    {
        return link_channel_count_;
    }

    /**
     * Attach per-router instruments (`r<i>.vc_alloc_failures`,
     * `r<i>.sa_conflicts`, `r<i>.credit_stalls`, `r<i>.flits_routed`)
     * backed by @p registry, which must outlive this network.
     */
    void instrument(obs::MetricsRegistry &registry);

  private:
    struct TerminalEndpoint
    {
        std::unique_ptr<ChannelPair> to_router;
        std::unique_ptr<ChannelPair> from_router;
        int credits = 0;
        Cycle last_inject = -1;
    };

    /// One unit of a link bundle as seen from one endpoint router.
    struct PortLink
    {
        int port = 0;
        int neighbor = 0;
        /// Logical link index (for the administrative up/down state).
        int link = 0;
    };

    /**
     * Recompute every router's shortest-path ECMP table over the
     * live links (link_up_) and install them. Fails loudly — both
     * when a destination router is unreachable and when a reachable
     * destination would end up with an empty ECMP candidate set —
     * rather than letting packets silently drop.
     */
    void buildRoutingTables();

    NetworkSpec spec_;
    int terminal_count_ = 0;
    /// Arena backing every router's VC queues, sized to the fabric's
    /// total input-buffer capacity.
    FlitPool pool_;
    /// Active-set scheduler: only routers with pending work step.
    RouterScheduler sched_;
    /// Terminals with a flit arriving this cycle (see ejectPending).
    std::vector<std::uint64_t> eject_mask_;
    /// Delivery-cycle wheel feeding eject_mask_: slot c & mask lists
    /// the terminals whose flit arrives in cycle c. Terminal-bound
    /// channel pushes append here; step(now) drains slot now + 1.
    std::vector<std::vector<std::int32_t>> eject_wheel_;
    std::uint32_t eject_wheel_mask_ = 0;
    /// Delivery-cycle wheel for terminal injection credits: slot
    /// c & mask lists one entry per credit arriving in cycle c.
    /// step(now) drains slot now + 1 into the terminals' credit
    /// counts, so inject(now + 1) sees every credit that has arrived.
    std::vector<std::vector<std::int32_t>> credit_wheel_;
    std::uint32_t credit_wheel_mask_ = 0;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<ChannelPair>> link_channels_;
    /// Channels per logical link (2 x multiplicity), for utilization
    /// aggregation.
    std::vector<int> link_channel_count_;
    std::vector<TerminalEndpoint> terminals_;
    std::vector<std::int32_t> terminal_router_;
    /// Per-router adjacency (one entry per unit of multiplicity),
    /// retained for routing-table rebuilds after link failures.
    std::vector<std::vector<PortLink>> adjacency_;
    /// Administrative per-link state; 1 = up.
    std::vector<char> link_up_;
    /// Per-router terminal -> local output port (-1 elsewhere).
    std::vector<std::vector<std::int16_t>> term_port_;
};

} // namespace wss::sim

#endif // WSS_SIM_NETWORK_HPP
