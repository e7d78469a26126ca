/**
 * @file
 * Cycle-accurate virtual-channel router — paper Section VI, Fig. 20.
 *
 * Models the four-stage switch microarchitecture the paper simulates
 * with Booksim2: route computation (RC), virtual-channel allocation
 * (VA), switch allocation (SA), and switch traversal (ST). Input
 * ports hold a shared flit buffer divided into per-VC queues
 * (the paper's "shared buffer policy for all the input ports");
 * credit-based flow control tracks the downstream shared pool as an
 * aggregate credit count plus per-output-VC ownership.
 *
 * Timing: a head flit that arrives in cycle t completes RC in
 * t + rc_delay, may win VA and SA in that same cycle, and spends
 * pipeline_delay cycles in the output stage (VA/SA/ST pipeline
 * depth), so the zero-load router traversal is
 * rc_delay + pipeline_delay cycles. The RC delay differs between
 * ingress (terminal-facing) and transit inputs to model the paper's
 * proprietary routing optimization (Fig. 22): with a fixed topology,
 * non-ingress SSCs skip the L3 IP-table lookup.
 *
 * Storage and scheduling are built for throughput without changing
 * results: VC queues are intrusive lists over a network-wide
 * FlitPool, the VA/SA/ST pipeline depth is folded into each output
 * channel's flit lead (an arbitrated flit is pushed exactly once, at
 * allocation time, and arrives pipeline_delay + wire latency cycles
 * later), and per-port pending-work bitmasks (arriving flits,
 * returning credits, occupied inputs) drive both the intra-router
 * loops and the network-level active set — an idle router is never
 * stepped, a busy one only touches ports that have work. All channel latencies are
 * >= 1 cycle, so nothing a router does in cycle t is visible to any
 * other router until t+1 and the active-set step order cannot affect
 * simulation results.
 */

#ifndef WSS_SIM_ROUTER_HPP
#define WSS_SIM_ROUTER_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/flit.hpp"
#include "sim/flit_pool.hpp"
#include "util/rng.hpp"

namespace wss::sim {

/**
 * Optional observability instruments for one router. Default-
 * constructed handles are no-ops (a single predicted branch each), so
 * an un-instrumented router pays essentially nothing; the Simulator
 * binds them to its obs::MetricsRegistry when observability is on.
 */
struct RouterInstruments
{
    /// Cycles a head flit waited because no output VC was free.
    obs::Counter vc_alloc_failures;
    /// Losing switch-allocation requests (requesters - 1 per grant).
    obs::Counter sa_conflicts;
    /// Cycles an Active VC was passed over for lack of credits.
    obs::Counter credit_stalls;
    /// Flits forwarded through the crossbar.
    obs::Counter flits_routed;
};

/// Static configuration of one router.
struct RouterConfig
{
    /// Bidirectional ports (terminal ports first, then link ports).
    int ports = 0;
    /// Ports 0..terminal_ports-1 face terminals (ingress RC delay).
    int terminal_ports = 0;
    /// Virtual channels per port.
    int vcs = 1;
    /// Shared input-buffer capacity per port (flits).
    int buffer_per_port = 8;
    /// RC delay for packets arriving from terminals (cycles).
    int rc_delay_ingress = 1;
    /// RC delay for packets arriving from other routers (cycles).
    int rc_delay_transit = 1;
    /// VA/SA/ST pipeline depth beyond RC (cycles, >= 1).
    int pipeline_delay = 1;
    /// ECMP next-hop selection: false = oblivious (uniform random,
    /// the Booksim default), true = adaptive (power-of-two-choices on
    /// downstream credits).
    bool adaptive_routing = false;
};

/**
 * The Network's active set: routers with pending work, deduplicated
 * by a per-router flag. A channel push schedules a wake for the
 * consuming router at the delivery cycle (a timing-wheel slot), so a
 * router with traffic merely in flight toward it is never stepped;
 * same-cycle re-arming (a busy router keeping itself active) goes
 * through the immediate pending set. Network::step merges the
 * current wheel slot into the pending set and steps only those.
 */
class RouterScheduler
{
  public:
    /// Size for @p routers routers and wakes up to @p max_latency
    /// cycles ahead; reserves so wake() never allocates afterwards
    /// (the flag bounds the set to one entry per router).
    void
    attach(int routers, int max_latency = 1)
    {
        flags_.assign(static_cast<std::size_t>(routers), 0);
        pending_.clear();
        pending_.reserve(static_cast<std::size_t>(routers));
        run_.clear();
        run_.reserve(static_cast<std::size_t>(routers));
        const std::size_t slots = std::bit_ceil(
            static_cast<std::size_t>(max_latency) + 2);
        wheel_.assign(slots, {});
        wheel_mask_ = slots - 1;
    }

    void
    wake(std::int32_t id)
    {
        auto &flag = flags_[static_cast<std::size_t>(id)];
        if (!flag) {
            flag = 1;
            pending_.push_back(id);
        }
    }

    /// Schedule a wake for cycle @p cycle (at most max_latency ahead
    /// of the current cycle). Consecutive duplicate ids are dropped,
    /// which already collapses the common burst — one router pushing
    /// many items toward the same consumer in one cycle.
    void
    wakeAt(std::int32_t id, Cycle cycle)
    {
        auto &slot = wheel_[static_cast<std::size_t>(cycle) &
                            wheel_mask_];
        if (slot.empty() || slot.back() != id)
            slot.push_back(id);
    }

    /// Merge cycle @p now's wheel slot into the pending set, swap it
    /// into the run list (clearing flags so this cycle's pushes
    /// re-arm routers for the next cycle) and return it. Wake order
    /// is arrival order; with all channel latencies >= 1 the step
    /// order is invisible to results. Cycles must be stepped
    /// consecutively — the strict channels already require that.
    std::vector<std::int32_t> &
    beginCycle(Cycle now)
    {
        auto &slot =
            wheel_[static_cast<std::size_t>(now) & wheel_mask_];
        for (const std::int32_t id : slot)
            wake(id);
        slot.clear();
        run_.swap(pending_);
        pending_.clear();
        for (const std::int32_t id : run_)
            flags_[static_cast<std::size_t>(id)] = 0;
        return run_;
    }

  private:
    std::vector<std::int32_t> pending_;
    std::vector<std::int32_t> run_;
    std::vector<std::uint8_t> flags_;
    /// wheel_[c & mask] holds the ids to wake in cycle c.
    std::vector<std::vector<std::int32_t>> wheel_{1};
    std::size_t wheel_mask_ = 0;
};

/**
 * One router instance. The Network wires its ports to channels and
 * steps it through the scheduler whenever it has work.
 */
class Router
{
  public:
    /**
     * @param id    router id (for routing-table lookups)
     * @param cfg   static configuration
     * @param seed  RNG seed for ECMP candidate selection
     * @param pool  flit arena backing the VC queues (shared across
     *              the network; must outlive the router)
     */
    Router(int id, const RouterConfig &cfg, std::uint64_t seed,
           FlitPool *pool);

    int id() const { return id_; }
    const RouterConfig &config() const { return cfg_; }

    /// Bind the network's active-set scheduler (nullptr detaches;
    /// wakes then become no-ops for standalone stepping).
    void bindScheduler(RouterScheduler *sched) { sched_ = sched; }

    /**
     * Wire input port @p port to @p channel (flits arrive on
     * channel->flits, credits return through channelPushCredit).
     * Terminal injection ports use the terminal's channel; pass
     * nullptr for unused ports.
     */
    void connectInput(int port, ChannelPair *channel);

    /**
     * Wire output port @p port to @p channel and declare the
     * downstream buffer capacity backing the credit count.
     */
    void connectOutput(int port, ChannelPair *channel,
                       int downstream_buffer);

    /**
     * Install the routing table: for every destination router, the
     * candidate output ports (shortest-path ECMP) in CSR form.
     * Destinations terminating here use the terminal port directly.
     *
     * @param dst_router_of_terminal  terminal id -> router id table,
     *        owned by the Network and shared by all routers
     * @param candidate_offsets  CSR offsets, one entry per router + 1
     * @param candidate_ports    CSR payload of output ports
     * @param terminal_port_of   terminal id -> local output port, or
     *        -1 when the terminal is not attached here
     */
    void installRoutes(
        const std::vector<std::int32_t> *dst_router_of_terminal,
        std::vector<std::int32_t> candidate_offsets,
        std::vector<std::int16_t> candidate_ports,
        std::vector<std::int16_t> terminal_port_of);

    /**
     * Administratively enable/disable output port @p port (fault
     * layer). Disabled ports are excluded from rebuilt routing
     * tables; flits already staged for the port keep draining so
     * wormhole state stays consistent.
     */
    void setPortEnabled(int port, bool enabled);

    /// Administrative state of output port @p port.
    bool
    portEnabled(int port) const
    {
        return port_enabled_.at(static_cast<std::size_t>(port)) != 0;
    }

    /// Call once after the last connectInput/connectOutput: pre-sizes
    /// every wake-wheel slot to its structural bound (one flit wake
    /// per input port plus one credit wake per output port can land
    /// on the same future cycle), so scheduling a wake never
    /// allocates — part of the cycle loop's zero-steady-state-
    /// allocation invariant.
    void
    finalizeWiring()
    {
        for (auto &slot : wake_wheel_)
            slot.reserve(2 * static_cast<std::size_t>(cfg_.ports));
    }

    /// Attach observability instruments (pass {} to detach).
    void setInstruments(const RouterInstruments &instr)
    {
        instr_ = instr;
    }

    /**
     * Advance one cycle: ingest flits/credits, run RC/VA/SA/ST.
     * @return true while the router still has pending work (buffered
     * or staged flits, or in-flight arrivals) and must be stepped
     * again next cycle.
     */
    bool step(Cycle now);

    /// A flit will arrive at input port @p port in cycle @p ready:
    /// schedule the port's pending bit and the router's wake for
    /// exactly that cycle (called on channel push).
    void
    noteIncomingFlit(int port, Cycle ready)
    {
        wake_wheel_[static_cast<std::size_t>(ready) & wake_mask_]
            .push_back(port);
        if (sched_)
            sched_->wakeAt(id_, ready);
    }

    /// A credit will arrive at output port @p port in cycle @p ready:
    /// the wheel entry itself carries it (one entry = one credit,
    /// applied to the port's count when the slot drains).
    void
    noteIncomingCredit(int port, Cycle ready)
    {
        wake_wheel_[static_cast<std::size_t>(ready) & wake_mask_]
            .push_back(-(port + 1));
        if (sched_)
            sched_->wakeAt(id_, ready);
    }

    /// Total flits currently buffered (for drain detection).
    std::int64_t bufferedFlits() const { return buffered_; }

    /// Occupancy of one input port's shared buffer (for tests).
    int portOccupancy(int port) const { return inputs_[port].occupancy; }

    /// Credits available at an output port (for tests).
    int outputCredits(int port) const { return outputs_[port].credits; }

  private:
    /// Per-VC input state machine.
    enum class VcState : std::uint8_t
    {
        Idle,
        Routing,
        WaitVc,
        Active,
    };

    /// Packed to 32 bytes (two per cache line): the RC/VA and SA
    /// scans hit these at random VC offsets, so struct size directly
    /// sets their miss rate once ports * vcs outgrows the caches.
    struct InputVc
    {
        /// Intrusive FIFO through the flit pool.
        FlitPool::Index q_head = FlitPool::kNil;
        FlitPool::Index q_tail = FlitPool::kNil;
        Cycle rc_ready = 0;
        /// Destination of the packet in flight, cached when the head
        /// flit is first seen (route() inputs are per-packet
        /// invariants).
        std::int32_t dst_terminal = -1;
        std::int32_t dst_router = -1;
        std::int16_t out_port = -1;
        std::int16_t out_vc = -1;
        /// Back-index into the port's occupied list while queued.
        std::int16_t occ_pos = -1;
        VcState state = VcState::Idle;
    };
    static_assert(sizeof(InputVc) == 32);

    struct InputPort
    {
        ChannelPair *channel = nullptr;
        std::vector<InputVc> vcs;
        /// VC ids with non-empty queues (active set; keeps the per-
        /// cycle work proportional to traffic, not to port * VC).
        std::vector<std::int16_t> occupied;
        /// Occupied VCs not yet in the Active state: exactly the set
        /// the RC/VA state machines must visit. Processing sorts by
        /// occ_pos, reproducing the occupied-order scan without
        /// walking the (mostly Active) occupied list. Invariant:
        /// pending is a subset of occupied — a non-Active VC cannot
        /// be dequeued, so membership only ends through VA success.
        std::vector<std::int16_t> pending;
        /// VCs currently in the Active state. Zero means the SA
        /// nomination walk cannot find a candidate and is skipped
        /// outright (the common case while a lone packet sits in its
        /// RC delay at low load); the walk leaves no trace when it
        /// nominates nothing, so skipping it is invisible.
        int active_vcs = 0;
        int occupancy = 0;
        int rr = 0; // SA round-robin cursor into occupied
    };

    struct OutputPort
    {
        ChannelPair *channel = nullptr;
        /// Owning input VC (encoded port * vcs + vc) per output VC.
        std::vector<std::int32_t> vc_owner;
        int credits = 0;
        int rr_vc = 0;    // VA round-robin over output VCs
        int rr_input = 0; // SA round-robin over requesting inputs
    };

    struct Request
    {
        std::int32_t in_port;
        std::int16_t in_vc;
    };

    void ingest(Cycle now);
    void runInputStages(Cycle now);
    void arbitrateOutputs(Cycle now);

    /// Ensure the wake wheel spans @p latency cycles of look-ahead
    /// (called while wiring, before any traffic exists).
    void
    growWakeWheel(int latency)
    {
        const std::size_t slots =
            std::bit_ceil(static_cast<std::size_t>(latency) + 2);
        if (slots > wake_wheel_.size()) {
            wake_wheel_.resize(slots);
            wake_mask_ = slots - 1;
        }
    }

    /// Pick the output port for a routed head flit.
    std::int16_t route(std::int32_t dst_terminal,
                       std::int32_t dst_router);

    int id_;
    RouterConfig cfg_;
    Rng rng_;
    RouterInstruments instr_;
    FlitPool *pool_;
    RouterScheduler *sched_ = nullptr;

    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    /// Administrative per-port state (fault layer); 1 = up.
    std::vector<char> port_enabled_;

    /// Pending-work bitmasks, one bit per port: flits arriving this
    /// cycle on an input channel (materialized from the wake wheel at
    /// the top of step() and fully consumed by ingest) and inputs
    /// with occupied VCs. busy empty <=> the router may leave the
    /// active set (arrivals re-wake it through the scheduler's wheel,
    /// and arbitrated flits leave through their output channel at
    /// push time — the VA/SA/ST pipeline depth rides on the channel's
    /// flit lead, so there is no staging ring to drain). Credits need
    /// no mask at all: each wake-wheel entry is one credit, applied
    /// directly when its slot drains.
    std::vector<std::uint64_t> in_flit_mask_;
    std::vector<std::uint64_t> busy_mask_;

    /// Delivery-cycle wake wheel: wake_wheel_[c & mask] lists the
    /// ports with an arrival in cycle c — port for a flit,
    /// -(port + 1) for a credit. Sized at wiring time to cover the
    /// longest attached channel.
    std::vector<std::vector<std::int32_t>> wake_wheel_{1};
    std::size_t wake_mask_ = 0;

    const std::vector<std::int32_t> *dst_router_of_terminal_ = nullptr;
    /// CSR routing table: candidates for router d live at
    /// [offsets[d], offsets[d+1]).
    std::vector<std::int32_t> route_offsets_;
    std::vector<std::int16_t> route_ports_;
    std::vector<std::int16_t> terminal_port_of_;

    /// Per-output request lists, rebuilt each cycle.
    std::vector<std::vector<Request>> requests_;
    std::vector<std::int16_t> touched_outputs_;

    std::int64_t buffered_ = 0;
};

/// Push a flit into a channel and schedule its consumer's wake (a
/// router input port, or a terminal's ejection-pending bit) for the
/// delivery cycle.
inline void
channelPushFlit(ChannelPair &ch, Cycle now, const Flit &flit)
{
    ch.flits.push(now, flit);
    const Cycle ready = now + ch.flits.latency();
    if (ch.flit_sink)
        ch.flit_sink->noteIncomingFlit(ch.flit_sink_port, ready);
    else if (ch.eject_wheel)
        (*ch.eject_wheel)[static_cast<std::size_t>(ready) &
                          ch.eject_wheel_mask]
            .push_back(ch.eject_terminal);
}

/// Push a credit toward a channel's consumer for delivery after the
/// credit latency. A credit carries nothing: a router-consumed credit
/// is a wake-wheel entry that bumps the output port's count at its
/// arrival cycle, and a terminal-injection credit is an entry in the
/// network's credit wheel (one entry = one credit).
inline void
channelPushCredit(ChannelPair &ch, Cycle now)
{
    const Cycle ready = now + ch.credit_latency;
    if (ch.credit_sink)
        ch.credit_sink->noteIncomingCredit(ch.credit_sink_port, ready);
    else if (ch.credit_wheel)
        (*ch.credit_wheel)[static_cast<std::size_t>(ready) &
                           ch.credit_wheel_mask]
            .push_back(ch.credit_terminal);
    else
        panic("channelPushCredit: channel has no credit consumer");
}

} // namespace wss::sim

#endif // WSS_SIM_ROUTER_HPP
