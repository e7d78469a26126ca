/**
 * @file
 * Flits and packets — the units of the cycle-accurate fabric
 * simulator (paper Section VI, Fig. 20).
 *
 * The simulator models wormhole switching with virtual channels:
 * packets are split into flits; the head flit acquires a route and a
 * VC, body flits follow it, and the tail flit releases the VC. Flit
 * length is chosen so one flit matches the SSC line rate per
 * simulation cycle (the paper uses 20 ns cycles and sizes flits to
 * the TH-5 line rate).
 */

#ifndef WSS_SIM_FLIT_HPP
#define WSS_SIM_FLIT_HPP

#include <cstdint>

namespace wss::sim {

/// Simulation time in cycles.
using Cycle = std::int64_t;

/**
 * One flit in flight: exactly what a router reads (destination, VC,
 * hop count, head/tail) plus the packet it belongs to. Per-packet
 * timestamps live in the Simulator's packet table, keyed by
 * `packet`, so a flit stays 16 bytes: it sets the size of every
 * channel-ring entry and flit-pool slot the cycle loop walks.
 */
struct Flit
{
    /// Packet this flit belongs to (the Simulator's packet-table
    /// slot; raw drivers may use any id).
    std::uint32_t packet = 0;
    /// Destination terminal id.
    std::int32_t dst = 0;
    /// Virtual channel currently carrying the flit (set hop by hop).
    std::int16_t vc = 0;
    /// Router hops taken so far (for hop statistics).
    std::int16_t hops = 0;
    /// True for the first flit of a packet (triggers RC + VA).
    bool head = false;
    /// True for the last flit (releases the VC); single-flit packets
    /// are both head and tail.
    bool tail = false;
};
static_assert(sizeof(Flit) == 16);

} // namespace wss::sim

#endif // WSS_SIM_FLIT_HPP
