/**
 * @file
 * Pipelined flit and credit channels.
 *
 * A channel of latency L delivers whatever is pushed in cycle t at
 * cycle t+L, one flit per cycle (it is fully pipelined: L flits can
 * be in flight). Credits flow on a paired channel of the same
 * latency in the opposite direction, giving a credit round-trip of
 * 2L + processing — exactly the RTT that drives the buffer-sizing
 * results of Fig. 21.
 *
 * The flit direction is a fixed-capacity ring sized to its strict
 * bound. Every consumer pops on the exact delivery cycle (a router
 * ingests the arrivals its wake wheel schedules, a terminal ejects
 * the arrivals its ejection wheel schedules, and pop()/peek() panic
 * on a missed cycle), and a producer pushes at most once per cycle,
 * so at most latency + 1 items are ever live: those pushed in cycles
 * t - latency .. t. The ring holds latency + 2 entries — latency +
 * lead + 2 for a router-fed channel, whose flit latency includes the
 * output-pipeline lead — and overflow is a loud protocol bug, never
 * silent growth. Credits carry no payload and every consumer only
 * counts them, so the reverse direction stores nothing but its
 * latency: a credit is a wake-wheel entry at its arrival cycle.
 *
 * ChannelPair additionally carries wake-at-delivery sink descriptors
 * for the active-set scheduler: pushing into a channel schedules a
 * wake for the consumer (a router port, or a terminal's ejection-
 * pending bit) at the cycle the item actually arrives — not at push
 * time — so consumers are never polled while an item is still in
 * flight, and an idle router or terminal is touched exactly once per
 * delivery.
 */

#ifndef WSS_SIM_CHANNEL_HPP
#define WSS_SIM_CHANNEL_HPP

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/flit.hpp"
#include "util/logging.hpp"

namespace wss::sim {

class Router;

/**
 * A fixed-latency, fully pipelined delivery line for items of type T.
 * The ring holds latency + 2 items: the strict bound of a consumer
 * that pops every item on its delivery cycle.
 */
template <typename T>
class DelayLine
{
  public:
    explicit DelayLine(int latency) : latency_(latency)
    {
        if (latency < 1)
            fatal("DelayLine: latency must be >= 1 cycle");
        slots_.resize(static_cast<std::size_t>(latency + 2));
    }

    int latency() const { return latency_; }

    /// Push an item in cycle @p now; at most one per cycle.
    void
    push(Cycle now, T item)
    {
        if (count_ != 0) {
            std::size_t back = head_ + count_ - 1;
            if (back >= slots_.size())
                back -= slots_.size();
            if (slots_[back].ready == now + latency_)
                panic("DelayLine: two pushes in one cycle");
        }
        if (count_ == slots_.size())
            panic("DelayLine: ring overflow (a consumer missed its "
                  "delivery cycle)");
        std::size_t slot = head_ + count_;
        if (slot >= slots_.size())
            slot -= slots_.size();
        slots_[slot].ready = now + latency_;
        slots_[slot].item = std::move(item);
        ++count_;
        ++total_pushed_;
    }

    /// Pop the item arriving in cycle @p now, if any.
    std::optional<T>
    pop(Cycle now)
    {
        if (count_ == 0 || slots_[head_].ready > now)
            return std::nullopt;
        if (slots_[head_].ready < now)
            panic("DelayLine: item missed its delivery cycle");
        T item = std::move(slots_[head_].item);
        if (++head_ == slots_.size())
            head_ = 0;
        --count_;
        return item;
    }

    /// In-place variant of pop() for consumers that read the item
    /// where it sits (no optional, no copy): the item arriving in
    /// cycle @p now, or nullptr. The pointer is valid until the next
    /// popFront()/push().
    T *
    peek(Cycle now)
    {
        if (count_ == 0 || slots_[head_].ready > now)
            return nullptr;
        if (slots_[head_].ready < now)
            panic("DelayLine: item missed its delivery cycle");
        return &slots_[head_].item;
    }

    /// Discard the front item (after a successful peek()).
    void
    popFront()
    {
        if (++head_ == slots_.size())
            head_ = 0;
        --count_;
    }

    bool empty() const { return count_ == 0; }
    std::size_t inFlight() const { return count_; }

    /// Items ever pushed (for utilization statistics).
    std::uint64_t totalPushed() const { return total_pushed_; }

  private:
    struct Entry
    {
        Cycle ready;
        T item;
    };

    int latency_;
    std::vector<Entry> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t total_pushed_ = 0;
};

/**
 * Flit channel + its reverse credit latency, plus the wake sinks the
 * Network wires for active-set scheduling. Exactly one of flit_sink
 * (a router input port) and eject_wheel (the network's terminal-
 * ejection timing wheel) is set on fabric channels, and exactly one
 * of credit_sink (a router output port) and credit_wheel (the
 * network's terminal-credit wheel).
 */
struct ChannelPair
{
    DelayLine<Flit> flits;
    /// Cycles a credit takes back to the producer (the wire latency).
    int credit_latency;

    Router *flit_sink = nullptr;
    std::int32_t flit_sink_port = -1;
    Router *credit_sink = nullptr;
    std::int32_t credit_sink_port = -1;
    /// Terminal-bound channels: delivery-cycle slot in the network's
    /// ejection wheel gets this terminal id on every push.
    std::vector<std::vector<std::int32_t>> *eject_wheel = nullptr;
    std::int32_t eject_terminal = -1;
    std::uint32_t eject_wheel_mask = 0;
    /// Terminal-injection channels: every credit push lands this
    /// terminal id in the network's credit wheel at the arrival cycle
    /// — Network::step then bumps the terminal's credit count exactly
    /// when the credit arrives, so injection readiness is two array
    /// reads with no per-attempt channel drain.
    std::vector<std::vector<std::int32_t>> *credit_wheel = nullptr;
    std::int32_t credit_terminal = -1;
    std::uint32_t credit_wheel_mask = 0;

    /// @p flit_lead: extra flit-direction delay folding the upstream
    /// router's output pipeline (VA/SA/ST depth) into the channel —
    /// an arbitrated flit is pushed once, at allocation time, and
    /// simply delivered at t + lead + latency, with no staging ring
    /// to drain in between. Credits are unaffected: they leave at
    /// allocation time and take only the wire latency.
    explicit ChannelPair(int latency, int flit_lead = 0)
        : flits(latency + flit_lead), credit_latency(latency)
    {
        if (latency < 1 || flit_lead < 0)
            fatal("ChannelPair: need latency >= 1 and lead >= 0");
    }
};

} // namespace wss::sim

#endif // WSS_SIM_CHANNEL_HPP
