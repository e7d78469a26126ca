/**
 * @file
 * The simulation driver: warmup / measurement / drain phases with
 * packet-latency and accepted-throughput statistics, in the Booksim2
 * methodology the paper uses for Figs. 21-24.
 */

#ifndef WSS_SIM_SIMULATOR_HPP
#define WSS_SIM_SIMULATOR_HPP

#include <functional>
#include <memory>

#include "obs/sim_observation.hpp"
#include "sim/network.hpp"
#include "sim/workload.hpp"
#include "util/ring_queue.hpp"
#include "util/stats_accumulator.hpp"

namespace wss::sim {

/// Phase lengths and bookkeeping knobs.
struct SimConfig
{
    /// Cycles before measurement starts (reach steady state).
    Cycle warmup = 2000;
    /// Measurement window length.
    Cycle measure = 8000;
    /// Extra cycles allowed to drain measured packets; if they do
    /// not all arrive, the run is flagged unstable (saturated).
    Cycle drain_limit = 30000;
    /// RNG seed.
    std::uint64_t seed = 1;
    /// Closed-loop trace mode: keep generating until the workload is
    /// exhausted (ignoring the measure window for generation) and
    /// measure every packet. The `measure` field then only bounds
    /// the run length.
    bool run_to_exhaustion = false;
    /// Optional per-cycle hook, invoked before generation each cycle
    /// (fault::FaultSchedule kills/restores links through this).
    std::function<void(Network &, Cycle)> on_cycle;
    /// Collect per-router counters, per-link flit totals and buffer-
    /// occupancy histograms (SimResult::observation). Off by default:
    /// the instruments then stay detached and the hot loop pays only
    /// dead branches. Never perturbs simulated behaviour — SimResult
    /// statistics are identical with this on or off.
    bool observe = false;
    /// With observe: also record a TimelineSample every N cycles
    /// (0 = no time series).
    Cycle observe_sample_every = 0;
};

/// What one simulation run produced.
struct SimResult
{
    /// Mean end-to-end packet latency, creation to tail ejection
    /// (cycles), over packets created in the measurement window.
    double avg_packet_latency = 0.0;
    /// 99th percentile of the same.
    double p99_packet_latency = 0.0;
    /// Mean network latency (tail injection to tail ejection).
    double avg_network_latency = 0.0;
    /// Mean router hops per packet.
    double avg_hops = 0.0;
    /// Offered load (flits per terminal per cycle, from the workload).
    double offered = 0.0;
    /// Accepted throughput: flits ejected during the measurement
    /// window per terminal per cycle.
    double accepted = 0.0;
    /// Packets created/finished in the measurement window.
    std::int64_t packets_measured = 0;
    std::int64_t packets_finished = 0;
    /// False when measured packets failed to drain (saturation).
    bool stable = false;
    /// Cycle the run ended (for run_to_exhaustion: the makespan).
    Cycle end_cycle = 0;
    /// Flits delivered over the whole run.
    std::int64_t flits_delivered = 0;
    /// Flits injected into the fabric over the whole run (the flit-
    /// conservation invariant checks injected == delivered +
    /// in-flight at run end).
    std::int64_t flits_injected = 0;
    /// Per-router/per-link telemetry; null unless SimConfig::observe.
    std::shared_ptr<const obs::SimObservation> observation;
};

/**
 * Runs one workload on one network.
 */
class Simulator
{
  public:
    /**
     * @param network   the fabric (state is consumed; build fresh per
     *                  run)
     * @param workload  packet generation process
     * @param cfg       phase configuration
     */
    Simulator(Network &network, Workload &workload, const SimConfig &cfg);

    /// Run to completion and report statistics.
    SimResult run();

  private:
    void generate(Cycle now);
    void emitPacket(int src, int dst, int flits);
    /// Take a packet-table slot for a packet whose head enters the
    /// fabric now.
    std::uint32_t allocPacket(Cycle created);
    void inject(Cycle now);
    void ejectAll(Cycle now);

    /// Observability state, allocated only when cfg.observe.
    struct ObsState
    {
        std::shared_ptr<obs::SimObservation> data;
        /// Per-router buffer-occupancy histogram handles.
        std::vector<obs::Histogram> occupancy;
        /// Per-terminal handle on its router's flits_delivered.
        std::vector<obs::Counter> delivered;
        /// Baselines for the next phase delta.
        obs::MetricsSnapshot last_snapshot;
        std::vector<std::uint64_t> last_link_flits;
        std::size_t next_phase = 0;
        Cycle phase_start = 0;
    };

    void setupObs();
    /// Close phases whose boundary is <= @p now (call before any of
    /// cycle @p now's counter bumps).
    void beginCycleObs(Cycle now);
    /// Record per-cycle samples after cycle @p now completed.
    void endCycleObs(Cycle now);
    /// Close the remaining phases; the run executed cycles
    /// [0, @p end).
    void finalizeObs(Cycle end);
    void closePhase(Cycle end);

    Network &network_;
    Workload &workload_;
    SimConfig cfg_;
    Rng rng_;

    /// Compact source-queue entry: just what inject() needs to build
    /// the real Flit. Past saturation the backlog dwarfs every cache,
    /// so entry size directly sets the DRAM-miss rate of the two
    /// hottest loops (emitPacket's tail writes, inject's head reads).
    /// The creation cycle rides here, not in the packet table, so a
    /// backlogged packet holds no table slot.
    struct SourceFlit
    {
        Cycle created;
        std::int32_t dst;
        bool head;
        bool tail;
    };
    static_assert(sizeof(SourceFlit) == 16);

    /// Per-packet timestamps, kept out of the flits so every flit the
    /// cycle loop moves stays 16 bytes. A packet takes its slot when
    /// its head enters the fabric (a flit's `packet` field) and
    /// returns it to the free list when its tail is ejected, so the
    /// table is bounded by the packets inside the fabric at once and
    /// stays cache-resident however deep the source backlog grows.
    struct PacketRecord
    {
        /// Cycle the packet was created (enqueued at the source).
        Cycle created;
        /// Cycle the tail flit entered the network: network latency
        /// runs from here to tail ejection.
        Cycle injected;
    };

    /// Per-terminal source queues (open-loop: unbounded, but ring-
    /// backed so they stop allocating at their high-water mark).
    std::vector<util::RingQueue<SourceFlit>> source_;
    /// Terminals with a non-empty source queue, one bit per id: the
    /// injection sweep's active set.
    std::vector<std::uint64_t> inject_mask_;
    /// Per-terminal VC for the packet currently being injected, and
    /// the wrapping round-robin cursor for the next one.
    std::vector<std::int16_t> current_vc_;
    std::vector<std::int16_t> next_vc_;
    /// Per-terminal packet-table slot of the packet being injected.
    std::vector<std::uint32_t> current_packet_;
    /// Whether source_[t].front() is a head flit — lets a blocked
    /// injection attempt advance the VC cursor (as every attempt
    /// always has) without touching the queue at all.
    std::vector<std::uint8_t> front_head_;

    /// Persistent emit closure handed to Workload::generate each
    /// cycle (constructing it per cycle would heap-allocate).
    std::function<void(int, int, int)> emit_;
    /// Cycle being generated and whether it is in the measure window
    /// (state for the persistent closure).
    Cycle gen_now_ = 0;
    bool gen_in_window_ = false;

    std::vector<PacketRecord> packets_;
    /// Recycled packets_ slots, reused last-freed first.
    std::vector<std::uint32_t> free_packets_;

    // Measurement bookkeeping.
    StatsAccumulator packet_latency_;
    QuantileSampler packet_latency_q_;
    StatsAccumulator network_latency_;
    StatsAccumulator hops_;
    std::int64_t measured_created_ = 0;
    std::int64_t measured_finished_ = 0;
    std::int64_t window_flits_ejected_ = 0;
    std::int64_t flits_delivered_ = 0;
    std::int64_t flits_generated_ = 0;
    std::int64_t flits_injected_ = 0;

    std::unique_ptr<ObsState> obs_;
};

} // namespace wss::sim

#endif // WSS_SIM_SIMULATOR_HPP
