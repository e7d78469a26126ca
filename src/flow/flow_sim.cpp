#include "flow/flow_sim.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <utility>

#include "flow/waterfill.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/watchdog.hpp"
#include "util/artifact.hpp"
#include "util/logging.hpp"
#include "util/stats_accumulator.hpp"

namespace wss::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shortest round-trip decimal form (same idiom as
/// SimObservation::dumpCsv), so telemetry CSVs are bit-identical
/// across runs and lossless to parse back.
std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}
/// Residual bytes below which a transfer counts as delivered —
/// far under one byte yet far above the fp error of advancing a
/// multi-megabyte flow to its own completion instant.
constexpr double kEpsBytes = 1e-6;

/// One in-flight transfer.
struct ActiveFlow
{
    std::uint64_t id = 0;
    double arrival_s = 0.0;
    double bytes = 0.0;
    double remaining = 0.0;
    /// Current max-min rate (bytes/s), set by the waterfill.
    double rate = 0.0;
    /// Calibrated switch-traversal latency, fixed at flow start.
    double latency_s = 0.0;
    std::int64_t src = 0;
    std::int64_t dst = 0;
    /// Switches on the current path. The path itself is the flow's
    /// resource list in the waterfill, in the same slot.
    std::size_t hops = 0;
};

} // namespace

void
verifyFlowConservation(std::int64_t started, std::int64_t completed,
                       std::int64_t failed, std::int64_t in_flight)
{
    if (started != completed + failed + in_flight)
        panic("flow conservation violated: started=", started,
              " != completed=", completed, " + failed=", failed,
              " + in-flight=", in_flight);
}

std::int64_t
FlowTelemetry::totalStarted() const
{
    std::int64_t total = 0;
    for (const Window &w : windows)
        total += w.started;
    return total;
}

std::int64_t
FlowTelemetry::totalCompleted() const
{
    std::int64_t total = 0;
    for (const Window &w : windows)
        total += w.completed;
    return total;
}

std::int64_t
FlowTelemetry::totalFailed() const
{
    std::int64_t total = 0;
    for (const Window &w : windows)
        total += w.failed;
    return total;
}

double
FlowTelemetry::linkUtilization(std::size_t w, std::size_t link) const
{
    if (w >= windows.size() || link >= link_capacity_bps.size())
        panic("FlowTelemetry::linkUtilization: window ", w, "/link ",
              link, " out of range (", windows.size(), " windows, ",
              link_capacity_bps.size(), " links)");
    const double cap = link_capacity_bps[link];
    if (cap <= 0.0 || window_s <= 0.0)
        return 0.0;
    const auto &bytes = windows[w].link_bytes;
    return (link < bytes.size() ? bytes[link] : 0.0) /
           (cap * window_s);
}

void
FlowTelemetry::dumpCsv(std::ostream &os) const
{
    os << "# wss flow telemetry\n";
    os << "# windows=" << windows.size() << " window_s="
       << formatDouble(window_s) << " links="
       << link_capacity_bps.size() << "\n";
    os << "record,window,scope,metric,value\n";

    for (std::size_t l = 0; l < link_capacity_bps.size(); ++l)
        os << "capacity,run,t" << l << ",bytes_per_s,"
           << formatDouble(link_capacity_bps[l]) << "\n";

    for (std::size_t w = 0; w < windows.size(); ++w) {
        const Window &win = windows[w];
        os << "window," << w << ",-,started," << win.started << "\n";
        os << "window," << w << ",-,completed," << win.completed
           << "\n";
        os << "window," << w << ",-,failed," << win.failed << "\n";
        os << "window," << w << ",-,in_flight_end,"
           << win.in_flight_end << "\n";
        os << "window," << w << ",-,completed_bytes,"
           << formatDouble(win.completed_bytes) << "\n";
    }

    // Only trunks that carried bytes: quiet links would dominate the
    // file without informing the congestion picture.
    for (std::size_t w = 0; w < windows.size(); ++w)
        for (std::size_t l = 0; l < windows[w].link_bytes.size(); ++l)
            if (windows[w].link_bytes[l] > 0.0) {
                os << "link," << w << ",t" << l << ",bytes,"
                   << formatDouble(windows[w].link_bytes[l]) << "\n";
                os << "link," << w << ",t" << l << ",utilization,"
                   << formatDouble(linkUtilization(w, l)) << "\n";
            }

    double total_bytes = 0.0;
    for (const Window &w : windows)
        total_bytes += w.completed_bytes;
    os << "total,run,-,started," << totalStarted() << "\n";
    os << "total,run,-,completed," << totalCompleted() << "\n";
    os << "total,run,-,failed," << totalFailed() << "\n";
    os << "total,run,-,completed_bytes," << formatDouble(total_bytes)
       << "\n";
}

void
FlowTelemetry::dumpCsvFile(const std::string &path) const
{
    util::writeArtifactFile(path, "FlowTelemetry",
                            [this](std::ostream &os) { dumpCsv(os); });
}

FlowSimResult
simulateFlows(DcnTopology &topo, const SwitchProfile &profile,
              const std::vector<FlowArrival> &flows,
              const fault::DcnFaultSchedule &faults,
              const FlowSimConfig &cfg)
{
    obs::ScopedPhase run_phase(cfg.profiler, "flow-sim");

    const std::int64_t hosts = topo.hostCount();
    if (hosts < 1)
        fatal("simulateFlows: topology has no hosts");
    if (profile.saturation <= 0.0 || profile.line_rate_gbps <= 0.0)
        fatal("simulateFlows: profile must have positive saturation "
              "and line rate");
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const FlowArrival &flow = flows[i];
        if (flow.src_host < 0 || flow.src_host >= hosts ||
            flow.dst_host < 0 || flow.dst_host >= hosts)
            fatal("simulateFlows: flow ", flow.id,
                  " references a host outside [0, ", hosts, ")");
        // A NaN or infinite size never drains, and the run would
        // end in a misleading stall panic.
        if (!std::isfinite(flow.bytes))
            fatal("simulateFlows: flow ", flow.id,
                  " has non-finite size ", flow.bytes);
        if (flow.bytes < 0.0)
            fatal("simulateFlows: flow ", flow.id, " has negative size ",
                  flow.bytes);
        // Out-of-order arrivals would be admitted late, silently
        // charging the wait to their FCT.
        if (!std::isfinite(flow.arrival_s))
            fatal("simulateFlows: flow ", flow.id,
                  " has non-finite arrival time ", flow.arrival_s);
        if (i > 0 && flow.arrival_s < flows[i - 1].arrival_s)
            fatal("simulateFlows: flow ", flow.id, " arrives at ",
                  flow.arrival_s, " s, before flow ", flows[i - 1].id,
                  " at ", flows[i - 1].arrival_s,
                  " s; flows must be sorted by arrival time");
    }
    if (topo.routesDirty())
        topo.rebuildRoutes();

    // --- resources: 2 per host NIC, 2 per trunk direction, all
    // derated by the calibrated fabric saturation -----------------
    const double line_bytes = topo.lineRateGbps() * 1e9 / 8.0;
    const double sat = std::min(profile.saturation, 1.0);
    const int host_res = static_cast<int>(2 * hosts);
    const std::size_t n_res =
        static_cast<std::size_t>(host_res) + 2 * topo.links().size();
    std::vector<double> cap(n_res, 0.0);
    for (std::int64_t h = 0; h < hosts; ++h)
        cap[static_cast<std::size_t>(2 * h)] =
            cap[static_cast<std::size_t>(2 * h + 1)] = line_bytes * sat;
    for (std::size_t l = 0; l < topo.links().size(); ++l)
        cap[static_cast<std::size_t>(host_res) + 2 * l] =
            cap[static_cast<std::size_t>(host_res) + 2 * l + 1] =
                topo.links()[l].gbps * 1e9 / 8.0 * sat;

    // Per resource, the switch a flow enters through it: a source
    // NIC's tx feeds its edge switch, a trunk direction its far end
    // (bit 0 of a directed link set means b->a); -1 for a NIC's rx.
    std::vector<int> entered_switch(n_res, -1);
    for (std::int64_t h = 0; h < hosts; ++h)
        entered_switch[static_cast<std::size_t>(2 * h)] = topo.edgeOf(h);
    for (std::size_t l = 0; l < topo.links().size(); ++l) {
        entered_switch[static_cast<std::size_t>(host_res) + 2 * l] =
            topo.links()[l].b;
        entered_switch[static_cast<std::size_t>(host_res) + 2 * l + 1] =
            topo.links()[l].a;
    }

    // --- instruments ---------------------------------------------
    obs::Counter c_started, c_completed, c_failed, c_rerouted, c_fault;
    obs::Histogram h_slowdown;
    if (cfg.metrics) {
        c_started = cfg.metrics->counter("flow.started");
        c_completed = cfg.metrics->counter("flow.completed");
        c_failed = cfg.metrics->counter("flow.failed");
        c_rerouted = cfg.metrics->counter("flow.rerouted");
        c_fault = cfg.metrics->counter("flow.fault_events");
        h_slowdown = cfg.metrics->histogram(
            "flow.slowdown",
            {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
    }

    StatsAccumulator fct_acc, slow_acc, hops_acc;
    QuantileSampler fct_q, slow_q;
    fct_q.reserve(flows.size());
    slow_q.reserve(flows.size());

    // --- telemetry (pure observation: nothing below feeds back into
    // the event sequence, so results are bit-identical on/off) ------
    std::shared_ptr<FlowTelemetry> telemetry;
    if (cfg.telemetry_window_s > 0.0) {
        telemetry = std::make_shared<FlowTelemetry>();
        telemetry->window_s = cfg.telemetry_window_s;
        telemetry->link_capacity_bps.resize(topo.links().size());
        for (std::size_t l = 0; l < topo.links().size(); ++l)
            telemetry->link_capacity_bps[l] =
                topo.links()[l].gbps * 1e9 / 8.0 * sat;
    }
    const auto windowAt = [&](double t) -> FlowTelemetry::Window & {
        const auto w = static_cast<std::size_t>(
            std::max(t, 0.0) / telemetry->window_s);
        while (telemetry->windows.size() <= w) {
            telemetry->windows.emplace_back();
            telemetry->windows.back().link_bytes.resize(
                topo.links().size(), 0.0);
        }
        return telemetry->windows[w];
    };
    const auto recordFlow = [&](std::uint64_t id, std::int64_t src,
                                std::int64_t dst, double bytes,
                                double fct, bool failed_flow) {
        if (cfg.flow_records)
            cfg.flow_records->push_back(
                {id, src, dst, bytes, fct, failed_flow});
    };

    // --- engine state --------------------------------------------
    // active[i] and the waterfill's slot i are the same flow: both
    // append on arrival and swap-with-last on completion or failure.
    std::vector<ActiveFlow> active;
    Waterfill waterfill(std::move(cap));
    std::vector<double> sw_rate(
        static_cast<std::size_t>(topo.switchCount()), 0.0);
    bool sw_rate_stale = false;

    const auto sorted_faults = faults.sorted();
    std::size_t i_arr = 0;
    std::size_t i_fault = 0;
    std::int64_t started = 0, completed = 0, failed = 0, rerouted = 0;
    std::int64_t fault_events = 0;
    double now = 0.0;
    double last_completion = 0.0;
    double completed_bytes = 0.0;
    DcnPath path;         // route() scratch
    std::vector<int> res; // buildResources() scratch

    // Directional resources of a path: src NIC tx, trunk directions,
    // dst NIC rx.
    const auto buildResources = [&](const DcnPath &p, std::int64_t src,
                                    std::int64_t dst)
        -> const std::vector<int> & {
        res.clear();
        res.push_back(static_cast<int>(2 * src));
        for (int dl : p.directed_links)
            res.push_back(host_res + dl);
        res.push_back(static_cast<int>(2 * dst + 1));
        return res;
    };

    // The switches the flow in @p slot crosses, in path order: one per
    // resource except the destination NIC.
    const auto forEachSwitch = [&](std::size_t slot, auto &&fn) {
        for (int r : waterfill.resources(slot)) {
            const int sw = entered_switch[static_cast<std::size_t>(r)];
            if (sw >= 0)
                fn(sw);
        }
    };
    // Undirected trunk ids of the flow in @p slot, in path order.
    const auto forEachLink = [&](std::size_t slot, auto &&fn) {
        for (int r : waterfill.resources(slot))
            if (r >= host_res)
                fn((r - host_res) >> 1);
    };

    // Max-min fair rates for the active set (flow/waterfill.hpp): the
    // waterfill re-solves only what changed since its last solve.
    const auto recompute = [&]() {
        obs::ScopedPhase phase(cfg.profiler, "waterfill");
        const std::vector<double> &rates = waterfill.solve();
        for (std::size_t f = 0; f < active.size(); ++f)
            active[f].rate = rates[f];
        sw_rate_stale = true;
    };

    // Per-switch throughput under the rates of the last recompute,
    // feeding the latency lookups of the next arrivals. Summed only
    // when an arrival batch needs it, before anything in that batch
    // changes the active set, so the sums are the ones a sum right
    // after the recompute would give.
    const auto refreshSwitchRates = [&]() {
        std::fill(sw_rate.begin(), sw_rate.end(), 0.0);
        for (std::size_t f = 0; f < active.size(); ++f)
            forEachSwitch(f, [&](int sw) {
                sw_rate[static_cast<std::size_t>(sw)] += active[f].rate;
            });
        sw_rate_stale = false;
    };

    // Approximate per-port offered load of one switch: its total
    // flow throughput spread over its radix. What the calibrated
    // latency curve is indexed by.
    const auto switchOffered = [&](int sw) {
        const double denom =
            static_cast<double>(topo.switchRadix()) * line_bytes;
        return std::clamp(sw_rate[static_cast<std::size_t>(sw)] / denom,
                          0.0, 1.0);
    };

    const auto pathLatency = [&](const std::vector<int> &switches) {
        double total = 0.0;
        for (int sw : switches)
            total += profile.latencySeconds(switchOffered(sw));
        return total;
    };

    const auto recordCompletion = [&](double fct, double ideal,
                                      double bytes, double finish_s) {
        const double slowdown = ideal > 0.0 ? fct / ideal : 1.0;
        fct_acc.add(fct);
        fct_q.add(fct);
        slow_acc.add(slowdown);
        slow_q.add(slowdown);
        h_slowdown.record(slowdown);
        completed_bytes += bytes;
        ++completed;
        c_completed.inc();
        last_completion = std::max(last_completion, finish_s);
        if (telemetry) {
            FlowTelemetry::Window &w = windowAt(finish_s);
            ++w.completed;
            w.completed_bytes += bytes;
        }
    };

    const auto idealSeconds = [&](double bytes, std::size_t hops) {
        return bytes / line_bytes +
               profile.zero_load_latency * profile.cycle_seconds *
                   static_cast<double>(hops);
    };

    const auto completeFlow = [&](const ActiveFlow &f) {
        const double fct = (now - f.arrival_s) + f.latency_s;
        recordCompletion(fct, idealSeconds(f.bytes, f.hops),
                         f.bytes, now);
        recordFlow(f.id, f.src, f.dst, f.bytes, fct, false);
    };

    const auto applyFault = [&](const fault::DcnFaultEvent &ev) {
        const char *label = "?";
        switch (ev.kind) {
        case fault::DcnFaultKind::SwitchDown:
        case fault::DcnFaultKind::SwitchUp: {
            if (ev.id >= topo.switchCount())
                fatal("DcnFaultSchedule: event targets switch ", ev.id,
                      " but the topology has ", topo.switchCount());
            const bool up = ev.kind == fault::DcnFaultKind::SwitchUp;
            topo.setSwitchAlive(ev.id, up);
            label = up ? "switch up" : "switch down";
            break;
        }
        case fault::DcnFaultKind::LinkDown:
        case fault::DcnFaultKind::LinkUp: {
            if (ev.id >= static_cast<int>(topo.links().size()))
                fatal("DcnFaultSchedule: event targets trunk ", ev.id,
                      " but the topology has ", topo.links().size());
            const bool up = ev.kind == fault::DcnFaultKind::LinkUp;
            topo.setLinkAlive(ev.id, up);
            label = up ? "trunk up" : "trunk down";
            break;
        }
        }
        if (cfg.trace)
            cfg.trace->instant(
                label, "fault", cfg.trace_tid,
                static_cast<std::int64_t>(ev.at_s * 1e6),
                {obs::TraceArg::num(
                    "id", static_cast<std::int64_t>(ev.id))});
        obs::recordEvent(obs::EventKind::FaultInjection, ev.id,
                         static_cast<std::int64_t>(ev.at_s * 1e6),
                         label);
    };

    // --- event loop ----------------------------------------------
    // Liveness marks: one heartbeat + epoch event every kEpochBatch
    // event batches (never per flow), so the watchdog can tell a
    // slow 100k-flow cell from a hung one. Purely passive.
    constexpr std::uint64_t kEpochBatch = 2048;
    std::uint64_t batches = 0;
    while (i_arr < flows.size() || !active.empty()) {
        if (++batches % kEpochBatch == 0) {
            obs::heartbeat();
            obs::recordEvent(obs::EventKind::SimEpoch,
                             static_cast<std::int64_t>(i_arr),
                             static_cast<std::int64_t>(active.size()),
                             "flow-sim");
        }
        const double t_arr =
            i_arr < flows.size() ? flows[i_arr].arrival_s : kInf;
        const double t_fault = i_fault < sorted_faults.size()
                                   ? sorted_faults[i_fault].at_s
                                   : kInf;
        double t_comp = kInf;
        for (const auto &f : active)
            if (f.rate > 0.0)
                t_comp = std::min(t_comp, now + f.remaining / f.rate);
        double t_next = std::min({t_arr, t_fault, t_comp});
        if (t_next == kInf)
            panic("flow simulator stalled at t=", now, " with ",
                  active.size(),
                  " active flows, zero rates, and no pending events");
        t_next = std::max(t_next, now);

        const double dt = t_next - now;
        if (dt > 0.0) {
            for (auto &f : active)
                f.remaining -= f.rate * dt;
            if (telemetry)
                // Attribute each flow's bytes to its trunks, split at
                // window boundaries so per-window link totals are
                // exact.
                for (std::size_t slot = 0; slot < active.size(); ++slot) {
                    const ActiveFlow &f = active[slot];
                    if (f.rate <= 0.0)
                        continue;
                    double a = now;
                    while (a < t_next) {
                        FlowTelemetry::Window &w = windowAt(a);
                        double b = std::min(
                            t_next,
                            (std::floor(a / telemetry->window_s) +
                             1.0) *
                                telemetry->window_s);
                        // fp guard: a window boundary that fails to
                        // advance past `a` would loop forever.
                        if (b <= a)
                            b = t_next;
                        forEachLink(slot, [&](int l) {
                            w.link_bytes[static_cast<std::size_t>(l)] +=
                                f.rate * (b - a);
                        });
                        a = b;
                    }
                }
        }
        now = t_next;
        if (sw_rate_stale && i_arr < flows.size() &&
            flows[i_arr].arrival_s <= now)
            refreshSwitchRates();

        bool membership_changed = false;

        // 1. completions
        for (std::size_t i = 0; i < active.size();) {
            if (active[i].remaining <= kEpsBytes) {
                completeFlow(active[i]);
                active[i] = active.back();
                active.pop_back();
                waterfill.removeFlow(i);
                membership_changed = true;
            } else {
                ++i;
            }
        }

        // 2. faults (before arrivals: a flow arriving at the fault
        // instant routes on the post-fault fabric)
        bool topo_changed = false;
        while (i_fault < sorted_faults.size() &&
               sorted_faults[i_fault].at_s <= now) {
            applyFault(sorted_faults[i_fault++]);
            ++fault_events;
            c_fault.inc();
            topo_changed = true;
        }
        if (topo_changed) {
            topo.rebuildRoutes();
            for (std::size_t i = 0; i < active.size();) {
                auto &f = active[i];
                bool broken = false;
                forEachSwitch(i, [&](int sw) {
                    broken = broken || !topo.switchAlive(sw);
                });
                forEachLink(i, [&](int l) {
                    broken = broken || !topo.linkAlive(l);
                });
                if (!broken) {
                    ++i;
                    continue;
                }
                membership_changed = true;
                if (topo.route(f.src, f.dst, f.id, &path)) {
                    // Keep the start-time latency estimate; only the
                    // bandwidth path changes.
                    f.hops = path.switches.size();
                    waterfill.rerouteFlow(i,
                                          buildResources(path, f.src, f.dst));
                    ++rerouted;
                    c_rerouted.inc();
                    ++i;
                } else {
                    ++failed;
                    c_failed.inc();
                    if (telemetry)
                        ++windowAt(now).failed;
                    recordFlow(f.id, f.src, f.dst, f.bytes,
                               now - f.arrival_s, true);
                    active[i] = active.back();
                    active.pop_back();
                    waterfill.removeFlow(i);
                }
            }
        }

        // 3. arrivals
        while (i_arr < flows.size() &&
               flows[i_arr].arrival_s <= now) {
            const auto &a = flows[i_arr++];
            ++started;
            c_started.inc();
            if (telemetry)
                ++windowAt(now).started;
            if (a.src_host == a.dst_host) {
                // Host loopback: the bytes never cross a NIC, trunk
                // or switch — complete at line rate, zero hops,
                // outside the waterfill.
                const double xfer = a.bytes / line_bytes;
                hops_acc.add(0.0);
                recordCompletion((now - a.arrival_s) + xfer, xfer,
                                 a.bytes, now + xfer);
                recordFlow(a.id, a.src_host, a.dst_host, a.bytes,
                           (now - a.arrival_s) + xfer, false);
                continue;
            }
            if (!topo.route(a.src_host, a.dst_host, a.id, &path)) {
                ++failed;
                c_failed.inc();
                if (telemetry)
                    ++windowAt(now).failed;
                recordFlow(a.id, a.src_host, a.dst_host, a.bytes,
                           0.0, true);
                continue;
            }
            ActiveFlow f;
            f.id = a.id;
            f.arrival_s = a.arrival_s;
            f.bytes = f.remaining = a.bytes;
            f.src = a.src_host;
            f.dst = a.dst_host;
            f.hops = path.switches.size();
            f.latency_s = pathLatency(path.switches);
            hops_acc.add(static_cast<double>(f.hops));
            if (a.bytes <= kEpsBytes) {
                // Zero-byte flow (a bare header): pays the calibrated
                // path latency but transfers nothing — complete now
                // rather than burdening the waterfill with a
                // zero-remaining flow.
                recordCompletion((now - a.arrival_s) + f.latency_s,
                                 idealSeconds(a.bytes, f.hops),
                                 a.bytes, now);
                recordFlow(a.id, a.src_host, a.dst_host, a.bytes,
                           (now - a.arrival_s) + f.latency_s, false);
                continue;
            }
            active.push_back(f);
            waterfill.addFlow(buildResources(path, f.src, f.dst));
            membership_changed = true;
        }

        if (membership_changed)
            recompute();
        if (telemetry)
            // Gauge semantics: the last event batch of each window
            // leaves its in-flight count behind.
            windowAt(now).in_flight_end =
                static_cast<std::int64_t>(active.size());
        verifyFlowConservation(started, completed, failed,
                               static_cast<std::int64_t>(active.size()));
    }
    verifyFlowConservation(started, completed, failed, 0);

    // --- results -------------------------------------------------
    FlowSimResult result;
    result.started = started;
    result.completed = completed;
    result.failed = failed;
    result.rerouted = rerouted;
    result.fault_events = fault_events;
    result.duration_s = last_completion;
    result.completed_bytes = completed_bytes;
    if (last_completion > 0.0)
        result.throughput_gbps =
            completed_bytes * 8.0 / last_completion / 1e9;
    result.fct_avg_s = fct_acc.mean();
    result.fct_max_s = fct_acc.max();
    result.slowdown_avg = slow_acc.mean();
    result.avg_hops = hops_acc.mean();
    if (!fct_q.empty()) {
        result.fct_p50_s = fct_q.quantile(0.50);
        result.fct_p99_s = fct_q.quantile(0.99);
        result.fct_p999_s = fct_q.quantile(0.999);
        result.slowdown_p50 = slow_q.quantile(0.50);
        result.slowdown_p99 = slow_q.quantile(0.99);
        result.slowdown_p999 = slow_q.quantile(0.999);
    }
    result.telemetry = telemetry;

    if (cfg.trace && telemetry) {
        // Counter samples at window-close instants: Perfetto renders
        // the in-flight gauge and the busiest-link utilization as
        // time series on their own allocated track.
        const int tel_tid =
            cfg.trace->allocateTrack(cfg.trace_label + "/telemetry");
        for (std::size_t w = 0; w < telemetry->windows.size(); ++w) {
            const auto ts = static_cast<std::int64_t>(
                (static_cast<double>(w) + 1.0) *
                telemetry->window_s * 1e6);
            cfg.trace->counter(
                "in_flight", "flow", tel_tid, ts,
                static_cast<double>(
                    telemetry->windows[w].in_flight_end));
            double max_util = 0.0;
            for (std::size_t l = 0;
                 l < telemetry->windows[w].link_bytes.size(); ++l)
                max_util =
                    std::max(max_util, telemetry->linkUtilization(w, l));
            cfg.trace->counter("max_link_utilization", "flow",
                               tel_tid, ts, max_util);
        }
    }

    if (cfg.trace) {
        cfg.trace->complete(
            cfg.trace_label, "flow", cfg.trace_tid, 0,
            static_cast<std::int64_t>(result.duration_s * 1e6),
            {obs::TraceArg::num("flows",
                                static_cast<std::int64_t>(started)),
             obs::TraceArg::num("completed",
                                static_cast<std::int64_t>(completed)),
             obs::TraceArg::num("failed",
                                static_cast<std::int64_t>(failed))});
    }
    return result;
}

} // namespace wss::flow
