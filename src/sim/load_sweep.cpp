#include "sim/load_sweep.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace wss::sim {

LoadPoint
runLoadPoint(const NetworkFactory &make_network,
             const WorkloadFactory &make_workload, double rate,
             const SimConfig &cfg, SimResult *full)
{
    auto network = make_network();
    auto workload = make_workload(rate);
    Simulator sim(*network, *workload, cfg);
    const SimResult r = sim.run();
    if (full)
        *full = r;

    LoadPoint point;
    point.offered = r.offered;
    point.accepted = r.accepted;
    point.avg_latency = r.avg_packet_latency;
    point.p99_latency = r.p99_packet_latency;
    point.stable = r.stable;
    return point;
}

SweepResult
finalizeSweep(std::vector<LoadPoint> points)
{
    if (points.empty())
        fatal("finalizeSweep: need at least one point");

    SweepResult result;
    result.points = std::move(points);

    // Zero-load latency: explicitly the minimum-offered point, not
    // whatever happens to come first in the vector.
    const auto min_point = std::min_element(
        result.points.begin(), result.points.end(),
        [](const LoadPoint &a, const LoadPoint &b) {
            return a.offered < b.offered;
        });
    result.zero_load_latency = min_point->avg_latency;

    // Saturation throughput: accepted throughput of saturated runs
    // is an artifact of the drain cap, so only stable points count.
    bool any_stable = false;
    for (const auto &p : result.points) {
        if (!p.stable)
            continue;
        any_stable = true;
        result.saturation_throughput =
            std::max(result.saturation_throughput, p.accepted);
    }
    if (!any_stable) {
        for (const auto &p : result.points)
            result.saturation_throughput =
                std::max(result.saturation_throughput, p.accepted);
        warn("finalizeSweep: no stable point in the sweep; saturation "
             "throughput of ",
             result.saturation_throughput,
             " includes saturated runs and is unreliable");
    }
    return result;
}

std::vector<double>
linearRates(double max_rate, int points)
{
    if (points < 1 || !std::isfinite(max_rate) || max_rate <= 0.0)
        fatal("linearRates: need positive finite rate and point count");
    std::vector<double> rates(points);
    for (int i = 0; i < points; ++i)
        rates[i] = max_rate * (i + 1) / points;
    return rates;
}

std::vector<double>
geometricRates(double min_rate, double max_rate, int points)
{
    if (points < 1 || !std::isfinite(min_rate) ||
        !std::isfinite(max_rate) || min_rate <= 0.0 ||
        max_rate < min_rate)
        fatal("geometricRates: need 0 < min_rate <= max_rate (finite) "
              "and a positive point count");
    if (points == 1)
        return {max_rate};

    std::vector<double> rates(points);
    const double ratio = std::pow(max_rate / min_rate,
                                  1.0 / static_cast<double>(points - 1));
    double rate = min_rate;
    for (int i = 0; i < points; ++i, rate *= ratio)
        rates[i] = rate;
    // Pin the endpoints exactly (the multiplication drifts in the
    // last few ulps).
    rates.front() = min_rate;
    rates.back() = max_rate;
    return rates;
}

} // namespace wss::sim
