/**
 * @file
 * Latency-versus-load sweeps — the x-axes of Figs. 21-24.
 *
 * This header holds the single-point runner (runLoadPoint) and the
 * curve summariser (finalizeSweep). Whole curves run through exec::Campaign (or its
 * one-job front end exec::SweepRunner), which schedules one
 * runLoadPoint per (repetition, rate) cell on a thread pool or
 * serially and stays bit-identical at any pool size.
 */

#ifndef WSS_SIM_LOAD_SWEEP_HPP
#define WSS_SIM_LOAD_SWEEP_HPP

#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace wss::sim {

/// One point of a latency-load curve.
struct LoadPoint
{
    double offered = 0.0;
    double accepted = 0.0;
    double avg_latency = 0.0;
    double p99_latency = 0.0;
    bool stable = false;
};

/// A whole curve plus its summary metrics.
struct SweepResult
{
    std::vector<LoadPoint> points;
    /// Latency of the minimum-offered-rate point (the "zero-load
    /// latency").
    double zero_load_latency = 0.0;
    /// Highest accepted throughput over the *stable* points
    /// (flits/terminal/cycle) — the saturation throughput once the
    /// curve has flattened. Falls back to the overall maximum (with
    /// a warning) when every point is saturated.
    double saturation_throughput = 0.0;
};

/// Builds a fresh network for one run (state is not reusable).
using NetworkFactory = std::function<std::unique_ptr<Network>()>;
/// Builds the workload for a given offered load.
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(double rate)>;

/**
 * Run one sweep point: build a fresh network and workload at
 * @p rate, simulate, and condense to a LoadPoint. This is *the*
 * code path of every sweep point, serial or parallel.
 *
 * @param full  optional out-parameter receiving the complete
 *              SimResult of the run.
 */
LoadPoint runLoadPoint(const NetworkFactory &make_network,
                       const WorkloadFactory &make_workload, double rate,
                       const SimConfig &cfg, SimResult *full = nullptr);

/**
 * Derive the curve summary (zero-load latency, saturation
 * throughput) from a complete set of points.
 */
SweepResult finalizeSweep(std::vector<LoadPoint> points);

/// Convenience: evenly spaced rates in (0, max_rate].
std::vector<double> linearRates(double max_rate, int points);

/**
 * Geometrically spaced rates in [min_rate, max_rate], denser toward
 * the low end — the natural sampling for latency-vs-load curves
 * that need resolution near zero load but must still reach
 * saturation. Endpoints are exact.
 */
std::vector<double> geometricRates(double min_rate, double max_rate,
                                   int points);

} // namespace wss::sim

#endif // WSS_SIM_LOAD_SWEEP_HPP
