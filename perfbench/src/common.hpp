/**
 * @file
 * Pieces the dcn and coll workloads share: the two switch designs of
 * `wss dcn` / `wss coll` (the solver-sized waferscale switch and the
 * conv-64 baseline), calibrated from the cycle-accurate fabric on
 * every set-up — never read from a profile cache.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>

#include "flow/switch_profile.hpp"
#include "power/ssc.hpp"
#include "sim/network.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Seconds since @p start on the steady clock.
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// The internal-fabric parameters `wss` uses by default (`wss sim`,
/// `wss dcn` calibration): 16 VCs, 64-flit buffers, 9-cycle pipeline.
wss::sim::NetworkSpec cliFabricSpec();

/// The Fig. 25 4x4 mesh's parameters, as bench_simcore runs it: 8
/// VCs, 16-flit buffers, single-cycle pipeline and links.
wss::sim::NetworkSpec meshFabricSpec();

/// The two calibrated designs a dcn or coll workload compares.
struct Designs
{
    /// Sub-switch chiplet of the waferscale design (the solver's).
    wss::power::SscConfig ws_ssc;
    /// External ports of the waferscale design, as solved.
    std::int64_t ws_ports = 0;
    wss::flow::SwitchProfile ws;
    wss::flow::SwitchProfile conv;
};

/// Run the radix solver (span "core.solve") and calibrate both
/// designs on @p ctx.pool (one "flow.calibrate" span each), as
/// `wss dcn` does with its default flags and a smaller calibration
/// sweep.
Designs solveAndCalibrate(const Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
