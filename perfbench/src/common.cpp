#include "common.hpp"

#include <algorithm>
#include <string>

#include "core/radix_solver.hpp"
#include "power/switch_power.hpp"
#include "sim/load_sweep.hpp"
#include "tech/cooling.hpp"
#include "tech/external_io.hpp"
#include "tech/wsi.hpp"
#include "topology/clos.hpp"
#include "util/logging.hpp"

namespace perfbench {

namespace {

using namespace wss;

/// Round @p ports down to a positive multiple of half the chiplet
/// radix, the granularity buildFoldedClos accepts.
std::int64_t
alignPorts(std::int64_t ports, int ssc_radix)
{
    const std::int64_t half = ssc_radix / 2;
    return std::max<std::int64_t>(ports / half, 1) * half;
}

/// `wss dcn`'s SSC + I/O power estimate for a switch the solver did
/// not size.
double
estimateSwitchPower(std::int64_t ports, const power::SscConfig &ssc)
{
    const auto chiplets = topology::closChipletCount(ports, ssc.radix);
    return static_cast<double>(chiplets) * ssc.core_power +
           power::internalIoPower(2.0 * static_cast<double>(ports) *
                                      ssc.line_rate,
                                  tech::siIf2x()) +
           power::externalIoPower(ports, ssc.line_rate,
                                  tech::opticalIo());
}

/// Calibrate one design on a fabric capped at 256 external ports —
/// the same capping `wss dcn` applies (at 512) to keep the
/// cycle-accurate sweep affordable; the profile keeps @p ports.
flow::SwitchProfile
calibrate(const Context &ctx, const std::string &name, std::int64_t ports,
          const power::SscConfig &ssc, double power_watts)
{
    flow::CalibrationSpec spec;
    spec.name = name;
    spec.ports = alignPorts(std::min<std::int64_t>(ports, 256), ssc.radix);
    spec.ssc = ssc;
    spec.rates = sim::geometricRates(0.05, 0.95, 5);
    spec.packet_flits = 4;
    spec.net_spec = cliFabricSpec();
    spec.sim_cfg.warmup = 500;
    spec.sim_cfg.measure = 2000;
    spec.sim_cfg.drain_limit = 4000;
    spec.sim_cfg.seed = ctx.seed;
    spec.power_watts = power_watts;

    ScopedSpan span(ctx.spans, "flow.calibrate");
    flow::SwitchProfile profile =
        flow::calibrateSwitchProfile(spec, ctx.pool);
    profile.radix = ports;
    return profile;
}

} // namespace

sim::NetworkSpec
cliFabricSpec()
{
    sim::NetworkSpec spec;
    spec.vcs = 16;
    spec.buffer_per_port = 64;
    spec.rc_delay_ingress = 2;
    spec.rc_delay_transit = 2;
    spec.pipeline_delay = 9;
    spec.terminal_link_latency = 8;
    spec.internal_link_latency = 1;
    return spec;
}

sim::NetworkSpec
meshFabricSpec()
{
    sim::NetworkSpec spec;
    spec.vcs = 8;
    spec.buffer_per_port = 16;
    spec.pipeline_delay = 1;
    spec.terminal_link_latency = 1;
    spec.internal_link_latency = 1;
    return spec;
}

Designs
solveAndCalibrate(const Context &ctx)
{
    core::DesignSpec dspec;
    dspec.substrate_side = 300.0;
    dspec.wsi = tech::siIf2x();
    dspec.external_io = tech::opticalIo();
    dspec.ssc = power::tomahawk5(1);
    dspec.cooling = tech::unlimitedCooling();
    dspec.topology = core::TopologyKind::Clos;
    dspec.mapping_restarts = 2;
    dspec.seed = ctx.seed;

    Designs designs;
    designs.ws_ssc = dspec.ssc;
    double ws_power = 0.0;
    {
        ScopedSpan span(ctx.spans, "core.solve");
        const core::SolveResult solved =
            core::RadixSolver(dspec).solveMaxPorts();
        if (solved.best.ports == 0)
            fatal("perfbench: the radix solver found no feasible "
                  "waferscale design");
        designs.ws_ports = alignPorts(solved.best.ports, dspec.ssc.radix);
        ws_power = solved.best.power.total();
    }

    const power::SscConfig conv_ssc =
        power::scaledSsc(32, dspec.ssc.line_rate);
    const std::int64_t conv_ports = alignPorts(64, conv_ssc.radix);
    designs.ws = calibrate(ctx, "ws-" + std::to_string(designs.ws_ports),
                           designs.ws_ports, dspec.ssc, ws_power);
    designs.conv = calibrate(ctx, "conv-" + std::to_string(conv_ports),
                             conv_ports, conv_ssc,
                             estimateSwitchPower(conv_ports, conv_ssc));
    return designs;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fabric")
        return makeFabricWorkload();
    if (name == "dcn")
        return makeDcnWorkload();
    if (name == "coll")
        return makeCollWorkload();
    return nullptr;
}

} // namespace perfbench
