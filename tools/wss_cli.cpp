/**
 * @file
 * `wss` — command-line front end to the waferscale-switch models.
 *
 * Every subcommand declares its flags as one table (tools/flags.hpp)
 * built from the shared groups below; `wss --help` lists the
 * subcommands and `wss <subcommand> --help` prints its flags.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "coll/campaign.hpp"
#include "coll/plan.hpp"
#include "core/radix_solver.hpp"
#include "exec/campaign.hpp"
#include "exec/sweep_runner.hpp"
#include "fault/resilience.hpp"
#include "flags.hpp"
#include "flow/dcn_campaign.hpp"
#include "obs/crash_dump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/run_manifest.hpp"
#include "obs/trace_event.hpp"
#include "obs/watchdog.hpp"
#include "power/link_power.hpp"
#include "power/switch_power.hpp"
#include "sim/load_sweep.hpp"
#include "sysarch/cooling_loop.hpp"
#include "sysarch/enclosure.hpp"
#include "sysarch/power_delivery.hpp"
#include "tech/yield.hpp"
#include "topology/clos.hpp"
#include "trace/generators.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/seed.hpp"
#include "util/table.hpp"

namespace {

using namespace wss;
using cli::Command;
using cli::Group;
using cli::Opts;
using enum cli::Type;

const cli::Flag kSeed = {"seed", Int, "base seed", "1", 1, 0x1p63};
const cli::Flag kJobs = {"jobs", Int, "worker threads (default: WSS_JOBS or "
                         "the hardware threads)", "", 1, 4096};

/// The design point the radix solver sizes.
const Group kDesign = {
    {"substrate", Real, "substrate side (mm)", "300", 1, 1000},
    {"wsi", Choice, "waferscale integration", "siif2x", 0, 0,
     {"siif", "siif2x", "infosow"}},
    {"ext", Choice, "external I/O", "optical", 0, 0,
     {"serdes", "optical", "area"}},
    {"ssc-config", Int, "TH-5 as 256x200G, 128x400G, 64x800G", "1", 1, 3},
    {"deradix", Int, "use the SSC at 1/N of its radix", "1", 1, 256},
    {"cooling", Choice, "cooling envelope", "none", 0, 0,
     {"air", "water", "multiphase", "none"}},
    {"restarts", Int, "random restarts of the mapping search", "4", 1, 1000},
    kSeed,
};

/// Design-space flags only `solve` and `plan` read.
const Group kSolve = {
    {"hetero", Int, "split each Clos leaf into N dies", "1", 1, 64},
    {"topology", Choice, "internal topology", "clos", 0, 0,
     {"clos", "mesh", "butterfly", "fb", "dragonfly"}},
    {"ideal", Switch, "area-only bound: no bandwidth or power limits"},
};

/// The cycle-accurate fabric and its run phases.
const Group kFabric = {
    {"vcs", Int, "virtual channels per router port", "16", 1, 32767},
    {"buffer", Int, "input buffer per router port (flits)", "64", 1, 1e6},
    {"rc-ingress", Int, "RC delay at terminal inputs (cycles)", "2", 0, 1e3},
    {"rc-transit", Int, "RC delay at transit inputs (cycles)", "2", 0, 1e3},
    {"pipeline", Int, "VA/SA/ST pipeline depth (cycles)", "9", 1, 1e3},
    {"io-delay", Int, "terminal link latency (cycles)", "8", 1, 1e3},
    {"hop-delay", Int, "router-to-router link latency (cycles)", "1", 1, 1e3},
    {"adaptive", Switch, "credit-adaptive ECMP instead of oblivious"},
    {"warmup", Int, "cycles before measurement", "1000", 0, 1e9},
    {"measure", Int, "measurement window (cycles)", "4000", 1, 1e9},
    {"drain", Int, "cycles to drain measured packets", "20000", 0, 1e9},
    kSeed,
};

/// The offered loads of a load sweep.
const Group kRates = {
    {"points", Int, "load points per sweep", "9", 1, 1000},
    {"max-rate", Real, "highest offered load", "0.9", 0.001, 1},
    {"min-rate", Real, "lowest load of a geometric sweep", "0.05", 0.001, 1},
};
const cli::Flag kGeometric = {"geometric", Switch,
                              "geometric rates (default: linear)"};

/// Observability. It is passive: results are bit-identical with any
/// of it on or off (asserted by test_obs).
const Group kObs = {
    {"flight-recorder", Switch, "per-thread flight-recorder rings"},
    {"crash-dump", Path, "post-mortem of a crash (`wss report --crash`)"},
    {"watchdog", Real, "abort after a heartbeat stall (s)", "", 0.001, 1e6},
    {"progress", Switch, "live status line on stderr"},
    {"profile", Switch, "print the phase self-time table"},
    {"manifest-out", Path, "provenance manifest (for `wss report`)"},
};

/// Where a campaign's results go.
const Group kOutputs = {
    {"csv", Path, "results as CSV (identical at any --jobs)"},
    {"json", Path, "results and timings as JSON"},
    {"trace-out", Path, "Chrome-trace timeline (Perfetto-loadable)"},
};

/// The waferscale-vs-conventional pair `dcn` and `coll` compare.
const Group kPair = {
    {"ws-ports", Int, "waferscale radix (0 = solver-sized)", "0", 0, 1e8},
    {"conv-ports", Int, "conventional switch radix", "64", 1, 1e6},
    {"conv-ssc-radix", Int, "chiplet radix of the baseline", "32", 2, 4096},
    {"cal-ports", Int, "cap on the calibration fabric", "512", 1, 1e6},
    {"profiles", Path, "profile cache dir, keyed on calibration inputs"},
    {"calibrate", Switch, "recalibrate even with a cached profile"},
    {"packet-flits", Int, "flits per calibration packet", "4", 1, 1024},
    {"dcn-topology", Choice, "multi-switch network", "fat-tree", 0, 0,
     {"fat-tree", "dragonfly"}},
};

/// Flight-recorder ring capacity per thread (events).
constexpr std::size_t kFlightRecorderEvents = 4096;

int
jobsOf(const Opts &opts)
{
    return opts.has("jobs") ? opts.integer<int>("jobs")
                            : exec::ThreadPool::defaultThreads();
}

/**
 * Observability and artifact plumbing of the campaign-shaped
 * subcommands (sim, sweep, resilience, dcn, coll).
 *
 * The constructor wires kObs: --crash-dump, --watchdog and
 * --progress all imply the flight recorder, because their dumps and
 * status lines read its rings. writeResults() and finish() are the
 * shared output tail: --csv/--json, then the --profile table, the
 * --trace-out timeline (with the profile on its own track) and the
 * --manifest-out manifest over every noted artifact.
 */
class Run
{
  public:
    Run(const Opts &opts, const std::string &tool, std::uint64_t seed,
        int jobs)
        : opts_(opts), manifest_(tool), tracing_(opts.has("trace-out"))
    {
        // Provenance identity: every non-output flag verbatim
        // (arg.<key>), the resolved seed and the worker count.
        for (const auto &[key, value] : opts.identity())
            manifest_.setConfig("arg." + key, value);
        manifest_.setSeed(seed);
        manifest_.setJobs(jobs);
        if (tracing_)
            trace_.setProcessName(tool);
        if (!opts.has("flight-recorder") && !opts.has("crash-dump") &&
            !opts.has("watchdog") && !opts.has("progress"))
            return;
        obs::FlightRecorder::enable(kFlightRecorderEvents);
        obs::FlightRecorder::attachCurrentThread("main");
        if (opts.has("crash-dump")) {
            // A crashed run never writes its manifest, so the dump
            // carries the configuration identity that links the
            // post-mortem back to the design point that died.
            obs::CrashDump::install(opts.text("crash-dump"));
            obs::CrashDump::setTool(tool);
            obs::CrashDump::setIdentity(manifest_.identityHash());
        }
        monitoring_ = opts.has("watchdog") || opts.has("progress");
        if (monitoring_) {
            // Main mostly waits on workers; mark it idle so a long
            // fan-out phase never reads as a main-thread stall.
            obs::FlightRecorder::markThreadIdle();
            obs::Watchdog::start(
                opts.has("watchdog") ? opts.real("watchdog") : 0.0,
                opts.has("progress"));
        }
    }

    ~Run()
    {
        if (monitoring_)
            obs::Watchdog::stop();
    }

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    /// The --trace-out sink; null when the run is not traced.
    obs::TraceEventSink *trace() { return tracing_ ? &trace_ : nullptr; }

    /// Inventory a file this run wrote for the manifest; @p timed
    /// when its content carries wall-clock, so it enters the
    /// identity by kind only.
    void note(const std::string &path, const std::string &kind,
              bool timed = false)
    {
        if (opts_.has("manifest-out"))
            manifest_.addArtifact(path, kind, timed);
    }

    /// --csv / --json of a campaign result (kinds <kind>-csv/-json),
    /// both noted as timed: every JSON and the sweep campaign's CSV
    /// carry wall-clock. The resilience, dcn and coll CSVs do not,
    /// but their content follows from the config and seed the
    /// identity already holds.
    template <class Result>
    void writeResults(const Result &result, const std::string &kind)
    {
        if (opts_.has("csv")) {
            result.writeCsvFile(opts_.text("csv"));
            note(opts_.text("csv"), kind + "-csv", true);
            std::cout << "CSV written to " << opts_.text("csv") << "\n";
        }
        if (opts_.has("json")) {
            result.writeJsonFile(opts_.text("json"));
            note(opts_.text("json"), kind + "-json", true);
            std::cout << "JSON written to " << opts_.text("json") << "\n";
        }
    }

    void finish()
    {
        if (opts_.has("profile"))
            profiler.writeSummary(std::cout);
        if (tracing_) {
            const std::string &path = opts_.text("trace-out");
            if (!profiler.phases().empty())
                profiler.addToTrace(trace_, trace_.allocateTrack("profile"));
            trace_.writeFile(path);
            note(path, "trace", true);
            std::cout << "trace written to " << path << " ("
                      << trace_.size()
                      << " events; open in Perfetto / chrome://tracing)\n";
        }
        if (!opts_.has("manifest-out"))
            return;
        manifest_.setProfile(profiler);
        manifest_.writeJsonFile(opts_.text("manifest-out"));
        std::ostringstream identity;
        identity << std::hex << manifest_.identityHash();
        std::cout << "manifest written to " << opts_.text("manifest-out")
                  << " (identity 0x" << identity.str() << ", "
                  << manifest_.artifacts().size() << " artifacts)\n";
    }

    obs::Profiler profiler;

  private:
    const Opts &opts_;
    obs::RunManifest manifest_;
    bool tracing_;
    bool monitoring_ = false;
    obs::TraceEventSink trace_;
};

/// Element @p i of @p items: maps a Choice flag's index to its value.
template <class T>
T
pick(std::size_t i, std::initializer_list<T> items)
{
    return items.begin()[i];
}

/// The kDesign part of a design point.
core::DesignSpec
designSpec(const Opts &opts)
{
    core::DesignSpec spec;
    spec.substrate_side = opts.real("substrate");
    spec.wsi = pick(opts.choice("wsi"),
                    {tech::siIf(), tech::siIf2x(), tech::infoSow()});
    spec.external_io =
        pick(opts.choice("ext"),
             {tech::serdes(), tech::opticalIo(), tech::areaIo()});
    spec.ssc = power::tomahawk5(opts.integer<int>("ssc-config"));
    const int deradix = opts.integer<int>("deradix");
    if (deradix > 1)
        spec.ssc = topology::deradixedSsc(spec.ssc, deradix);
    spec.cooling = pick(opts.choice("cooling"),
                        {tech::airCooling(), tech::waterCooling(),
                         tech::multiphaseCooling(),
                         tech::unlimitedCooling()});
    spec.mapping_restarts = opts.integer<int>("restarts");
    spec.seed = opts.integer<std::uint64_t>("seed");
    return spec;
}

/// The full design point of `solve` and `plan`.
core::DesignSpec
solveSpec(const Opts &opts)
{
    core::DesignSpec spec = designSpec(opts);
    spec.leaf_split = opts.integer<int>("hetero");
    spec.topology = pick(opts.choice("topology"),
                         {core::TopologyKind::Clos, core::TopologyKind::Mesh,
                          core::TopologyKind::Butterfly,
                          core::TopologyKind::FlattenedButterfly,
                          core::TopologyKind::Dragonfly});
    spec.area_only = opts.has("ideal");
    return spec;
}

int
cmdSolve(const Opts &opts)
{
    const core::DesignSpec spec = solveSpec(opts);
    const auto result = core::RadixSolver(spec).solveMaxPorts();
    const auto &best = result.best;

    Table table("wss solve — " + std::string(core::toString(
                    spec.topology)) + " on " +
                    Table::num(spec.substrate_side, 0) + " mm",
                {"metric", "value"});
    table.addRow({"max ports", Table::num(best.ports)});
    table.addRow({"SSC chiplets", Table::num(best.ssc_chiplets)});
    table.addRow({"I/O chiplets", Table::num(best.io_chiplets)});
    table.addRow({"silicon area (mm^2)",
                  Table::num(best.silicon_area, 0)});
    table.addRow({"hottest edge / capacity (Gbps)",
                  Table::num(best.max_edge_load, 0) + " / " +
                      Table::num(best.edge_capacity, 0)});
    table.addRow({"external demand / capacity (Tbps)",
                  Table::num(best.external_demand / 1000.0, 1) + " / " +
                      Table::num(best.external_capacity / 1000.0, 1)});
    table.addRow({"power (kW)",
                  Table::num(best.power.total() / 1000.0, 2)});
    table.addRow({"power density (W/mm^2)",
                  Table::num(best.power_density, 3)});
    if (result.blocking) {
        table.addRow({"next candidate blocked by",
                      std::string(core::toString(
                          result.blocking->violated))});
    }
    table.print(std::cout);
    return 0;
}

/// The kFabric router and channel parameters.
sim::NetworkSpec
fabricSpec(const Opts &opts)
{
    sim::NetworkSpec spec;
    spec.vcs = opts.integer<int>("vcs");
    spec.buffer_per_port = opts.integer<int>("buffer");
    spec.rc_delay_ingress = opts.integer<int>("rc-ingress");
    spec.rc_delay_transit = opts.integer<int>("rc-transit");
    spec.pipeline_delay = opts.integer<int>("pipeline");
    spec.terminal_link_latency = opts.integer<int>("io-delay");
    spec.internal_link_latency = opts.integer<int>("hop-delay");
    spec.adaptive_routing = opts.has("adaptive");
    return spec;
}

/// The kFabric run phases.
sim::SimConfig
simConfig(const Opts &opts)
{
    sim::SimConfig cfg;
    cfg.warmup = opts.integer("warmup");
    cfg.measure = opts.integer("measure");
    cfg.drain_limit = opts.integer("drain");
    cfg.seed = opts.integer<std::uint64_t>("seed");
    return cfg;
}

/// Sweep rates: --geometric gives min-rate..max-rate geometric
/// spacing, otherwise linear in (0, max-rate].
std::vector<double>
sweepRates(const Opts &opts)
{
    const int points = opts.integer<int>("points");
    if (opts.has("geometric"))
        return sim::geometricRates(opts.real("min-rate"),
                                   opts.real("max-rate"), points);
    return sim::linearRates(opts.real("max-rate"), points);
}

/// One load sweep as a table, then its zero-load latency and
/// saturation throughput on a line the caller ends.
void
printSweep(const std::string &title, const sim::SweepResult &sweep,
           int offered_digits)
{
    Table table(title,
                {"offered", "accepted", "avg latency", "p99", "stable"});
    for (const auto &point : sweep.points) {
        table.addRow({Table::num(point.offered, offered_digits),
                      Table::num(point.accepted, 3),
                      Table::num(point.avg_latency, 1),
                      Table::num(point.p99_latency, 1),
                      point.stable ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "zero-load " << Table::num(sweep.zero_load_latency, 1)
              << " cycles, saturation "
              << Table::num(sweep.saturation_throughput, 3)
              << " flits/terminal/cycle";
}

int
cmdSim(const Opts &opts)
{
    const auto ports = opts.integer("ports");
    const std::string &pattern = opts.text("pattern");
    const int packet = opts.integer<int>("packet-flits");
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});

    const sim::NetworkSpec spec = fabricSpec(opts);
    const sim::SimConfig cfg = simConfig(opts);
    Run run(opts, "wss sim", cfg.seed, 1);

    const auto make_network = [&] {
        return std::make_unique<sim::Network>(topo, spec, cfg.seed);
    };
    const auto make_workload = [&](double rate) {
        return std::make_unique<sim::SyntheticWorkload>(
            sim::makeTraffic(pattern, static_cast<int>(ports)), rate,
            packet);
    };

    // One serial sweep; repetition 0 runs on cfg.seed itself.
    exec::SweepJob job;
    job.make_network = [&](std::uint64_t) { return make_network(); };
    job.make_workload = [&](double rate, std::uint64_t) {
        return make_workload(rate);
    };
    job.rates = sweepRates(opts);
    job.cfg = cfg;
    const auto sweep = [&] {
        obs::ScopedPhase phase(&run.profiler, "sweep");
        return exec::SweepRunner(std::move(job))
            .run(nullptr, nullptr, &run.profiler);
    }();

    printSweep("wss sim — " + pattern + " on " + Table::num(ports) +
                   " ports",
               sweep.combined, 2);
    std::cout << "\n";

    // Observed run: one extra simulation with per-router/per-link
    // telemetry on, dumped as long-format CSV.
    if (opts.has("stats-out")) {
        const std::string &path = opts.text("stats-out");
        sim::SimConfig obs_cfg = cfg;
        obs_cfg.observe = true;
        obs_cfg.observe_sample_every = opts.integer("obs-sample");
        const double rate =
            opts.real(opts.has("rate") ? "rate" : "max-rate");

        sim::SimResult full;
        {
            obs::ScopedPhase phase(&run.profiler, "observe");
            sim::runLoadPoint(make_network, make_workload, rate,
                              obs_cfg, &full);
        }
        full.observation->dumpCsvFile(path);
        run.note(path, "sim-observation");

        const std::uint64_t counted =
            full.observation->totalCounter("flits_delivered");
        if (counted !=
            static_cast<std::uint64_t>(full.flits_delivered))
            panic("sim: per-router flits_delivered counters (",
                  counted, ") disagree with SimResult (",
                  full.flits_delivered, ")");
        std::cout << "stats written to " << path << " (rate "
                  << Table::num(rate, 3) << ", "
                  << full.flits_delivered
                  << " flits delivered, counters reconcile)\n";
    }
    run.finish();
    return 0;
}

int
cmdSweep(const Opts &opts)
{
    const auto ports = opts.integer("ports");
    const int packet = opts.integer<int>("packet-flits");
    const int repetitions = opts.integer<int>("reps");
    const int jobs = jobsOf(opts);
    const auto topo =
        topology::buildFoldedClos({ports, power::tomahawk5(1), 1});

    const sim::NetworkSpec spec = fabricSpec(opts);
    const sim::SimConfig cfg = simConfig(opts);
    const auto rates = sweepRates(opts);

    // One campaign job per traffic pattern.
    exec::Campaign campaign;
    for (const auto &pattern : opts.texts("patterns")) {
        exec::SweepJob job;
        job.make_network = [&topo, spec](std::uint64_t seed) {
            return std::make_unique<sim::Network>(topo, spec, seed);
        };
        job.make_workload = [pattern, ports,
                             packet](double rate, std::uint64_t) {
            return std::make_unique<sim::SyntheticWorkload>(
                sim::makeTraffic(pattern, static_cast<int>(ports)),
                rate, packet);
        };
        job.rates = rates;
        job.cfg = cfg;
        job.repetitions = repetitions;
        campaign.addSweep(pattern, std::move(job));
    }

    exec::ThreadPool pool(jobs);
    Run run(opts, "wss sweep", cfg.seed, jobs);
    const auto result = campaign.run(&pool, run.trace(), &run.profiler);

    for (const auto &job : result.jobs) {
        printSweep("wss sweep — " + job.name + " on " + Table::num(ports) +
                       " ports (" +
                       Table::num(static_cast<double>(job.sweep.reps.size()),
                                  0) +
                       " reps)",
                   job.sweep.combined, 3);
        std::cout << ", " << Table::num(job.seconds, 2) << " cpu-s over "
                  << job.cells << " runs\n\n";
    }
    std::cout << "campaign: " << result.jobs.size() << " jobs on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    run.writeResults(result, "campaign");
    run.finish();
    return 0;
}

int
cmdTrace(const Opts &opts)
{
    const std::string &app = opts.text("app");
    const int ranks = opts.integer<int>("ranks");
    trace::GeneratorConfig gen;
    gen.iterations = opts.integer<int>("iterations");
    gen.iteration_period = opts.integer("period");
    gen.base_message_flits = opts.integer<int>("message-flits");
    gen.seed = opts.integer<std::uint64_t>("seed");

    trace::MessageTrace trace = trace::generateMiniApp(app, ranks, gen);
    const int duplicate = opts.integer<int>("duplicate");
    if (duplicate > 1)
        trace = trace::duplicateTrace(trace, duplicate);

    std::cout << "trace '" << trace.name << "': " << trace.ranks
              << " ranks, " << trace.events.size() << " messages, "
              << trace.totalFlits() << " flits over " << trace.span()
              << " cycles (avg load "
              << Table::num(trace.averageLoad(), 4)
              << " flits/rank/cycle)\n";
    if (opts.has("out")) {
        const std::string &path = opts.text("out");
        std::ofstream os(path);
        if (!os)
            fatal("cannot open '", path, "' for writing");
        trace::saveTrace(trace, os);
        std::cout << "written to " << path << "\n";
    }
    return 0;
}

int
cmdYield(const Opts &opts)
{
    tech::YieldModel model;
    model.defect_density_cm2 = opts.real("defects");
    model.bond_yield = opts.real("bond-yield");

    const int sockets = opts.integer<int>("chiplets");
    const double area = opts.real("die-area");

    Table table("wss yield", {"metric", "value"});
    table.addRow({"die yield (" + Table::num(area, 0) + " mm^2)",
                  Table::num(tech::dieYield(area, model), 4)});
    table.addRow({"KGD cost factor",
                  Table::num(tech::kgdCostFactor(area, model), 3)});
    for (int spares : {0, 1, 2, 4}) {
        table.addRow(
            {"system yield, " + Table::num(spares) + " spares",
             Table::num(tech::chipletSystemYield(sockets, spares, model),
                        5)});
    }
    table.addRow({"monolithic wafer (99% redundancy)",
                  Table::num(tech::monolithicWaferYield(
                                 opts.real("substrate"), 0.99, model),
                             5)});
    table.print(std::cout);
    return 0;
}

int
cmdResilience(const Opts &opts)
{
    fault::ResilienceConfig cfg;
    cfg.radices = opts.ints("ports");
    cfg.defect_densities = opts.reals("densities");
    const std::vector<std::int64_t> spares = opts.ints("spares");
    cfg.spare_counts.assign(spares.begin(), spares.end());

    cfg.ssc = power::scaledSsc(opts.integer<int>("ssc-radix"),
                               opts.real("line-rate"));
    cfg.model.yield.bond_yield = opts.real("bond-yield");
    cfg.model.test_escape = opts.real("test-escape");
    cfg.model.node_field_failure = opts.real("node-fail");
    cfg.model.link_field_failure = opts.real("link-fail");
    cfg.samples = opts.integer<int>("samples");
    cfg.sim_samples = opts.integer<int>("sim-samples");
    cfg.sim_rate = opts.real("sim-rate");
    cfg.sim_packet_size = opts.integer<int>("packet-flits");
    cfg.net_spec = fabricSpec(opts);
    cfg.sim_cfg = simConfig(opts);
    cfg.seed = opts.integer<std::uint64_t>("seed");

    const int jobs = jobsOf(opts);
    exec::ThreadPool pool(jobs);
    Run run(opts, "wss resilience", cfg.seed, jobs);
    const fault::ResilienceResult result =
        fault::ResilienceCampaign(cfg).run(&pool, run.trace(),
                                           &run.profiler);

    Table table("wss resilience — " + Table::num(cfg.samples) +
                    " maps/cell, seed " + Table::num(cfg.seed),
                {"topology", "density", "spares", "survival",
                 "E[ports]", "bisection", "analytic", "sim thr"});
    for (const auto &cell : result.cells) {
        table.addRow(
            {cell.topology, Table::num(cell.defect_density, 2),
             Table::num(cell.spares), Table::num(cell.survival, 4),
             Table::num(cell.expected_usable_ports, 1),
             Table::num(cell.mean_bisection_fraction, 4),
             Table::num(cell.analytic_bond_yield, 4),
             cell.sim_samples > 0
                 ? Table::num(cell.mean_degraded_throughput, 3) +
                       "/" + Table::num(cell.healthy_throughput, 3)
                 : "-"});
    }
    table.print(std::cout);
    std::cout << "campaign: " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    run.writeResults(result, "resilience");
    run.finish();
    return 0;
}

/// Round @p ports down to a positive multiple of ssc.radix / 2 (the
/// granularity buildFoldedClos accepts).
std::int64_t
alignPorts(std::int64_t ports, int ssc_radix)
{
    const std::int64_t half = ssc_radix / 2;
    return std::max<std::int64_t>(ports / half, 1) * half;
}

/// SSC + I/O power estimate (W) for a switch that did not come out
/// of the radix solver: core power of its 2-level-Clos chiplets plus
/// the substrate-crossing and external-port I/O of @p design.
double
estimateSwitchPower(const core::DesignSpec &design, std::int64_t ports,
                    const power::SscConfig &ssc)
{
    const auto chiplets =
        topology::closChipletCount(ports, ssc.radix);
    return static_cast<double>(chiplets) * ssc.core_power +
           power::internalIoPower(2.0 * static_cast<double>(ports) *
                                      ssc.line_rate,
                                  design.wsi) +
           power::externalIoPower(ports, ssc.line_rate,
                                  design.external_io);
}

/// Hex hash over every input that shapes a calibrated profile, so a
/// cached profile is reused only by a run that would calibrate the
/// same one.
std::string
calibrationKey(const flow::CalibrationSpec &spec)
{
    const sim::NetworkSpec &net = spec.net_spec;
    const sim::SimConfig &cfg = spec.sim_cfg;
    std::ostringstream key;
    key.precision(17);
    key << spec.ports << ' ' << spec.ssc.name << ' ' << spec.ssc.radix
        << ' ' << spec.ssc.line_rate << ' ' << spec.packet_flits << ' '
        << net.vcs << ' ' << net.buffer_per_port << ' '
        << net.rc_delay_ingress << ' ' << net.rc_delay_transit << ' '
        << net.pipeline_delay << ' ' << net.terminal_link_latency << ' '
        << net.internal_link_latency << ' ' << net.adaptive_routing
        << ' ' << cfg.warmup << ' ' << cfg.measure << ' '
        << cfg.drain_limit << ' ' << cfg.seed << ' '
        << spec.cycle_seconds << ' ' << spec.power_watts;
    for (const double rate : spec.rates)
        key << ' ' << rate;
    std::ostringstream hex;
    hex << std::hex << obs::RunManifest::hashBytes(key.str());
    return hex.str();
}

/// Acquire one design's profile: load it from the --profiles
/// directory when a profile of the same calibration inputs is cached
/// there (and --calibrate is not forcing a refresh), otherwise run
/// the cycle-accurate calibration sweep — and persist it back when a
/// directory was given.
flow::SwitchProfile
dcnProfile(const Opts &opts, const std::string &name, std::int64_t ports,
           const power::SscConfig &ssc, double power_watts,
           exec::ThreadPool *pool, Run &run)
{
    flow::CalibrationSpec spec;
    spec.name = name;
    // Calibrating the full waferscale fabric cycle-accurately is
    // expensive, so the sweep runs on a capped internal fabric of
    // the same chiplet; the latency-vs-load shape carries over and
    // the profile keeps the full DCN-level radix.
    spec.ports = alignPorts(
        std::min<std::int64_t>(ports, opts.integer("cal-ports")),
        ssc.radix);
    spec.ssc = ssc;
    spec.rates = sim::geometricRates(
        opts.real("min-rate"), opts.real("max-rate"),
        opts.integer<int>("points"));
    spec.packet_flits = opts.integer<int>("packet-flits");
    spec.net_spec = fabricSpec(opts);
    spec.sim_cfg = simConfig(opts);
    spec.power_watts = power_watts;

    const std::string &dir = opts.text("profiles");
    const std::string path =
        dir.empty() ? ""
                    : dir + "/" + name + "-" + calibrationKey(spec) +
                          ".json";
    if (!path.empty() && !opts.has("calibrate") &&
        std::ifstream(path).good()) {
        std::cout << "dcn: loading profile " << path << "\n";
        return flow::SwitchProfile::loadJsonFile(path);
    }

    std::cout << "dcn: calibrating " << name << " ("
              << spec.ports << "-port internal fabric, "
              << spec.rates.size() << " load points)\n";
    flow::SwitchProfile profile = flow::calibrateSwitchProfile(
        spec, pool, run.trace(), &run.profiler);
    profile.radix = ports;
    if (!path.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        profile.writeJsonFile(path);
        std::cout << "dcn: profile written to " << path << "\n";
    }
    return profile;
}

/// The two switches `dcn` and `coll` compare, each with its
/// calibrated profile.
struct DesignPair
{
    /// The waferscale design point (its chiplet builds the fabric).
    core::DesignSpec spec;
    flow::SwitchProfile ws;
    flow::SwitchProfile conv;
};

/// The waferscale design (solver-sized unless --ws-ports pins it)
/// and a conventional baseline: a small fixed-radix box built from
/// the same chiplet family at the same line rate.
DesignPair
designPair(const Opts &opts, const std::string &tool,
           exec::ThreadPool *pool, Run &run)
{
    DesignPair pair;
    pair.spec = designSpec(opts);
    pair.spec.topology = core::TopologyKind::Clos; // internal fabric
    const power::SscConfig &ssc = pair.spec.ssc;

    std::int64_t ws_ports = opts.integer("ws-ports");
    double ws_power = 0.0;
    if (ws_ports <= 0) {
        const auto solved = core::RadixSolver(pair.spec).solveMaxPorts();
        if (solved.best.ports == 0)
            fatal(tool, ": the radix solver found no feasible "
                        "waferscale design; pin one with --ws-ports");
        ws_ports = alignPorts(solved.best.ports, ssc.radix);
        ws_power = solved.best.power.total();
        std::cout << tool << ": solver sized the waferscale switch at "
                  << ws_ports << " ports, "
                  << Table::num(ws_power / 1000.0, 1) << " kW\n";
    } else {
        // A pinned design never runs the solver: flags that only
        // steer it would be silently ignored.
        for (const char *flag : {"substrate", "cooling", "restarts"})
            if (opts.has(flag))
                fatal(tool, ": --", flag, " only steers the radix "
                      "solver, which --ws-ports skips; drop one of them");
        ws_ports = alignPorts(ws_ports, ssc.radix);
        ws_power = estimateSwitchPower(pair.spec, ws_ports, ssc);
    }

    const power::SscConfig conv_ssc = power::scaledSsc(
        opts.integer<int>("conv-ssc-radix"), ssc.line_rate);
    const std::int64_t conv_ports =
        alignPorts(opts.integer("conv-ports"), conv_ssc.radix);
    pair.ws = dcnProfile(opts, "ws-" + std::to_string(ws_ports), ws_ports,
                         ssc, ws_power, pool, run);
    pair.conv = dcnProfile(
        opts, "conv-" + std::to_string(conv_ports), conv_ports, conv_ssc,
        estimateSwitchPower(pair.spec, conv_ports, conv_ssc), pool, run);
    return pair;
}

flow::DcnKind
dcnKind(const Opts &opts)
{
    return pick(opts.choice("dcn-topology"),
                {flow::DcnKind::FatTree, flow::DcnKind::Dragonfly});
}

/// A @p kind network of @p profile switches covering @p hosts.
flow::DcnTopology
buildDcn(flow::DcnKind kind, std::int64_t hosts,
         const flow::SwitchProfile &profile)
{
    const int radix = static_cast<int>(profile.radix);
    return kind == flow::DcnKind::FatTree
               ? flow::DcnTopology::buildFatTree(hosts, radix,
                                                 profile.line_rate_gbps)
               : flow::DcnTopology::buildDragonfly(
                     hosts, radix, profile.line_rate_gbps);
}

int
cmdDcn(const Opts &opts)
{
    const int jobs = jobsOf(opts);
    exec::ThreadPool pool(jobs);
    const auto seed = opts.integer<std::uint64_t>("seed");
    Run run(opts, "wss dcn", seed, jobs);
    const DesignPair pair = designPair(opts, "dcn", &pool, run);

    flow::DcnCampaignConfig cfg;
    cfg.designs = {pair.ws, pair.conv};
    cfg.kind = dcnKind(opts);
    cfg.hosts = opts.integer("hosts");
    cfg.workloads.clear();
    for (const auto &name : opts.texts("workloads"))
        cfg.workloads.push_back(flow::workloadByName(name));
    cfg.loads = opts.reals("loads");
    cfg.flows_per_cell = opts.integer("flows");
    cfg.fault_model.node_field_failure = opts.real("node-fail");
    cfg.seed = seed;

    const flow::DcnResult result =
        flow::DcnCampaign(cfg).run(&pool, run.trace(), &run.profiler);

    Table table("wss dcn — " + Table::num(cfg.hosts) + " hosts, " +
                    Table::num(cfg.flows_per_cell) +
                    " flows/cell, seed " + Table::num(cfg.seed),
                {"design", "workload", "load", "switches", "hops",
                 "power kW", "fct p50 us", "fct p99 us", "slow p99",
                 "done/fail"});
    for (const auto &cell : result.cells) {
        table.addRow(
            {cell.design, cell.workload, Table::num(cell.load, 2),
             Table::num(cell.switches),
             Table::num(cell.worst_hops),
             Table::num(cell.power_kw, 1),
             Table::num(cell.sim.fct_p50_s * 1e6, 1),
             Table::num(cell.sim.fct_p99_s * 1e6, 1),
             Table::num(cell.sim.slowdown_p99, 2),
             Table::num(cell.sim.completed) + "/" +
                 Table::num(cell.sim.failed)});
    }
    table.print(std::cout);
    std::cout << "campaign: " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";
    run.writeResults(result, "dcn");

    // Observed run: re-simulate the campaign's first cell (same
    // seed-derived flow list, fault-free) with windowed telemetry on
    // and dump the per-link congestion timeline.
    if (opts.has("stats-out")) {
        const std::string &path = opts.text("stats-out");
        const flow::SwitchProfile &profile = cfg.designs.front();
        flow::DcnTopology topo = buildDcn(cfg.kind, cfg.hosts, profile);
        flow::DcnWorkloadSpec workload = cfg.workloads.front();
        workload.load = cfg.loads.front();
        workload.flow_count = cfg.flows_per_cell;
        const std::vector<flow::FlowArrival> flows =
            flow::generateFlows(workload, topo.hostCount(),
                                profile.line_rate_gbps,
                                deriveSeed(cfg.seed, 1));

        flow::FlowSimConfig obs_cfg;
        obs_cfg.profiler = &run.profiler;
        obs_cfg.trace = run.trace();
        obs_cfg.trace_label = "dcn-observed";
        // Default window: ~24 buckets over the campaign's own run of
        // this cell (its duration is already known).
        const double duration = result.cells.front().sim.duration_s;
        obs_cfg.telemetry_window_s = opts.real("telemetry-window");
        if (obs_cfg.telemetry_window_s == 0.0)
            obs_cfg.telemetry_window_s =
                duration > 0.0 ? duration / 24.0 : 1e-6;

        const flow::FlowSimResult observed =
            flow::simulateFlows(topo, profile, flows, {}, obs_cfg);
        observed.telemetry->dumpCsvFile(path);
        run.note(path, "flow-telemetry");
        std::cout << "telemetry written to " << path << " ("
                  << observed.telemetry->windows.size()
                  << " windows of "
                  << Table::num(obs_cfg.telemetry_window_s * 1e6, 3)
                  << " us, " << observed.started << " flows)\n";
    }
    run.finish();
    return 0;
}

/// `wss coll --collectives` names and what each schedules.
const std::map<std::string, coll::CollSpec> kCollectives = [] {
    using enum coll::Collective;
    using enum coll::Algorithm;
    return std::map<std::string, coll::CollSpec>{
        {"ring", {AllReduce, Ring}},
        {"rd", {AllReduce, RecursiveDoubling}},
        {"recursive-doubling", {AllReduce, RecursiveDoubling}},
        {"hd", {AllReduce, HalvingDoubling}},
        {"halving-doubling", {AllReduce, HalvingDoubling}},
        {"tree", {AllReduce, Tree}},
        {"alltoall", {AllToAll, Pairwise}},
        {"a2a", {AllToAll, Pairwise}},
        {"reduce-scatter", {ReduceScatter, Ring}},
        {"rs", {ReduceScatter, Ring}},
        {"all-gather", {AllGather, Ring}},
        {"ag", {AllGather, Ring}}};
}();

std::vector<std::string>
collectiveNames()
{
    std::vector<std::string> names;
    for (const auto &entry : kCollectives)
        names.push_back(entry.first);
    return names;
}

/// The `--plan dp=8,tp=4,pp=2,ep=2` shape (every axis optional,
/// defaulting to 1, values strictly positive).
coll::PlanShape
planShape(const Opts &opts)
{
    static const std::map<std::string, int coll::PlanShape::*> axes = {
        {"dp", &coll::PlanShape::dp},
        {"tp", &coll::PlanShape::tp},
        {"pp", &coll::PlanShape::pp},
        {"ep", &coll::PlanShape::ep}};
    coll::PlanShape shape;
    for (const std::string &item : opts.texts("plan")) {
        const auto eq = item.find('=');
        const auto axis = axes.find(item.substr(0, eq));
        if (eq == std::string::npos || axis == axes.end())
            fatal("coll: --plan entries look like dp=8 (axes dp | tp | "
                  "pp | ep), got '", item, "'");
        shape.*axis->second = static_cast<int>(util::parseInt(
            item.substr(eq + 1), ("--plan " + axis->first).c_str(), 1,
            1 << 20));
    }
    const std::string err = shape.validate();
    if (!err.empty())
        fatal("coll: invalid --plan: ", err);
    return shape;
}

int
cmdColl(const Opts &opts)
{
    const auto seed = opts.integer<std::uint64_t>("seed");
    const int ranks = opts.integer<int>("ranks");
    const int jobs = jobsOf(opts);
    exec::ThreadPool pool(jobs);
    Run run(opts, "wss coll", seed, jobs);
    obs::TraceEventSink *sink = run.trace();
    obs::MetricsRegistry metrics;
    const DesignPair pair = designPair(opts, "coll", &pool, run);

    coll::CollCampaignConfig cfg;
    cfg.designs = {pair.ws, pair.conv};
    cfg.kind = dcnKind(opts);
    cfg.ranks = ranks;
    cfg.collectives.clear();
    for (const auto &name : opts.texts("collectives"))
        cfg.collectives.push_back(kCollectives.at(name));
    cfg.payload_bytes = opts.reals("payloads");
    cfg.fault.at_step = opts.integer<int>("kill-step");
    cfg.fault.kill_switch = !opts.has("kill-trunk");
    cfg.fault.id = opts.integer<int>("kill-id");
    cfg.seed = seed;

    const coll::CollResult result =
        coll::CollCampaign(cfg).run(&pool, sink, &run.profiler);

    Table table("wss coll — " + Table::num(cfg.ranks) +
                    " ranks, seed " + Table::num(cfg.seed),
                {"design", "collective", "payload", "hops", "steps",
                 "flow us", "flow busbw", "model us", "model busbw",
                 "flow/model", "failed"});
    for (const auto &cell : result.cells) {
        const double ratio = cell.model.seconds > 0.0
                                 ? cell.flow.seconds / cell.model.seconds
                                 : 0.0;
        table.addRow(
            {cell.design, cell.collective,
             Table::num(cell.payload_bytes, 0), Table::num(cell.hops),
             Table::num(cell.flow.steps),
             Table::num(cell.flow.seconds * 1e6, 1),
             Table::num(cell.flow.busbw_gbps, 1),
             Table::num(cell.model.seconds * 1e6, 1),
             Table::num(cell.model.busbw_gbps, 1),
             Table::num(ratio, 3),
             Table::num(cell.flow.failed_messages)});
    }
    table.print(std::cout);
    std::cout << "campaign: " << result.cells.size() << " cells on "
              << result.threads << " threads, wall "
              << Table::num(result.wall_seconds, 2) << " s\n";

    // Optional cycle-accurate crosscheck: replay each schedule on
    // the waferscale switch's own internal chiplet fabric.
    if (opts.has("fabric")) {
        const double fab_payload = opts.real("fabric-payload");
        const std::int64_t half = pair.spec.ssc.radix / 2;
        const std::int64_t fab_ports =
            std::max<std::int64_t>((ranks + half - 1) / half, 1) * half;
        const topology::LogicalTopology fab = topology::buildFoldedClos(
            {fab_ports, pair.spec.ssc,
             opts.integer<int>("leaf-split")});
        const sim::NetworkSpec net_spec = fabricSpec(opts);
        Table fab_table(
            "wss coll — cycle-accurate on '" + fab.name() + "'",
            {"collective", "fabric us", "fabric busbw", "model us",
             "fabric/model"});
        for (const auto &spec : cfg.collectives) {
            const coll::Schedule schedule =
                coll::buildSchedule(spec, ranks);
            coll::CollExecConfig exec_cfg;
            exec_cfg.metrics = &metrics;
            exec_cfg.trace = sink;
            exec_cfg.trace_label = "fabric";
            const coll::CollExecResult fr = coll::executeOnFabric(
                schedule, fab_payload, fab, net_spec,
                pair.ws.cycle_seconds, 64.0, exec_cfg);
            const coll::CollExecResult mr = coll::executeAlphaBeta(
                schedule, fab_payload,
                coll::alphaBetaOf(pair.ws, pair.ws.line_rate_gbps, 1));
            fab_table.addRow(
                {schedule.name(), Table::num(fr.seconds * 1e6, 2),
                 Table::num(fr.busbw_gbps, 1),
                 Table::num(mr.seconds * 1e6, 2),
                 Table::num(mr.seconds > 0.0 ? fr.seconds / mr.seconds
                                             : 0.0,
                            3)});
        }
        fab_table.print(std::cout);
    }

    // Optional LLM parallelism plan: what one training iteration's
    // collective mix costs on each design.
    if (opts.has("plan")) {
        const coll::PlanShape shape = planShape(opts);
        coll::ModelSpec model;
        model.parameters = opts.real("params");
        model.layers = opts.integer<int>("layers");
        model.hidden = opts.integer<int>("hidden");
        model.tokens_per_microbatch = opts.integer<int>("tokens");
        model.microbatches = opts.integer<int>("microbatches");
        model.moe_layers = opts.integer<int>("moe-layers");
        model.moe_capacity = opts.real("moe-capacity");
        const std::vector<coll::PlannedCollective> plan =
            coll::composeTrainingStep(shape, model);

        Table plan_table(
            "wss coll plan — dp=" + Table::num(shape.dp) + " tp=" +
                Table::num(shape.tp) + " pp=" + Table::num(shape.pp) +
                " ep=" + Table::num(shape.ep) + " (" +
                Table::num(shape.totalRanks()) + " ranks)",
            {"design", "collective", "group", "payload", "calls",
             "us/call", "total ms", "share"});
        std::vector<std::string> summaries;
        for (const auto &profile : cfg.designs) {
            double iter_s = 0.0;
            std::vector<double> entry_s;
            for (const auto &e : plan) {
                const coll::Schedule schedule = coll::buildSchedule(
                    {e.collective, e.algorithm}, e.group_ranks);
                flow::DcnTopology topo =
                    buildDcn(cfg.kind, e.group_ranks, profile);
                coll::CollExecConfig exec_cfg;
                exec_cfg.metrics = &metrics;
                const coll::CollExecResult r = coll::executeOnDcn(
                    schedule, e.payload_bytes, topo, profile, exec_cfg);
                entry_s.push_back(r.seconds);
                iter_s += r.seconds * static_cast<double>(e.invocations);
            }
            for (std::size_t i = 0; i < plan.size(); ++i) {
                const auto &e = plan[i];
                const double total =
                    entry_s[i] * static_cast<double>(e.invocations);
                plan_table.addRow(
                    {profile.name, e.label,
                     Table::num(e.group_ranks) + "x" +
                         Table::num(e.concurrent_groups),
                     Table::num(e.payload_bytes, 0),
                     Table::num(e.invocations),
                     Table::num(entry_s[i] * 1e6, 1),
                     Table::num(total * 1e3, 2),
                     Table::num(iter_s > 0.0 ? total / iter_s * 100.0
                                             : 0.0,
                                1) +
                         "%"});
            }
            // Network energy ceiling for the iteration: every switch
            // of a fabric covering all ranks burning its plate power
            // for the whole (overlap-free) collective time.
            const flow::DcnTopology full =
                buildDcn(cfg.kind, shape.totalRanks(), profile);
            summaries.push_back(
                profile.name + ": comm " +
                Table::num(iter_s * 1e3, 2) + " ms/iter, " +
                Table::num(full.switchCount()) +
                " switches, network " +
                Table::num(full.switchCount() * profile.power_watts *
                               iter_s / 1e3,
                           2) +
                " kJ/iter");
        }
        plan_table.print(std::cout);
        for (const auto &line : summaries)
            std::cout << line << "\n";
    }
    run.writeResults(result, "coll");

    // Observed run: re-execute the campaign's first cell with
    // per-rank per-step telemetry on and dump the Gantt data.
    if (opts.has("stats-out")) {
        const std::string &path = opts.text("stats-out");
        const flow::SwitchProfile &profile = cfg.designs.front();
        const coll::Schedule schedule =
            coll::buildSchedule(cfg.collectives.front(), cfg.ranks);
        coll::CollExecConfig exec_cfg;
        exec_cfg.telemetry = true;
        exec_cfg.metrics = &metrics;
        exec_cfg.trace = sink;
        exec_cfg.trace_label = "coll-observed";
        exec_cfg.profiler = &run.profiler;
        exec_cfg.fault = cfg.fault;
        flow::DcnTopology topo = buildDcn(cfg.kind, cfg.ranks, profile);
        const coll::CollExecResult observed = coll::executeOnDcn(
            schedule, cfg.payload_bytes.front(), topo, profile, exec_cfg);
        observed.telemetry->dumpCsvFile(path);
        run.note(path, "coll-telemetry");
        std::cout << "telemetry written to " << path << " ("
                  << schedule.name() << ", "
                  << observed.telemetry->steps.size() << " steps, "
                  << observed.messages << " messages)\n";
    }
    run.finish();
    return 0;
}

int
cmdReport(const Opts &opts)
{
    obs::ReportOptions report_opts;
    report_opts.manifest_path = opts.text("manifest");
    report_opts.crash_path = opts.text("crash");
    if (report_opts.manifest_path.empty() && report_opts.crash_path.empty())
        fatal("report: --manifest (or --crash) needs a JSON path");
    report_opts.top_phases = opts.integer<std::size_t>("top-phases");
    report_opts.top_links = opts.integer<std::size_t>("top-links");
    report_opts.crash_events = opts.integer<std::size_t>("crash-events");
    report_opts.saturation_threshold = opts.real("saturation");

    const obs::RunReport report = obs::buildRunReport(report_opts);

    const std::string &md_path = opts.text("out");
    report.writeMarkdownFile(md_path);
    std::cout << "report written to " << md_path << "\n";
    if (opts.has("json")) {
        report.writeJsonFile(opts.text("json"));
        std::cout << "JSON written to " << opts.text("json") << "\n";
    }

    std::size_t passed = 0;
    for (const auto &check : report.checks) {
        if (check.ok)
            ++passed;
        else
            std::cout << "FAILED " << check.name << ": "
                      << check.detail << "\n";
    }
    std::cout << "health: " << passed << "/" << report.checks.size()
              << " checks passed\n";
    return report.ok() ? 0 : 1;
}

int
cmdPlan(const Opts &opts)
{
    const core::DesignSpec spec = solveSpec(opts);
    const auto result = core::RadixSolver(spec).solveMaxPorts();
    const auto &best = result.best;
    if (best.ports == 0)
        fatal("no feasible design for this spec");

    const auto delivery = sysarch::sizePowerDelivery(
        best.power.total(), spec.substrate_side);
    const int grid = static_cast<int>(std::ceil(
                         std::sqrt(best.ssc_chiplets))) + 2;
    const auto cooling =
        sysarch::sizeCoolingLoop(best.power.total(), grid);
    const auto enclosure =
        sysarch::planEnclosure(best.ports, spec.ssc.line_rate);

    Table table("wss plan — full system", {"component", "value"});
    table.addRow({"switch radix", Table::num(best.ports)});
    table.addRow({"power (kW)",
                  Table::num(best.power.total() / 1000.0, 1)});
    table.addRow({"PSUs (N+N)", Table::num(delivery.psus)});
    table.addRow({"DC-DC bricks", Table::num(delivery.dcdc_converters)});
    table.addRow({"VRMs", Table::num(delivery.vrms)});
    table.addRow({"fits under wafer",
                  delivery.fits_under_wafer ? "yes" : "no"});
    table.addRow({"PCLs / channels",
                  Table::num(cooling.pcls) + " / " +
                      Table::num(cooling.supply_channels)});
    table.addRow({"junction (C)",
                  Table::num(cooling.junction_temperature, 0)});
    table.addRow({"front-panel adapters",
                  Table::num(enclosure.adapters)});
    table.addRow({"chassis (RU)", Table::num(enclosure.rack_units)});
    table.print(std::cout);
    return 0;
}

/// Every subcommand with its flag table.
std::vector<Command>
commands()
{
    const cli::Flag ports = {"ports", Int, "Clos ports", "512", 1, 1e6};
    const cli::Flag packet = {"packet-flits", Int, "packet flits", "1", 1,
                              1024};
    // The calibration sweeps of `dcn` and `coll` are short and reach
    // further into saturation than a `sim` sweep.
    const std::map<std::string, std::string> pair_defaults = {
        {"restarts", "2"}, {"points", "5"}, {"max-rate", "0.95"}};
    return {
        {"solve", "size the maximum-radix switch for a design point",
         cli::table({kDesign, kSolve}), cmdSolve},
        {"sim", "latency-vs-load sweep on a waferscale Clos fabric",
         cli::table(
             {{ports,
               {"pattern", Text, "traffic pattern", "uniform"},
               packet,
               {"stats-out", Path, "router/link counters of one more run"},
               {"rate", Real, "its load (default: max-rate)", "", 0.001, 1},
               {"obs-sample", Int, "its time series step (0 = none)", "0",
                0, 1e9}},
              kFabric, kRates, {kGeometric}, kObs}),
         cmdSim},
        {"sweep", "parallel multi-pattern sweep campaign (--jobs N)",
         cli::table({{ports,
                      {"patterns", Texts, "traffic patterns", "uniform"},
                      packet,
                      {"reps", Int, "repetitions per point", "1", 1, 1000},
                      kJobs},
                     kFabric, kRates, {kGeometric}, kObs, kOutputs}),
         cmdSweep},
        {"trace", "generate (and save) a synthetic mini-app message trace",
         cli::table({{{"app", Text, "mini-app", "lulesh"},
                      {"ranks", Int, "ranks", "512", 1, 1e6},
                      {"iterations", Int, "iterations", "8", 1, 1e6},
                      {"period", Int, "cycles per iteration", "600", 1, 1e9},
                      {"message-flits", Int, "base message flits", "8", 1,
                       1e6},
                      {"duplicate", Int, "tile the trace N times", "1", 1,
                       1024},
                      {"out", Path, "save the trace here"},
                      kSeed}}),
         cmdTrace},
        {"yield", "manufacturing-yield analysis of a chiplet assembly",
         cli::table({{{"chiplets", Int, "chiplet sockets", "96", 1, 1e6},
                      {"die-area", Real, "die area (mm^2)", "800", 1, 1e5},
                      {"defects", Real, "defects per cm^2", "0.1", 0, 100},
                      {"bond-yield", Real, "bond yield", "0.999", 0, 1},
                      {"substrate", Real, "monolithic wafer side (mm)",
                       "300", 1, 1000}}}),
         cmdYield},
        {"resilience", "Monte-Carlo defect/spare/degraded-mode campaign",
         cli::table(
             {{{"ports", Ints, "switch radices", "256", 2, 1e6},
               {"densities", Reals, "defects per cm^2", "0.1,0.3", 0, 100},
               {"spares", Ints, "spare-SSC counts", "0,1,2", 0, 1024},
               {"ssc-radix", Int, "chiplet radix", "64", 2, 4096},
               {"line-rate", Real, "SSC line rate (Gbps)", "200", 1, 1e5},
               {"samples", Int, "defect maps per cell", "500", 1, 1e9},
               {"sim-samples", Int, "maps also simulated", "0", 0, 1e9},
               {"sim-rate", Real, "their offered load", "0.9", 0.001, 1},
               {"packet-flits", Int, "packet flits", "4", 1, 1024},
               {"bond-yield", Real, "bond yield", "0.999", 0, 1},
               {"test-escape", Real, "KGD test escapes", "0.05", 0, 1},
               {"node-fail", Real, "SSC field failures", "0.002", 0, 1},
               {"link-fail", Real, "link field failures", "0.0005", 0, 1},
               kJobs},
              kFabric, kObs, kOutputs}),
         cmdResilience},
        {"dcn", "flow-level DCN comparison, waferscale vs conventional",
         cli::table(
             {{{"hosts", Int, "endpoints to cover", "1024", 2, 1e8},
               {"flows", Int, "flows per cell", "100000", 1, 1e9},
               {"workloads", Texts, "websearch | hadoop | fixed | incast",
                "websearch"},
               {"loads", Reals, "loads (of host bw)", "0.3,0.7", 0.001, 1},
               {"node-fail", Real, "switch failures (mid-run)", "0", 0, 1},
               {"stats-out", Path, "windowed link telemetry of cell 1"},
               {"telemetry-window", Real, "its window (s, 0 = auto)", "0",
                0, 1e6},
               kJobs},
              kPair, kDesign, kFabric, kRates, kObs, kOutputs},
             pair_defaults),
         cmdDcn},
        {"coll", "collective comparison, waferscale vs conventional",
         cli::table(
             {{{"ranks", Int, "ranks (hd/tree: power of two)", "64", 1,
                1 << 20},
               {"collectives", Texts, "collectives", "ring,hd,tree,alltoall",
                0, 0, collectiveNames()},
               {"payloads", Reals, "per-rank bytes", "1048576", 1, 1e15},
               {"kill-step", Int, "kill before step N", "-1", -1, 1e9},
               {"kill-trunk", Switch, "kill a trunk, not a switch"},
               {"kill-id", Int, "which switch/trunk dies", "0", 0, 1e9},
               {"fabric", Switch, "replay on the waferscale fabric too"},
               {"fabric-payload", Real, "its per-rank bytes", "65536", 1,
                1e12},
               {"leaf-split", Int, "its Clos leaf split", "1", 1, 64},
               {"plan", Texts, "dp=8,tp=4,pp=2,ep=2: price an LLM iteration"},
               {"params", Real, "--plan parameters", "7e9", 1, 1e15},
               {"layers", Int, "--plan layers", "32", 1, 1e6},
               {"hidden", Int, "--plan hidden size", "4096", 1, 1e9},
               {"tokens", Int, "--plan tokens/microbatch", "4096", 1, 1e9},
               {"microbatches", Int, "--plan microbatches", "8", 1, 1e6},
               {"moe-layers", Int, "--plan MoE layers", "0", 0, 1e6},
               {"moe-capacity", Real, "--plan MoE capacity", "1", 0.001,
                1000},
               {"stats-out", Path, "per-rank step telemetry of cell 1"},
               kJobs},
              kPair, kDesign, kFabric, kRates, kObs, kOutputs},
             pair_defaults),
         cmdColl},
        {"report",
         "render a run's manifest as Markdown (exit 1 on a failed check)",
         cli::table(
             {{{"manifest", Text, "manifest to report on"},
               {"crash", Text, "crash post-mortem to render"},
               {"out", Path, "Markdown output", "report.md"},
               {"json", Path, "JSON twin"},
               {"top-phases", Int, "self-time rows", "12", 0, 1e6},
               {"top-links", Int, "hottest-link rows", "10", 0, 1e6},
               {"crash-events", Int, "events per thread", "12", 0, 1e6},
               {"saturation", Real, "saturated utilization", "0.95", 0,
                1}}}),
         cmdReport},
        {"plan", "full system plan (power delivery / cooling / enclosure)",
         cli::table({kDesign, kSolve}), cmdPlan},
    };
}

void
usage(const std::vector<Command> &cmds)
{
    std::cout << "usage: wss <subcommand> [--flags]\n\n";
    for (const Command &cmd : cmds)
        std::cout << "  " << std::left << std::setw(12) << cmd.name
                  << cmd.about << "\n";
    std::cout << "\nRun `wss <subcommand> --help` for the flags of each.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Command> cmds = commands();
    const std::string name = argc < 2 ? "" : argv[1];
    for (const Command &cmd : cmds)
        if (cmd.name == name)
            return cmd.run(Opts(cmd, argc, argv, 2));
    usage(cmds);
    return name == "help" || name == "--help" ? 0 : 1;
}
