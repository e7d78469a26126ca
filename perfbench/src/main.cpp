/**
 * @file
 * wss_perfbench — the repository's benchmark program.
 *
 *   wss_perfbench --workload fabric|dcn|coll --seed N --seconds S
 *                 --trace 0|1 [--spans-out PATH]
 *
 * --trace 0 sets the workload up several times (setup_s is the
 * median), then repeats its timed simulation calls for S seconds and
 * reports the end-to-end metrics as medians over those iterations.
 * --trace 1 reports the per-layer metrics instead: an untraced pass,
 * then a pass with the benchmark's own spans around every layer call
 * (written to --spans-out), whose per-layer self times partition its
 * root span. Both modes print a human-readable table, then as the
 * last line one JSON object {correct, attempted, failed, metrics}.
 *
 * Simulated results are deterministic per seed, so the metrics are
 * host time, host memory and failures; the behaviour digest printed
 * beside them must repeat across iterations and across the traced
 * and untraced passes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/seed.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// An untraced run sets its workload up at least kMinSetups times and
/// until kSetupSeconds have passed (at most kMaxSetups); setup_s is the
/// median. A cheap set-up thus gets many samples, a costly one few.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupSeconds = 2.0;
/// Fewest iterations behind the untraced medians, and behind each
/// pass of a traced run, whatever --seconds says.
constexpr int kMinIterations = 3;
constexpr int kMinTracedIterations = 2;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "wss_perfbench: " << msg
              << "\nusage: wss_perfbench --workload fabric|dcn|coll "
                 "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n";
    std::exit(2);
}

long
parseLong(const std::string &flag, const std::string &text, long lo)
{
    char *end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || v < lo)
        usageError(flag + " needs an integer >= " + std::to_string(lo) +
                   ", got '" + text + "'");
    return v;
}

/// Everything a sequence of iterations measured.
struct Pass
{
    std::vector<IterationResult> iterations;

    double
    medianOf(double (*f)(const IterationResult &)) const
    {
        std::vector<double> values;
        for (const IterationResult &r : iterations)
            values.push_back(f(r));
        return median(std::move(values));
    }
    std::int64_t
    attempted() const
    {
        std::int64_t n = 0;
        for (const IterationResult &r : iterations)
            n += r.attempted;
        return n;
    }
    std::int64_t
    failed() const
    {
        std::int64_t n = 0;
        for (const IterationResult &r : iterations)
            n += r.failed;
        return n;
    }
};

/// Iterate until @p seconds have passed and at least @p min_iterations
/// ran. @p each wraps every iteration (the traced pass opens a span).
template <class Wrap>
Pass
iterateFor(Workload &w, const Context &ctx, double seconds,
           int min_iterations, Wrap each)
{
    Pass pass;
    const auto start = std::chrono::steady_clock::now();
    while (static_cast<int>(pass.iterations.size()) < min_iterations ||
           secondsSince(start) < seconds)
        pass.iterations.push_back(each([&] { return w.iterate(ctx); }));
    return pass;
}

Pass
iterateFor(Workload &w, const Context &ctx, double seconds,
           int min_iterations)
{
    return iterateFor(w, ctx, seconds, min_iterations,
                      [](auto f) { return f(); });
}

/// Output checks of a pass: every iteration's checks held and every
/// iteration simulated the same thing as the first.
std::vector<std::string>
checkPass(const Pass &pass, const std::string &label)
{
    std::vector<std::string> problems;
    for (const IterationResult &r : pass.iterations) {
        for (const std::string &c : r.check_failures)
            problems.push_back(label + ": " + c);
        if (r.digest != pass.iterations.front().digest)
            problems.push_back(label +
                               ": digest changed between iterations");
    }
    return problems;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
failedRatio(const Pass &pass)
{
    return ratio(static_cast<double>(pass.failed()),
                 static_cast<double>(pass.attempted()));
}

void
printTable(const std::string &title, const std::vector<Metric> &metrics)
{
    std::cout << title << "\n";
    for (const Metric &m : metrics) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %14.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        std::cout << line;
    }
}

void
printResult(bool correct, std::int64_t attempted, std::int64_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v);
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << num << ", \"unit\": \""
                  << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

double
simRate(const IterationResult &r)
{
    return ratio(r.sim_flits, r.sim_seconds) / 1e6;
}

double
flowRate(const IterationResult &r)
{
    return ratio(r.flows, r.flow_seconds) / 1e3;
}

double
wallOf(const IterationResult &r)
{
    return r.wall_s;
}

void
reportProblems(const std::vector<std::string> &problems)
{
    for (const std::string &p : problems)
        std::cout << "CHECK FAILED " << p << "\n";
}

int
runUntraced(const std::string &name, const Context &ctx, double seconds)
{
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    const auto setup_start = std::chrono::steady_clock::now();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups &&
            secondsSince(setup_start) < kSetupSeconds)) {
        w = makeWorkload(name);
        const auto start = std::chrono::steady_clock::now();
        w->setup(ctx);
        setups.push_back(secondsSince(start));
    }
    const Pass pass = iterateFor(*w, ctx, seconds, kMinIterations);
    const std::vector<std::string> problems = checkPass(pass, name);
    const IterationResult &first = pass.iterations.front();

    std::vector<Metric> human = {
        {"setup_s", median(setups), "s"},
        {"wall_s", pass.medianOf(wallOf), "s"}};
    if (first.sim_seconds > 0.0)
        human.push_back(
            {"sim_mflits_per_s", pass.medianOf(simRate), "Mflit/s"});
    if (first.flow_seconds > 0.0)
        human.push_back(
            {"flow_kflows_per_s", pass.medianOf(flowRate), "kflow/s"});
    human.push_back({"failed_ratio", failedRatio(pass), "fraction"});
    human.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
    printTable("workload " + name + ", seed " + std::to_string(ctx.seed) +
                   ", " + std::to_string(ctx.pool->size()) + " workers, " +
                   std::to_string(pass.iterations.size()) +
                   " iterations, " + std::to_string(setups.size()) +
                   " set-ups, digest " + hex(first.digest),
               human);
    reportProblems(problems);

    // The end-to-end metrics every workload has, never zero.
    const std::vector<Metric> gated = {human[0], human[1], human.back()};
    printResult(problems.empty(), pass.attempted(), pass.failed(), gated);
    return 0;
}

/// Per-layer metrics read from program outputs, with their units;
/// reported as the median over the traced iterations (0 where the
/// workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>> kOutputLayers = {
    {"sim.cycles", "count"},
    {"sim.flits_delivered", "count"},
    {"sim.stalled_points", "count"},
    {"sim.low_load.kcycles_per_s", "kcycle/s"},
    {"sim.saturated.mflits_per_s", "Mflit/s"},
    {"sim.clos.mflits_per_s", "Mflit/s"},
    {"sim.clos_large.mflits_per_s", "Mflit/s"},
    {"sim.mesh.mflits_per_s", "Mflit/s"},
    {"exec.busy_s", "s"},
    {"exec.utilization", "fraction"},
    {"exec.max_cell_s", "s"},
    {"flow.ws.us_per_flow", "us/flow"},
    {"flow.conv.us_per_flow", "us/flow"},
    {"flow.websearch.us_per_flow", "us/flow"},
    {"flow.hadoop.us_per_flow", "us/flow"},
    {"flow.flows", "count"},
    {"flow.failed_flows", "count"},
    {"coll.us_per_message", "us/msg"},
    {"coll.model_mismatches", "count"},
    {"coll.messages", "count"},
    {"fault.rerouted", "count"},
    {"obs.trace_events", "count"},
};

/// Per-layer times from the benchmark's spans: per set-up for spans
/// opened during set-up, per iteration otherwise.
const std::vector<std::string> kSpanLayers = {
    "core.solve",    "sim.build",   "sim.run",       "sim.replay",
    "flow.calibrate", "flow.generate", "flow.build", "flow.simulate",
    "coll.schedule", "coll.dcn",    "trace.lower",   "fault.plan",
};

int
runTraced(const std::string &name, const Context &ctx, double seconds,
          const std::string &spans_out)
{
    std::vector<std::string> problems;

    // coll: the flow-level executions with the program's observability
    // off, first — the flight recorder cannot be turned off again.
    double obs_off_s = 0.0;
    std::unique_ptr<Workload> w = makeWorkload(name);
    w->setup(ctx);
    if (name == "coll") {
        Context off = ctx;
        off.program_obs = false;
        const Pass pass =
            iterateFor(*w, off, seconds / 4, kMinTracedIterations);
        obs_off_s = pass.medianOf(
            [](const IterationResult &r) { return r.flow_seconds; });
        const std::vector<std::string> p = checkPass(pass, "obs off");
        problems.insert(problems.end(), p.begin(), p.end());
    }

    const Pass plain =
        iterateFor(*w, ctx, seconds / 3, kMinTracedIterations);
    {
        const std::vector<std::string> p = checkPass(plain, "untraced");
        problems.insert(problems.end(), p.begin(), p.end());
    }

    SpanRecorder recorder(
        wss::deriveSeed(ctx.seed, static_cast<std::uint64_t>(
                                      std::chrono::steady_clock::now()
                                          .time_since_epoch()
                                          .count())));
    Context traced = ctx;
    traced.spans = &recorder;
    std::vector<int> iteration_spans;
    int root = 0, setup_span = 0;
    Pass spanned;
    {
        ScopedSpan root_span(&recorder, "bench.run");
        root = root_span.index();
        std::unique_ptr<Workload> tw = makeWorkload(name);
        {
            ScopedSpan s(&recorder, "bench.setup");
            setup_span = s.index();
            tw->setup(traced);
        }
        spanned = iterateFor(*tw, traced, seconds / 3, kMinTracedIterations,
                             [&](auto f) {
            ScopedSpan s(&recorder, "bench.iteration");
            iteration_spans.push_back(s.index());
            return f();
        });
    }
    {
        const std::vector<std::string> p = checkPass(spanned, "traced");
        problems.insert(problems.end(), p.begin(), p.end());
    }
    if (spanned.iterations.front().digest != plain.iterations.front().digest)
        problems.push_back("traced digest differs from untraced");
    if (!spans_out.empty())
        recorder.writeJson(spans_out);

    // Self times partition the root span.
    const Span &root_span = recorder.spans()[static_cast<std::size_t>(root)];
    const double root_s = root_span.end_s - root_span.start_s;
    double self_sum = 0.0;
    std::map<std::string, double> by_layer;
    for (const auto &[span, self] : recorder.selfByName(root)) {
        self_sum += self;
        by_layer[span.substr(0, span.find('.'))] += self;
    }
    if (std::abs(self_sum - root_s) > 1e-9 * std::max(1.0, root_s))
        problems.push_back("span self times do not sum to the root");

    const std::map<std::string, double> setup_self =
        recorder.selfByName(setup_span);
    std::map<std::string, double> iter_self;
    for (int idx : iteration_spans)
        for (const auto &[span, self] : recorder.selfByName(idx))
            iter_self[span] +=
                self / static_cast<double>(iteration_spans.size());

    std::vector<Metric> metrics;
    for (const std::string &span : kSpanLayers) {
        const auto s = setup_self.find(span);
        const auto i = iter_self.find(span);
        metrics.push_back({span + "_s",
                           (s == setup_self.end() ? 0.0 : s->second) +
                               (i == iter_self.end() ? 0.0 : i->second),
                           "s"});
    }
    for (const auto &[key, unit] : kOutputLayers) {
        std::vector<double> values;
        for (const IterationResult &r : spanned.iterations) {
            const auto it = r.layer.find(key);
            values.push_back(it == r.layer.end() ? 0.0 : it->second);
        }
        metrics.push_back({key, median(values), unit});
    }
    const IterationResult &first = spanned.iterations.front();
    metrics.push_back(
        {"sim_mflits_per_s",
         first.sim_seconds > 0.0 ? spanned.medianOf(simRate) : 0.0,
         "Mflit/s"});
    metrics.push_back({"flow_kflows_per_s",
                       first.flow_seconds > 0.0 ? spanned.medianOf(flowRate)
                                                : 0.0,
                       "kflow/s"});
    metrics.push_back({"failed_ratio", failedRatio(spanned), "fraction"});
    const double obs_on_s = plain.medianOf(
        [](const IterationResult &r) { return r.flow_seconds; });
    metrics.push_back(
        {"obs.overhead_ratio",
         name == "coll" ? ratio(obs_on_s, obs_off_s) : 0.0, "ratio"});
    metrics.push_back({"bench.trace_overhead_ratio",
                       ratio(spanned.medianOf(wallOf), plain.medianOf(wallOf)),
                       "ratio"});

    std::vector<Metric> layers;
    for (const auto &[layer, self] : by_layer) {
        const long share = std::lround(100.0 * self / root_s);
        layers.push_back(
            {layer, self, "s self (" + std::to_string(share) + "% of root)"});
    }
    printTable("workload " + name + " traced run, seed " +
                   std::to_string(ctx.seed) + ": root " +
                   std::to_string(root_s) + " s over " +
                   std::to_string(spanned.iterations.size()) +
                   " iterations, digest " + hex(first.digest) +
                   " (untraced " + hex(plain.iterations.front().digest) + ")",
               layers);
    printTable("per-layer metrics", metrics);
    reportProblems(problems);
    printResult(problems.empty(), spanned.attempted(), spanned.failed(),
                metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usageError("malformed argument '" + key + "'");
        args[key.substr(2)] = argv[++i];
    }
    for (const auto &[key, value] : args)
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace" && key != "spans-out")
            usageError("unknown flag --" + key);
    for (const char *required : {"workload", "seed", "seconds", "trace"})
        if (!args.count(required))
            usageError(std::string("missing --") + required);

    const std::string name = args["workload"];
    if (!makeWorkload(name))
        usageError("unknown workload '" + name + "' (fabric | dcn | coll)");
    const long trace = parseLong("--trace", args["trace"], 0);
    if (trace > 1)
        usageError("--trace takes 0 or 1");
    const double seconds =
        static_cast<double>(parseLong("--seconds", args["seconds"], 1));
    // The same pool size on every run of a machine: all its cores, up
    // to four.
    const unsigned workers =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

    wss::exec::ThreadPool pool(static_cast<int>(workers));
    Context ctx;
    ctx.seed = static_cast<std::uint64_t>(parseLong("--seed", args["seed"], 0));
    ctx.pool = &pool;
    return trace ? runTraced(name, ctx, seconds, args["spans-out"])
                 : runUntraced(name, ctx, seconds);
}
