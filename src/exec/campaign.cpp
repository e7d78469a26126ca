#include "exec/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <limits>
#include <ostream>
#include <string_view>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/watchdog.hpp"
#include "util/artifact.hpp"
#include "util/logging.hpp"
#include "util/stats_accumulator.hpp"
#include "util/text.hpp"

namespace wss::exec {

namespace {

using util::jsonEscape;
using util::elapsedSeconds;

/**
 * Attach the calling campaign thread to the flight recorder and mark
 * it active: "worker-<slot>" on a worker of @p pool, "caller" on any
 * other thread or with no pool (a thread keeps the label it first
 * attached with). Every cell calls this first, so the watchdog sees
 * it. No-op while the recorder is off.
 */
void
attachToFlightRecorder(const ThreadPool *pool)
{
    if (!obs::FlightRecorder::enabled())
        return;
    const int slot = pool ? pool->workerSlot() : 0;
    obs::FlightRecorder::attachCurrentThread(
        !pool || slot == pool->size() ? "caller"
                                      : "worker-" + std::to_string(slot));
    obs::FlightRecorder::markThreadActive();
}

/// Trace track of the thread in worker slot @p slot: the calling
/// thread is track 0 with or without a pool, so campaigns sharing a
/// sink keep it on one track, and pool worker w is track w + 1.
int
traceTrack(const ThreadPool *pool, int slot)
{
    return !pool || slot == pool->size() ? 0 : slot + 1;
}

/// Execute one (repetition, rate) cell of @p job. The point runs
/// through the shared serial code path (sim::runLoadPoint), seeded
/// from the repetition index alone.
PointOutcome
runSweepPoint(const SweepJob &job, int repetition, int rate_index)
{
    const auto start = std::chrono::steady_clock::now();

    sim::SimConfig cfg = job.cfg;
    cfg.seed = deriveSeed(job.cfg.seed,
                          static_cast<std::uint64_t>(repetition));
    const double rate = job.rates[static_cast<std::size_t>(rate_index)];

    // Design-point boundary for crash post-mortems; purely passive.
    obs::recordEvent(obs::EventKind::DesignPoint, repetition, rate_index,
                     "rate " + std::to_string(rate));

    PointOutcome outcome;
    outcome.repetition = repetition;
    outcome.rate_index = rate_index;
    outcome.point = sim::runLoadPoint(
        [&] { return job.make_network(cfg.seed); },
        [&](double r) { return job.make_workload(r, cfg.seed); }, rate,
        cfg, &outcome.result);
    outcome.seconds = elapsedSeconds(start);
    return outcome;
}

/// Finalize a job's complete rep-major outcome grid into
/// per-repetition curves plus the combined curve.
SweepRunOutput
finalizeSweepRun(const SweepJob &job, std::vector<PointOutcome> outcomes,
                 double wall_seconds)
{
    const auto rates = job.rates.size();

    SweepRunOutput out;
    out.wall_seconds = wall_seconds;
    out.outcomes = std::move(outcomes);

    out.reps.reserve(static_cast<std::size_t>(job.repetitions));
    for (int rep = 0; rep < job.repetitions; ++rep) {
        std::vector<sim::LoadPoint> points(rates);
        for (std::size_t i = 0; i < rates; ++i)
            points[i] =
                out.outcomes[static_cast<std::size_t>(rep) * rates + i]
                    .point;
        out.reps.push_back(sim::finalizeSweep(std::move(points)));
    }

    if (job.repetitions == 1) {
        out.combined = out.reps.front();
        return out;
    }

    // Average each rate's point across repetitions; a point is
    // stable only when every repetition's run was.
    std::vector<sim::LoadPoint> combined(rates);
    for (std::size_t i = 0; i < rates; ++i) {
        StatsAccumulator offered, accepted, avg, p99;
        bool stable = true;
        for (const auto &rep : out.reps) {
            const auto &p = rep.points[i];
            offered.add(p.offered);
            accepted.add(p.accepted);
            avg.add(p.avg_latency);
            p99.add(p.p99_latency);
            stable = stable && p.stable;
        }
        combined[i].offered = offered.mean();
        combined[i].accepted = accepted.mean();
        combined[i].avg_latency = avg.mean();
        combined[i].p99_latency = p99.mean();
        combined[i].stable = stable;
    }
    out.combined = sim::finalizeSweep(std::move(combined));
    return out;
}

} // namespace

int
Campaign::addSweep(std::string name, SweepJob job)
{
    if (job.rates.empty())
        fatal("Campaign: sweep '", name, "' needs at least one rate");
    if (job.repetitions < 1)
        fatal("Campaign: sweep '", name,
              "' needs at least one repetition");
    if (!job.make_network || !job.make_workload)
        fatal("Campaign: sweep '", name, "' needs factories");
    Entry entry;
    entry.name = std::move(name);
    entry.is_sweep = true;
    entry.sweep = std::move(job);
    entries_.push_back(std::move(entry));
    return static_cast<int>(entries_.size()) - 1;
}

int
Campaign::addTask(std::string name, std::function<void()> fn)
{
    if (!fn)
        fatal("Campaign: task '", name, "' needs a callable");
    Entry entry;
    entry.name = std::move(name);
    entry.is_sweep = false;
    entry.fn = std::move(fn);
    entries_.push_back(std::move(entry));
    return static_cast<int>(entries_.size()) - 1;
}

CampaignResult
Campaign::run(ThreadPool *pool, obs::TraceEventSink *trace,
              obs::Profiler *profiler) const
{
    const auto start = std::chrono::steady_clock::now();

    // Flatten every job into cells: one per (repetition, rate) for
    // sweeps, one per generic task. A job's cells are contiguous,
    // from first_cell[j] up to first_cell[j + 1].
    struct Cell
    {
        int job = 0;
        int repetition = 0;
        int rate_index = 0;
    };
    std::vector<Cell> cells;
    std::vector<std::size_t> first_cell;
    for (int j = 0; j < jobCount(); ++j) {
        const Entry &entry = entries_[static_cast<std::size_t>(j)];
        first_cell.push_back(cells.size());
        if (!entry.is_sweep) {
            cells.push_back({j, 0, 0});
            continue;
        }
        for (int rep = 0; rep < entry.sweep.repetitions; ++rep)
            for (int ri = 0;
                 ri < static_cast<int>(entry.sweep.rates.size()); ++ri)
                cells.push_back({j, rep, ri});
    }
    first_cell.push_back(cells.size());

    // Slots keyed by cell index, each written exactly once; a slot
    // also carries its cell's wall time, so nothing on the execution
    // path takes a lock.
    std::vector<PointOutcome> outcomes(cells.size());

    // One profiler phase per job; job names may contain '/' (which
    // the profiler reserves for nesting), so sanitize them once.
    // Workers time into their own profiler (slot pool->size() is the
    // calling thread), merged into @p profiler after the barrier.
    std::vector<obs::Profiler> worker_prof(
        profiler ? static_cast<std::size_t>(pool ? pool->size() + 1 : 1)
                 : 0);
    std::vector<std::string> phase_names;
    if (profiler) {
        phase_names.reserve(entries_.size());
        for (const Entry &entry : entries_) {
            std::string name = entry.name;
            for (char &c : name)
                if (c == '/')
                    c = ':';
            phase_names.push_back(std::move(name));
        }
    }

    // Liveness/progress plumbing (flight recorder + watchdog): all
    // of it is passive — events never feed back into the cells, so
    // results stay bit-identical with it on or off.
    obs::Watchdog::setProgressTotal(cells.size());

    const auto runCell = [&](std::int64_t index) {
        const Cell &cell = cells[static_cast<std::size_t>(index)];
        const Entry &entry =
            entries_[static_cast<std::size_t>(cell.job)];
        const int slot = pool ? pool->workerSlot() : 0;
        attachToFlightRecorder(pool);
        obs::recordEvent(obs::EventKind::JobStart, index, cell.job,
                         entry.name);
        if (obs::FlightRecorder::enabled()) {
            std::string detail = entry.name;
            if (entry.is_sweep) {
                char point[48];
                std::snprintf(
                    point, sizeof point, " rep %d rate %.3g",
                    cell.repetition,
                    entry.sweep.rates[static_cast<std::size_t>(
                        cell.rate_index)]);
                detail += point;
            }
            obs::FlightRecorder::setThreadDetail(detail);
        }
        obs::ScopedPhase cell_phase(
            profiler ? &worker_prof[static_cast<std::size_t>(slot)]
                     : nullptr,
            profiler ? phase_names[static_cast<std::size_t>(cell.job)]
                     : std::string_view());
        const std::int64_t ts = trace ? trace->nowMicros() : 0;
        PointOutcome &outcome = outcomes[static_cast<std::size_t>(index)];
        if (entry.is_sweep) {
            outcome = runSweepPoint(entry.sweep, cell.repetition,
                                    cell.rate_index);
        } else {
            const auto cell_start = std::chrono::steady_clock::now();
            entry.fn();
            outcome.seconds = elapsedSeconds(cell_start);
        }

        if (trace) {
            std::vector<obs::TraceArg> args;
            args.push_back(obs::TraceArg::str("job", entry.name));
            args.push_back(obs::TraceArg::str(
                "kind", entry.is_sweep ? "sweep" : "task"));
            if (entry.is_sweep) {
                args.push_back(obs::TraceArg::num(
                    "repetition",
                    static_cast<std::int64_t>(cell.repetition)));
                args.push_back(obs::TraceArg::num(
                    "rate_index",
                    static_cast<std::int64_t>(cell.rate_index)));
                args.push_back(obs::TraceArg::num(
                    "rate", entry.sweep.rates[static_cast<std::size_t>(
                                cell.rate_index)]));
            }
            trace->complete(entry.name,
                            entry.is_sweep ? "sweep" : "task",
                            traceTrack(pool, slot), ts,
                            trace->nowMicros() - ts, std::move(args));
        }

        obs::recordEvent(obs::EventKind::JobFinish, index, cell.job,
                         entry.name);
        obs::Watchdog::addProgressDone();
        // Idle between cells: a drained queue must not read as a
        // stalled worker.
        obs::FlightRecorder::markThreadIdle();
    };
    if (pool)
        pool->parallelFor(static_cast<std::int64_t>(cells.size()),
                          runCell);
    else
        for (std::int64_t i = 0;
             i < static_cast<std::int64_t>(cells.size()); ++i)
            runCell(i);

    // Barrier passed: merge the worker profilers, then read each
    // job's timing and outcomes off its run of slots.
    if (profiler)
        for (const obs::Profiler &wp : worker_prof)
            profiler->merge(wp, "campaign");
    if (trace) {
        trace->setThreadName(traceTrack(pool, pool ? pool->size() : 0),
                             "caller");
        for (int w = 0; pool && w < pool->size(); ++w)
            trace->setThreadName(traceTrack(pool, w),
                                 "worker " + std::to_string(w));
    }
    CampaignResult result;
    result.wall_seconds = elapsedSeconds(start);
    result.threads = pool ? pool->size() : 1;
    result.jobs.resize(entries_.size());

    for (std::size_t j = 0; j < entries_.size(); ++j) {
        const Entry &entry = entries_[j];
        CampaignJobResult &job_result = result.jobs[j];
        job_result.name = entry.name;
        job_result.kind = entry.is_sweep ? "sweep" : "task";

        const auto begin =
            outcomes.begin() + static_cast<std::ptrdiff_t>(first_cell[j]);
        const auto end = outcomes.begin() +
                         static_cast<std::ptrdiff_t>(first_cell[j + 1]);
        QuantileSampler cell_seconds;
        for (auto it = begin; it != end; ++it) {
            job_result.seconds += it->seconds;
            job_result.max_cell_seconds =
                std::max(job_result.max_cell_seconds, it->seconds);
            cell_seconds.add(it->seconds);
        }
        job_result.cells = static_cast<int>(end - begin);
        job_result.mean_cell_seconds =
            job_result.seconds / static_cast<double>(job_result.cells);
        job_result.p95_cell_seconds = cell_seconds.quantile(0.95);

        if (entry.is_sweep)
            job_result.sweep = finalizeSweepRun(
                entry.sweep,
                std::vector<PointOutcome>(std::make_move_iterator(begin),
                                          std::make_move_iterator(end)),
                result.wall_seconds);
    }
    return result;
}

void
CampaignResult::writeCsv(std::ostream &os) const
{
    os << "# wall_seconds=" << wall_seconds << "\n";
    os << "# threads=" << threads << "\n";
    os << "job,kind,repetition,offered,accepted,avg_latency,"
          "p99_latency,stable,seconds\n";
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto &job : jobs) {
        if (job.kind == "task") {
            os << job.name << ",task,,,,,,," << job.seconds << "\n";
            continue;
        }
        for (const auto &outcome : job.sweep.outcomes) {
            os << job.name << ",sweep," << outcome.repetition << ","
               << outcome.point.offered << ","
               << outcome.point.accepted << ","
               << outcome.point.avg_latency << ","
               << outcome.point.p99_latency << ","
               << (outcome.point.stable ? 1 : 0) << ","
               << outcome.seconds << "\n";
        }
    }
}

void
CampaignResult::writeJson(std::ostream &os) const
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\n  \"wall_seconds\": " << wall_seconds
       << ",\n  \"threads\": " << threads << ",\n  \"jobs\": [";
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto &job = jobs[j];
        os << (j ? ",\n" : "\n") << "    {\"name\": \""
           << jsonEscape(job.name) << "\", \"kind\": \"" << job.kind
           << "\", \"seconds\": " << job.seconds
           << ", \"cells\": " << job.cells
           << ", \"mean_cell_seconds\": " << job.mean_cell_seconds
           << ", \"max_cell_seconds\": " << job.max_cell_seconds
           << ", \"p95_cell_seconds\": " << job.p95_cell_seconds;
        if (job.kind == "sweep") {
            os << ", \"repetitions\": " << job.sweep.reps.size()
               << ", \"zero_load_latency\": "
               << job.sweep.combined.zero_load_latency
               << ", \"saturation_throughput\": "
               << job.sweep.combined.saturation_throughput
               << ", \"points\": [";
            const auto &points = job.sweep.combined.points;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const auto &p = points[i];
                os << (i ? ", " : "") << "{\"offered\": " << p.offered
                   << ", \"accepted\": " << p.accepted
                   << ", \"avg_latency\": " << p.avg_latency
                   << ", \"p99_latency\": " << p.p99_latency
                   << ", \"stable\": " << (p.stable ? "true" : "false")
                   << "}";
            }
            os << "]";
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

void
CampaignResult::writeCsvFile(const std::string &path) const
{
    util::writeArtifactFile(
        path, "CampaignResult",
        [this](std::ostream &os) { writeCsv(os); });
}

void
CampaignResult::writeJsonFile(const std::string &path) const
{
    util::writeArtifactFile(
        path, "CampaignResult",
        [this](std::ostream &os) { writeJson(os); });
}

} // namespace wss::exec
