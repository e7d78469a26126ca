#!/usr/bin/env python3
"""Compare two bench JSON reports (bench_simcore, bench_coll or bench_dcn).

Usage: tools/bench_compare.py BASELINE.json CANDIDATE.json
           [--max-regress PCT] [--require-identical]

Both files must come from the same benchmark; the kind is read from
the "bench" field. Points are matched by the kind's key fields. For
each match the tool prints the metric ratio, and fails (exit 1) when:

  * the candidate is more than --max-regress percent below the
    baseline on any point (default 10; timing noise on shared boxes
    easily reaches a few percent, so the default is deliberately
    loose — tighten it on quiet machines), or
  * --require-identical is given and the kind's identity fields
    differ on any point. Those fields are wall-clock independent:
    any difference means the engine's *behaviour* changed, not just
    its speed, and the perf comparison is void.

Kinds:
  simcore  points keyed by (name, rate); metric mflits_per_second
           (wall-clock throughput); identity flits_delivered /
           end_cycle / stable
  coll     points keyed by (name, rate); metric busbw_gbps
           (simulated bus bandwidth — fully deterministic, so use
           --require-identical and treat ANY drift as behavioural);
           identity steps / messages / flow_us / model_us / failed
  dcn      campaign cells keyed by (design, workload, load); metric
           flows_per_second (flows simulated per host second of the
           cell); identity every result column of the flow engine:
           flows (started) / completed / failed / rerouted /
           fault_events / avg_hops / throughput_gbps and the FCT and
           slowdown avg/p50/p99/p999 columns

When a provenance manifest sits next to a report (the benches write
`REPORT.json.manifest.json` siblings), its resolved configuration is
compared too: two reports whose configs differ were not measuring the
same thing, and the comparison fails before any ratio is printed.
Reports without manifests (older baselines) skip the check with a
note.

Only the standard library is used, so the script runs anywhere the
repo builds.
"""

import argparse
import json
import os
import sys

def flows_per_second(cell):
    """Host-time throughput of one dcn campaign cell."""
    return cell["flows"] / cell["seconds"] if cell["seconds"] > 0 else 0.0


# Per-benchmark comparison contract: where the points live in the
# report, which fields match a point across reports, the higher-is-
# better metric (a field name, or a function of the point), and which
# fields must be bit-identical for the run to count as behaviourally
# unchanged.
BENCH_KINDS = {
    "simcore": {
        "points": ("points",),
        "key": ("name", "rate"),
        "metric": "mflits_per_second",
        "identity": ("flits_delivered", "end_cycle", "stable"),
    },
    "coll": {
        "points": ("points",),
        "key": ("name", "rate"),
        "metric": "busbw_gbps",
        "identity": ("steps", "messages", "flow_us", "model_us",
                     "failed"),
    },
    "dcn": {
        "points": ("campaign", "cells"),
        "key": ("design", "workload", "load"),
        "metric": ("flows_per_second", flows_per_second),
        "identity": ("flows", "completed", "failed", "rerouted",
                     "fault_events", "avg_hops", "throughput_gbps",
                     "fct_avg_s", "fct_p50_s", "fct_p99_s",
                     "fct_p999_s", "slowdown_avg", "slowdown_p50",
                     "slowdown_p99", "slowdown_p999"),
    },
}


def metric_of(kind):
    """(name, getter) of the kind's comparison metric."""
    metric = BENCH_KINDS[kind]["metric"]
    if isinstance(metric, tuple):
        return metric
    return metric, lambda point: point[metric]


def point_label(key):
    return "/".join(f"{part:.2f}" if isinstance(part, float)
                    else str(part) for part in key)


def load_points(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        sys.exit(f"bench_compare: cannot read {path}: {err.strerror}"
                 " (generate it with `bench_simcore --json`, "
                 "`bench_coll --json` or `bench_dcn --json`)")
    except json.JSONDecodeError as err:
        sys.exit(f"bench_compare: {path} is not valid JSON ({err})")
    kind = doc.get("bench")
    if kind not in BENCH_KINDS:
        sys.exit(f"bench_compare: {path} is not a known bench report "
                 f"(bench={kind!r}, expected one of "
                 f"{sorted(BENCH_KINDS)})")
    spec = BENCH_KINDS[kind]
    try:
        points = doc
        for field in spec["points"]:
            points = points[field]
        return kind, doc.get("smoke", False), {
            tuple(p[field] for field in spec["key"]): p for p in points
        }
    except (KeyError, TypeError) as err:
        sys.exit(f"bench_compare: {path} is missing expected "
                 f"bench_{kind} fields ({err})")


def load_manifest(report_path):
    """Load the report's provenance sibling, or None when absent."""
    path = report_path + ".manifest.json"
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: {path} is unreadable ({err})")
    if "wss_run_manifest" not in doc:
        sys.exit(f"bench_compare: {path} is not a wss run manifest")
    return doc


def check_manifests(baseline, candidate):
    """Fail when both sides carry manifests whose configs differ.

    Phase timings and artifact hashes legitimately differ run to run;
    the resolved configuration must not — a config mismatch means the
    two reports measured different workloads and every ratio below
    would be noise.
    """
    base = load_manifest(baseline)
    cand = load_manifest(candidate)
    if base is None or cand is None:
        for path, doc in ((baseline, base), (candidate, cand)):
            if doc is None:
                print(f"note: no manifest next to {path}, "
                      "provenance unchecked")
        return
    print(f"manifest identity: baseline {base.get('identity_hash')} "
          f"candidate {cand.get('identity_hash')}")
    base_cfg = base.get("config", {})
    cand_cfg = cand.get("config", {})
    mismatches = [
        f"  {key}: {base_cfg.get(key, '<absent>')!r} vs "
        f"{cand_cfg.get(key, '<absent>')!r}"
        for key in sorted(base_cfg.keys() | cand_cfg.keys())
        if base_cfg.get(key) != cand_cfg.get(key)
    ]
    if mismatches:
        sys.exit("bench_compare: manifest configs differ — the "
                 "reports measured different workloads:\n" +
                 "\n".join(mismatches))
    print("manifest configs match")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON reports.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--max-regress", type=float, default=10.0, metavar="PCT",
        help="fail if any point is more than PCT%% below the "
             "baseline (default: %(default)s)")
    parser.add_argument(
        "--require-identical", action="store_true",
        help="fail unless the identity fields match point-for-point "
             "(behavioural bit-identity)")
    args = parser.parse_args()

    check_manifests(args.baseline, args.candidate)
    base_kind, base_smoke, base = load_points(args.baseline)
    cand_kind, cand_smoke, cand = load_points(args.candidate)
    if base_kind != cand_kind:
        sys.exit(f"refusing to compare bench={base_kind!r} against "
                 f"bench={cand_kind!r}")
    if base_smoke != cand_smoke:
        sys.exit("refusing to compare a --smoke run against a full "
                 "run: the workloads differ")
    metric_name, metric = metric_of(base_kind)
    identity = BENCH_KINDS[base_kind]["identity"]

    common = sorted(base.keys() & cand.keys())
    if not common:
        sys.exit("bench_compare: no common points between "
                 f"{args.baseline} and {args.candidate} — were they "
                 "produced by different benchmarks?")
    for key in sorted(base.keys() ^ cand.keys()):
        side = "baseline" if key in base else "candidate"
        print(f"note: {point_label(key)} only in {side}, skipped")

    failures = []
    print(f"metric: {metric_name}")
    print(f"{'point':44s} {'base':>12s} {'cand':>12s} {'ratio':>7s}  "
          f"identical")
    for key in common:
        b, c = base[key], cand[key]
        b_metric, c_metric = metric(b), metric(c)
        ratio = c_metric / b_metric if b_metric > 0 else float("inf")
        identical = all(b[f] == c[f] for f in identity)
        label = point_label(key)
        print(f"{label:44s} {b_metric:12.3f} {c_metric:12.3f} "
              f"{ratio:6.2f}x  {'yes' if identical else 'NO'}")
        if ratio < 1.0 - args.max_regress / 100.0:
            failures.append(
                f"{label}: {((1.0 - ratio) * 100.0):.1f}% below "
                f"baseline (limit {args.max_regress}%)")
        if args.require_identical and not identical:
            mismatches = ", ".join(
                f"{f} {b[f]} vs {c[f]}"
                for f in identity if b[f] != c[f])
            failures.append(
                f"{label}: behavioural mismatch ({mismatches})")

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("\nbench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
