#!/usr/bin/env python3
"""Validate bench record files written by `bench/main.exe -- <exp> --json F`.

Usage: check_records.py <experiment> <records.json>

One validator per experiment, in one auditable place — the CI jobs all
call this script instead of carrying copy-pasted heredocs. Each
validator checks the record schema and the experiment's core invariant
(incremental == scratch, byte-identity across domain counts, planned ==
unplanned), not timings: wall-clock numbers on shared CI runners are
recorded but never asserted on.
"""

import json
import sys


def require(record, i, keys):
    for key in keys:
        assert key in record, f"record {i} missing {key!r}"


def check_e12(records):
    """Incremental maintenance: every batch kind agrees with recompute."""
    for i, r in enumerate(records):
        require(r, i, ("engine", "kind", "batch", "incr_ms_per_update",
                       "scratch_ms", "speedup", "agree", "obs"))
        assert r["agree"] is True, f"record {i}: incremental != scratch"
        obs = r["obs"]
        assert isinstance(obs, dict), f"record {i}: obs is not an object"
        for counter in ("insertions", "retractions", "repaired",
                        "recompute", "extend", "dred", "rounds"):
            assert counter in obs, f"record {i} obs missing {counter!r}"
        if r["kind"] in ("delete", "mixed"):
            assert obs["retractions"] > 0, \
                f"record {i}: {r['kind']} batch reported no retractions"


def check_e13(records):
    """Multicore scaling: byte-identical results at every domain count."""
    by_workload = {}
    for i, r in enumerate(records):
        require(r, i, ("workload", "domains", "cores", "ms", "speedup_vs_1",
                       "pool_tasks", "par_threshold", "fingerprint", "agree"))
        assert r["agree"] is True, \
            f"record {i}: result diverged from domains:1"
        by_workload.setdefault(r["workload"], {})[r["domains"]] = r
    for name, rows in by_workload.items():
        assert 1 in rows and 2 in rows, f"{name}: missing a domain count"
        # The core determinism contract: the structural fingerprint at
        # domains:2 equals the one at domains:1.
        assert rows[2]["fingerprint"] == rows[1]["fingerprint"], \
            f"{name}: domains:2 fingerprint differs from domains:1"
    # At least one parallel row must actually have fanned out work.
    assert any(r["domains"] > 1 and r["pool_tasks"] > 0 for r in records), \
        "no parallel row spawned pool tasks"


def check_e14(records):
    """Cost-based planning: every mode returns the identical set."""
    plan_keys = ("planned", "reordered", "semijoins", "pushdowns",
                 "est_cost_original", "est_cost_chosen", "est_out", "chosen")
    by_workload = {}
    for i, r in enumerate(records):
        require(r, i, ("workload", "mode", "ms", "speedup_vs_off",
                       "peak_intermediate", "fingerprint", "agree",
                       "par_threshold", "plan"))
        assert r["agree"] is True, f"record {i}: planned != unplanned"
        assert r["par_threshold"] > 0, f"record {i}: bogus par_threshold"
        plan = r["plan"]
        assert isinstance(plan, dict), f"record {i}: plan is not an object"
        require(plan, i, plan_keys)
        assert plan["planned"] is (r["mode"] != "off"), \
            f"record {i}: mode {r['mode']} but planned={plan['planned']}"
        by_workload.setdefault(r["workload"], {})[r["mode"]] = r
    for name, rows in by_workload.items():
        for mode in ("off", "cost"):
            assert mode in rows, f"{name}: missing mode {mode!r}"
        # The exactness contract: planned results fingerprint-equal the
        # unplanned baseline.
        assert rows["cost"]["fingerprint"] == rows["off"]["fingerprint"], \
            f"{name}: cost fingerprint differs from off"
        cost_plan = rows["cost"]["plan"]
        assert cost_plan["est_cost_chosen"] <= cost_plan["est_cost_original"], \
            f"{name}: cost search picked a worse plan than the input"
    # The planner must have actually done something somewhere.
    assert any(r["plan"]["reordered"] or r["plan"]["semijoins"] > 0
               for r in records), "no record reports a reorder or semijoin"


def check_e15(records, max_overhead=None):
    """Governance overhead: governed budgets change nothing but time,
    and not much of that.  The overhead threshold is only asserted when
    one is passed on the command line: strict (1.03) against the
    committed record, lenient against a fresh run on a shared CI
    runner.  Each record's ratio is already a median of per-sample
    back-to-back ratios, so it is drift-resistant but not noise-free.
    """
    for i, r in enumerate(records):
        require(r, i, ("workload", "plain_ms", "governed_ms",
                       "overhead_ratio", "agree", "fuel_identical"))
        assert r["agree"] is True, f"record {i}: governed result diverged"
        assert r["fuel_identical"] is True, \
            f"record {i}: governed run spent different fuel"
        assert r["overhead_ratio"] > 0, f"record {i}: bogus overhead ratio"
        if max_overhead is not None:
            assert r["overhead_ratio"] <= max_overhead, \
                (f"record {i} ({r['workload']}): governance overhead "
                 f"{r['overhead_ratio']:.3f}x exceeds {max_overhead}x")


def check_e16(records, max_overhead=None):
    """Retained metrics: collection observes without steering, and the
    feedback loop pays for itself.  Overhead rows must agree in result
    and fuel with collection off (the ratio is gated only when a
    threshold is passed: strict 1.03 against the committed record,
    lenient against a fresh run on a shared runner).  The drift row must
    show live re-planning actually firing — and, when the strict
    threshold is in force, beating the stale plan.
    """
    overhead_rows = [r for r in records if "overhead_ratio" in r]
    drift_rows = [r for r in records if "speedup" in r]
    assert overhead_rows, "no metrics-overhead records"
    assert drift_rows, "no drifting-cardinality records"
    for i, r in enumerate(overhead_rows):
        require(r, i, ("workload", "off_ms", "on_ms", "overhead_ratio",
                       "agree", "fuel_identical", "metrics"))
        assert r["agree"] is True, f"record {i}: collected result diverged"
        assert r["fuel_identical"] is True, \
            f"record {i}: collected run spent different fuel"
        assert r["overhead_ratio"] > 0, f"record {i}: bogus overhead ratio"
        metrics = r["metrics"]
        assert isinstance(metrics, dict) and metrics, \
            f"record {i}: empty metrics block"
        for span, row in metrics.items():
            for key in ("calls", "wall_ms", "fuel", "p50_ms", "p99_ms"):
                assert key in row, f"record {i} span {span!r} missing {key!r}"
        if max_overhead is not None:
            assert r["overhead_ratio"] <= max_overhead, \
                (f"record {i} ({r['workload']}): metrics overhead "
                 f"{r['overhead_ratio']:.3f}x exceeds {max_overhead}x")
    for i, r in enumerate(drift_rows):
        require(r, i, ("workload", "stale_ms", "live_ms", "speedup",
                       "drift_events", "replans", "agree"))
        assert r["agree"] is True, \
            f"drift record {i}: live re-planned result diverged"
        assert r["drift_events"] >= 1, \
            f"drift record {i}: no cardinality drift was observed"
        assert r["replans"] >= 1, \
            f"drift record {i}: drift observed but nothing re-planned"
        if max_overhead is not None and max_overhead <= 1.1:
            # Strict mode (the committed record): live must actually win.
            assert r["speedup"] >= 1.2, \
                (f"drift record {i}: live re-planning speedup "
                 f"{r['speedup']:.2f}x under 1.2x")


CHECKS = {"e12": check_e12, "e13": check_e13, "e14": check_e14,
          "e15": check_e15, "e16": check_e16}

THRESHOLDED = ("e15", "e16")


def main():
    if len(sys.argv) not in (3, 4) or sys.argv[1] not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        sys.exit(f"usage: check_records.py <{known}> <records.json> "
                 "[max_overhead]")
    experiment, path = sys.argv[1], sys.argv[2]
    with open(path) as fh:
        records = json.load(fh)
    assert records, f"no {experiment} records"
    if len(sys.argv) == 4:
        assert experiment in THRESHOLDED, \
            f"a threshold only applies to {'/'.join(THRESHOLDED)}"
        CHECKS[experiment](records, float(sys.argv[3]))
    else:
        CHECKS[experiment](records)
    print(f"{len(records)} {experiment} records, schema ok")


if __name__ == "__main__":
    main()
