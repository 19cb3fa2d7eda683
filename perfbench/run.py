"""Repository benchmark: student-portal traffic over the wire.

One run (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload portal_hot --seed 1 --seconds 12 --trace 0

prints diagnostics, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
It exits non-zero when the correctness gate finds a violation.

The report (every metric of every workload, untraced and traced, with
units, sample counts and the tracing overhead)::

    python3 perfbench/run.py --report --seed 1 --seconds 12 [--out FILE]

Run from the root of a checkout; the program is imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

#: a run that has not finished by then is killed (the limit is 180 s)
WATCHDOG_S = 170.0

#: working files and span files, inside the checkout (git-ignored)
OUT_DIR = ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("read_cpu_p50_ms", "ms"),
    ("read_cpu_p90_ms", "ms"),
    ("deny_cpu_p50_ms", "ms"),
    ("write_cpu_p50_ms", "ms"),
    ("write_cpu_p90_ms", "ms"),
    ("capacity_ops", "ops/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("net.overhead_ms", "ms"),
    ("net.bytes_per_op", "bytes"),
    ("service.queue_ms", "ms"),
    ("service.decision_cache_hit_ratio", "ratio"),
    ("prepared.hit_ratio", "ratio"),
    ("prepared.build_ms", "ms"),
    ("prepared.invalidations_per_write", "count"),
    ("sql.parse_ms", "ms"),
    ("sql.parses_per_op", "count"),
    ("nontruman.check_ms", "ms"),
    ("nontruman.view_translations_per_check", "count"),
    ("nontruman.probe_ms", "ms"),
    ("nontruman.probe_rows_scanned", "count"),
    ("truman.rewrite_ms", "ms"),
    ("algebra.plan_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.rows_scanned_per_row", "ratio"),
    ("engine.join_pairs_per_row", "ratio"),
    ("storage.write_ms", "ms"),
    ("updates.authorize_ms", "ms"),
    ("durability.commit_ms", "ms"),
    ("durability.fsyncs_per_write", "count"),
    ("durability.wal_bytes_per_write", "bytes"),
    ("rebac.write_ms", "ms"),
    ("rebac.closure_ms", "ms"),
    ("rebac.grant_rows_changed_per_write", "count"),
    ("trace.overhead_ms_per_op", "ms"),
)


def _program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _start_watchdog() -> None:
    def expire():
        sys.stderr.write(f"perfbench: run exceeded {WATCHDOG_S:.0f}s, aborting\n")
        sys.stderr.flush()
        import driver

        driver.kill_all()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    timer.start()


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import driver
    from workloads import SPECS

    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    return driver.run_portal(SPECS[name], seed, seconds, trace, ROOT, out_dir)


def workload_names() -> list[str]:
    from workloads import SPECS

    return list(SPECS)


def _print_table(name: str, seed: int, trace: bool, result, units) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {name} seed={seed} {kind}")
    for metric, unit in units:
        value = result.metrics.get(metric, 0.0)
        n = result.samples.get(metric, 0)
        print(f"  {metric:<40} {value:>14.4f} {unit:<6} n={n}")
    print(
        f"  attempted={result.attempted} failed={result.failed} "
        f"fail_ratio={result.failed / max(1, result.attempted):.4f} "
        f"violations={len(result.violations)}"
    )
    for note in result.notes:
        print(f"  note: {note}")
    for violation in result.violations[:20]:
        print(f"  VIOLATION: {violation}")


def single(args) -> int:
    _start_watchdog()
    trace = bool(args.trace)
    units = PER_LAYER if trace else END_TO_END
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    _print_table(args.workload, args.seed, trace, result, units)
    correct = not result.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    metric: {"value": result.metrics.get(metric, 0.0), "unit": unit}
                    for metric, unit in units
                },
            }
        )
    )
    return 0 if correct else 1


def report(args) -> int:
    names = args.workloads.split(",") if args.workloads else workload_names()
    snapshot: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    violations = 0
    for name in names:
        entry = {}
        untraced = run_workload(name, args.seed, args.seconds, False)
        _print_table(name, args.seed, False, untraced, END_TO_END)
        traced = run_workload(name, args.seed, args.seconds, True)
        _print_table(name, args.seed, True, traced, PER_LAYER)
        violations += len(untraced.violations) + len(traced.violations)
        for label, result, units in (
            ("end_to_end", untraced, END_TO_END),
            ("per_layer", traced, PER_LAYER),
        ):
            entry[label] = {
                metric: {
                    "value": result.metrics.get(metric, 0.0),
                    "unit": unit,
                    "n": result.samples.get(metric, 0),
                }
                for metric, unit in units
            }
        entry["notes"] = {"end_to_end": untraced.notes, "per_layer": traced.notes}
        base, traced_p50 = untraced.read_cpu_p50_ms, traced.read_cpu_p50_ms
        if base and traced_p50:
            entry["tracing_overhead"] = {
                "read_cpu_p50_untraced_ms": base,
                "read_cpu_p50_traced_ms": traced_p50,
                "ratio": traced_p50 / base,
            }
            print(
                f"  tracing overhead on read_cpu_p50: {traced_p50:.3f} ms traced vs "
                f"{base:.3f} ms untraced ({(traced_p50 / base - 1) * 100:+.1f}%)"
            )
        snapshot["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(snapshot, out, indent=1, sort_keys=True)
            out.write("\n")
    print(f"violations: {violations}")
    return 0 if violations == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="student-portal benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not _program_present():
        sys.stderr.write(
            "perfbench: no program under ./src; run from the root of a checkout\n"
        )
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    if args.report:
        return report(args)
    if args.workload not in workload_names():
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
