"""The serving process of a wire workload.

Run by the benchmark, never by hand::

    python3 perfbench/server.py --workload portal_hot --seed 1 --trace 0

It builds the workload's database from the seed, serves it through
``EnforcementGateway`` and ``NetworkService`` with the program's
defaults, prints one ``{"ready": ..., "port": ...}`` line and then
answers JSON-line commands on stdin, one JSON line each on stdout:

``generate``     the run's requests (:func:`workloads.generate_plan`)
``cpu``          CPU seconds this process has used (all threads, net of
                 calibration), then the reference loop's time here
                 now (:mod:`calibrate`)
``stats``        the gateway's stats snapshot
``trace_begin``  start recording spans (``--trace 1`` only)
``trace_end``    stop; per-layer metrics, spans written as JSONL
``oracle``       fresh-path outcome of each read, served serially
``scope``        rows outside the reader's views, per result
``apply``        apply writes in open mode (the expected final state)
``rebac``        tuple churn on a collab database of its own (:mod:`rebac_churn`)
``digest``       multiset digests of tables
``rss``          peak resident memory of this process
``stop``         shut down

The same program is the oracle host: a server built identically whose
database only ever answers ``oracle``/``scope``/``apply``/``digest``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import calibrate

    # the host's speed before the build, for the set-up's rescaling
    start = [calibrate.reference_cpu() for _ in range(5)]
    #: CPU seconds spent in the reference loop, kept out of ``cpu``
    calibrating = sum(spent for _, spent in start)

    import tracing

    recorder = tracing.SpanRecorder() if args.trace else None
    missing = tracing.install(recorder) if recorder is not None else []

    import rebac_churn
    from checks import ViewScope, oracle_outcome, table_digests
    from workloads import SPECS, build_portal_db, generate_plan
    from repro.net.protocol import sanitize_stats
    from repro.net.server import NetworkService
    from repro.service import EnforcementGateway

    spec = SPECS[args.workload]
    db = build_portal_db(spec, args.seed, args.data_dir)
    gateway = EnforcementGateway(db)
    service = NetworkService(gateway)
    _, port = service.start()
    reply(
        {
            "ready": True,
            "port": port,
            "missing": missing,
            "reference_s": [reference for reference, _ in start],
        }
    )

    scope = ViewScope(db)
    for line in sys.stdin:
        message = json.loads(line)
        cmd = message["cmd"]
        try:
            if cmd == "cpu":
                cpu = time.process_time() - calibrating
                reference, spent = calibrate.reference_cpu()
                calibrating += spent
                reply({"cpu_s": cpu, "reference_s": reference})
            elif cmd == "generate":
                reply(generate_plan(db, spec, args.seed, message["seconds"]))
            elif cmd == "stats":
                reply({"stats": sanitize_stats(gateway.stats())})
            elif cmd == "trace_begin":
                recorder.start()
                reply({"ok": True})
            elif cmd == "trace_end":
                spans = recorder.stop()
                metrics = tracing.layer_metrics(
                    spans, message["ops"], message["writes"]
                )
                tracing.write_jsonl(spans, message["path"])
                reply(
                    {
                        "metrics": metrics,
                        "spans": len(spans),
                        "span_cost_s": tracing.calibrate(),
                    }
                )
            elif cmd == "oracle":
                reply(
                    {
                        "outcomes": [
                            oracle_outcome(db, user, sql, mode)
                            for user, sql, mode in message["reads"]
                        ]
                    }
                )
            elif cmd == "scope":
                reply(
                    {
                        "outside": [
                            scope.outside(user, columns, rows)
                            for user, columns, rows in message["results"]
                        ]
                    }
                )
            elif cmd == "apply":
                reply({"rowcounts": [db.execute(sql) for sql in message["sql"]]})
            elif cmd == "rebac":
                collab, now = rebac_churn.build(args.seed)
                if recorder is not None:
                    recorder.start()
                outcome = rebac_churn.churn(collab, now, args.seed, message["cycles"])
                if recorder is not None:
                    outcome["metrics"] = tracing.rebac_metrics(recorder.stop())
                reply(outcome)
            elif cmd == "digest":
                reply({"digests": table_digests(db, message["tables"])})
            elif cmd == "rss":
                reply({"peak_rss_mb": peak_rss_mb()})
            elif cmd == "stop":
                service.stop()
                gateway.shutdown(drain=True, timeout=30)
                db.close(checkpoint=False)
                reply({"ok": True})
                return 0
            else:
                reply({"error": f"unknown command {cmd!r}"})
        except Exception:  # report to the driver, keep serving commands
            reply({"error": traceback.format_exc()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
