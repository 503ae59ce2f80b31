"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-tsqr-thread --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's closed-loop job stream with telemetry
off and prints the end-to-end metrics; ``--trace 1`` runs the separate
traced run and prints the per-layer metrics (see ``perfbench/README.md``).
The last stdout line is the result object; the line before it carries
the host fingerprint, and both are also written under ``perfbench/out/``.
Exits 1 when any job fails its output check, 2 on a usage or host error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import host

    try:
        return _run(args, host)
    finally:
        # On every way out, so no worker pool or resource tracker
        # outlives the run.
        host.stop_children()


def _run(args: argparse.Namespace, host) -> int:
    host.pin_blas_env()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        blas = host.require_single_thread_blas()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    fingerprint = host.fingerprint(ROOT, blas)

    import streams

    stream = streams.STREAMS.get(args.workload)
    if stream is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(streams.STREAMS)}", file=sys.stderr)
        return 2

    if args.trace:
        import trace_run

        run = trace_run.traced_run(stream, args.seed, OUT, fingerprint)
    else:
        run = streams.timed_run(stream, args.seed, args.seconds)

    tally = run["tally"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run["metrics"].items()
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": stream.name, "point": stream.point, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": fingerprint,
        "detail": run["detail"], "result": result,
    }
    path = OUT / f"{stream.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in run["detail"].items() if not isinstance(v, (list, dict))}
    print(json.dumps({"host": fingerprint, "detail": summary}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
