"""Run one benchmark workload; print every metric, then one JSON line.

    python3 perfbench/run.py --workload nkomega-n3 --seed 1 --seconds 22 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the timed phase untraced for half of ``--seconds``,
repeats the same units under the outside-in tracer, checks both emit
the same certificate bytes, and reports the per-layer metrics.  The
package is imported from ``src/`` beside this directory and nowhere
else; without it the run exits with code 2.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
TAIL_BEYOND = 10


def load_package():
    """Import ultrahom from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "ultrahom" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(src), str(ROOT)]
    import ultrahom

    if Path(ultrahom.__file__).resolve().parent != (src / "ultrahom").resolve():
        return None
    return ultrahom


# -- statistics -------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile, up to
    p99, with at least TAIL_BEYOND samples beyond it.

    Below 1000 samples that is the (TAIL_BEYOND + 1)-th largest sample.
    The p99 cap keeps single interrupts and collector pauses from
    deciding the value of runs with many thousands of samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(min(n - TAIL_BEYOND, math.ceil(0.99 * n)), 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def sha256_lines(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- reports ---------------------------------------------------------------------------

# Reported in the JSON result (the metrics BENCHMARK.json bounds); the
# plain-second timings and the tails are printed beside them.  Short
# spikes on the host, which the speed probe cannot see, moved the tails
# of ten runs by up to 0.29 of their median, above any bound allowed.
RESULT_METRICS = ("trials_per_refs", "build_refms_p50", "verify_refms_p50",
                  "cert_kb_mean", "setup_s", "peak_rss_mb")


def end_to_end(setups_s: list[float], setup_builds: tuple[list, list],
               phase) -> tuple[dict, list[str]]:
    """(JSON metrics, printed lines) of an untraced run.

    ``setup_builds`` are the (seconds, reference seconds) of the engine
    calls set-up made; they stand in for builds where none are timed.
    """
    rows: list[tuple[str, float, str, str]] = [
        ("trials_per_s", phase.verified / phase.busy_s, "1/s", ""),
        ("trials_per_refs", phase.verified / phase.busy_ref, "1/refs", ""),
    ]
    from_setup = not phase.build_s
    samples = (("build", "ms", phase.build_s or setup_builds[0]),
               ("build", "refms", phase.build_ref or setup_builds[1]),
               ("verify", "ms", phase.verify_s), ("verify", "refms", phase.verify_ref))
    for label, unit, values in samples:
        ms = [v * 1e3 for v in values]
        value, pct, beyond = tail(ms)
        where = ", set-up builds" if label == "build" and from_setup else ""
        rows.append((f"{label}_{unit}_p50", statistics.median(ms), unit, f"n={len(ms)}{where}"))
        rows.append((f"{label}_{unit}_tail", value, unit,
                     f"p{pct:.1f}, n={len(ms)}, {beyond} beyond"))
    texts = [t for t in phase.texts if t is not None]
    rows += [
        ("cert_kb_mean", sum(len(t) for t in texts) / len(texts) / 1000, "KB",
         f"{len(texts)} distinct certificates"),
        ("fail_share", len(phase.failures) / phase.attempted, "ratio",
         f"{len(phase.failures)}/{phase.attempted} units"),
        ("setup_s", statistics.median(setups_s), "s", f"median of {len(setups_s)} set-ups"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        ("probe_ms", statistics.median(phase.probes) * 1e3, "ms",
         f"median of {len(phase.probes)} speed probes"),
    ]
    lines = [f"{name:<18} {value:12.4f} {unit:<6} {note}" for name, value, unit, note in rows]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in RESULT_METRICS}
    return metrics, lines


def golden_line(name: str, seed: int, digest: str) -> str:
    golden = json.loads((BENCH / "baseline.json").read_text())["seed_1_sha256"]
    if seed != 1:
        return f"certificates sha256 {digest} (golden recorded for seed 1 only)"
    want = golden.get(name)
    verdict = "match" if want == digest else f"MISMATCH, golden {want}"
    return f"certificates sha256 {digest}: {verdict}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if load_package() is None:
        print(f"error: no ultrahom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import workloads
    from perfbench.tracer import Tracer, layer_metric_units

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    setup_s: list[float] = []
    setup_builds: tuple[list, list] = ([], [])
    pool = None
    problems: list[str] = []
    for _ in range(1 if args.trace else workload.setup_reps):
        t0 = time.perf_counter()
        fresh = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)
        if pool is not None and fresh.lines != pool.lines:
            problems.append("set-up gave different certificate bytes on a rerun")
        setup_builds[0].extend(fresh.build_s)
        setup_builds[1].extend(fresh.build_ref)
        pool = fresh
    phase = workloads.timed_phase(workload, pool, args.seconds / (2 if args.trace else 1))
    problems += phase.failures
    digest = sha256_lines([t or "" for t in phase.texts])

    print(f"workload {workload.name} seed {args.seed}: {phase.attempted} units"
          f" in {phase.wall:.2f} s, closed loop, 1 client")
    if args.trace:
        tracer = Tracer()
        with tracer:
            traced_pool = workload.setup(args.seed) if workload.trace_setup else pool
            traced = workloads.timed_phase(workload, traced_pool, None, count=phase.attempted,
                                           tracer=tracer, reference=phase.texts)
        problems += [f"traced {p}" for p in traced.failures]
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = tracer.write_spans(out_dir / f"spans-{workload.name}-seed{args.seed}.tsv")
        units = layer_metric_units()
        values = tracer.metrics(traced.wall / phase.wall)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"{k:<44} {v:14.6g} {units[k]}")
        print(f"{spans} spans written to perfbench/out/; traced wall {traced.wall:.2f} s"
              f" vs untraced {phase.wall:.2f} s")
    else:
        metrics, lines = end_to_end(setup_s, setup_builds, phase)
        print("\n".join(lines))
    print(golden_line(workload.name, args.seed, digest))
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    result = {"correct": not problems, "attempted": phase.attempted,
              "failed": len(phase.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
