"""Benchmark entry point: runs one workload in this process.

    python3 bench/run.py --workload generate-chain --seed 1 --seconds 25 --trace 0

It builds the workload's inputs from the seed, then runs whole rounds until
the next round would end past `--seconds` (at least two rounds).  A round
times `setup_reps` set-ups of the workload's model, then the workload's
ctdkit calls.  Every output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: medians over set-ups
and rounds, and the process's peak RSS.  Times are reference seconds (see
`refclock.py`).  With `--trace 1` each round runs twice, plain and then
traced, and the metrics are per-layer self-time shares and counts from the
traced rounds; the tracing overhead is printed and the spans are written to
`.bench_work/spans-<workload>-<seed>.json`.

ctdkit is imported from `src/` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("generate-chain", "analyze-import", "cycles-flaky", "compile-linked")
MIN_ROUNDS = 2


def run_rounds(deadline: float, min_rounds: int, one_round) -> list:
    """Call `one_round(index)` until the next call would likely end past the
    deadline; returns the results."""
    results, walls = [], []
    while (len(results) < min_rounds
           or time.perf_counter() + statistics.median(walls) <= deadline):
        start = time.perf_counter()
        results.append(one_round(len(results)))
        walls.append(time.perf_counter() - start)
    return results


def measure(workload, seconds: float) -> dict:
    setups = []

    def one_round(index: int):
        # set-ups are spread over the run so their median sees what the rounds see
        setups.extend(workload.set_up() for _ in range(workload.setup_reps))
        return workload.run_round(index)

    rounds = run_rounds(time.perf_counter() + seconds, MIN_ROUNDS, one_round)
    for index, (_, _, details) in enumerate(rounds):
        print(f"{workload.name} round {index}: "
              + " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in details.items()))
    print(f"{workload.name}: {len(setups)} set-ups, {len(rounds)} rounds")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(r[0] for r in rounds), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "tests_emitted": (statistics.median(r[1] for r in rounds), "tests"),
    }


def measure_traced(workload, seconds: float) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    deadline = time.perf_counter() + seconds

    def pair(index: int) -> tuple[float, float]:
        plain = workload.run_round(index)[0]
        tracer.install()
        try:
            traced = workload.run_round(index)[0]
        finally:
            tracer.uninstall()
        return plain, traced

    pairs = run_rounds(deadline, 1, pair)
    plain = sum(p for p, _ in pairs)
    traced = sum(t for _, t in pairs)
    print(f"{workload.name} trace: {len(pairs)} rounds, plain {plain:.4f} s, "
          f"traced {traced:.4f} s, overhead {100 * (traced / plain - 1):+.1f}%; "
          f"{tracer.root_seconds():.4f} wall s inside ctdkit while traced")
    spans_path = ROOT / ".bench_work" / f"spans-{workload.name}-{workload.seed}.json"
    tracer.write(spans_path)
    print(f"{workload.name} trace: {len(tracer.spans)} spans written to {spans_path}")
    return tracer.summary(len(pairs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctdkit" / "__init__.py").is_file():
        print(f"error: no ctdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import workloads

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        ledger = workloads.Ledger()
        ledger.check("oracle self-check", not oracle.self_check())
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ledger)
        if args.trace:
            metrics = measure_traced(workload, args.seconds)
        else:
            metrics = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
