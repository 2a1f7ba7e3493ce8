"""Benchmark of the itoalg workbench.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Runs one workload in this process against the sources in ``src/`` of the
checkout that holds this file.  Set-up (import, building the inputs, writing
``.ito`` files, one warm-up operation) runs three times and is reported as
the median.  Then the workload's schedule (a pass) repeats until
``--seconds`` have passed and at least one pass is complete; the operation in
progress when time runs out completes.  Every output is checked by an oracle
that does not depend on the code under test.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
run then replays, with every public function of the program wrapped, set-up
and the first pass, and prints per-layer metrics.  The last line of standard
output is one JSON object.

End-to-end metrics.  An operation is a CLI command on ladder, one algebra's
library pipeline on rotated and one pair of fock calls or one sampler call
on stochastic.  Each distinct operation of the schedule counts once, at the
median of its samples, however many samples of it fit in the window:

    ops_per_s    successful operations per second of operation time
    ok_frac      mean success share of the operations
    peak_rss_mb  peak resident set size at the end of the first pass
    setup_s      import time plus the median set-up time
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = 1          # fixed, and never above nproc
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def pin_threads() -> None:
    """Fix the BLAS/OpenMP pool size; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> float:
    """Import itoalg from this checkout's sources; returns the import time."""
    if not (SRC / "itoalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no itoalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import itoalg
    elapsed = perf_counter() - start
    if Path(itoalg.__file__).resolve().parent != SRC / "itoalg":
        raise SystemExit(f"error: imported itoalg from {itoalg.__file__}, not from {SRC}")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


@dataclass(slots=True)
class Outcome:
    name: str
    seconds: float
    reason: str | None = None   # why the operation failed, None if it succeeded
    known: bool = False         # the failure is a documented defect
    info: dict = field(default_factory=dict)


def run_op(op, pass_idx: int) -> Outcome:
    start = perf_counter()
    try:
        raw = op.call(pass_idx)
    except (Exception, SystemExit) as exc:
        elapsed = perf_counter() - start
        return Outcome(op.name, elapsed, f"{type(exc).__name__}: {exc}",
                       known=type(exc).__name__ in op.known_errors)
    elapsed = perf_counter() - start
    try:
        reason = op.check(raw)
    except Exception as exc:  # a malformed output the oracle could not read
        reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
    return Outcome(op.name, elapsed, reason, info=op.info(raw) if op.info else {})


def setup(workload, seed: int, workdir: Path):
    """One set-up: build inputs, write files, one warm-up operation."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    start = perf_counter()
    ops, warmup = workload(seed, workdir)
    warm = run_op(warmup, 0)
    return ops, warm, perf_counter() - start


def measure(ops, seconds: float) -> tuple[list[Outcome], float]:
    """Repeat the schedule until ``seconds`` have passed and one pass is complete.

    Returns the outcomes and the peak resident set size (MB) at the end of
    the first pass, which does not depend on how many passes fit.
    """
    outcomes = []
    start = perf_counter()
    i = 0
    while True:
        outcomes.append(run_op(ops[i % len(ops)], i // len(ops)))
        i += 1
        if i == len(ops):
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if i >= len(ops) and perf_counter() - start >= seconds:
            return outcomes, peak_mb


def per_op(outcomes) -> dict:
    """Median latency and success share of each distinct operation."""
    groups: dict[str, list] = {}
    for o in outcomes:
        groups.setdefault(o.name, []).append(o)
    return {name: (statistics.median(o.seconds for o in group),
                   sum(o.reason is None for o in group) / len(group))
            for name, group in groups.items()}


def end_to_end(outcomes, peak_mb: float, setup_s: float) -> dict:
    """Metrics over the distinct operations of the schedule, each counted once."""
    ops = per_op(outcomes).values()
    ok_per_pass = sum(share for _, share in ops)
    return {
        "ops_per_s": ok_per_pass / sum(med for med, _ in ops),
        "ok_frac": ok_per_pass / len(ops),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    }


def trace_replay(workload, seed: int, workdir: Path, indices):
    """Set-up and the given operations again, traced; returns (tracer, outcomes)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op("setup")
        ops, warm, _ = setup(workload, seed, workdir)
        tracer.end_op()
        outcomes = [warm]
        for i in indices:
            tracer.begin_op(i)
            outcomes.append(run_op(ops[i], 0))
            tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer, outcomes


def per_layer(tracer, replayed, untraced_s: float) -> dict:
    metrics = tracer.layer_metrics()
    metrics["cli.main.out_bytes"] = sum(o.info.get("cli.main.out_bytes", 0) for o in replayed)
    metrics["trace.overhead_frac"] = sum(o.seconds for o in replayed) / untraced_s - 1.0
    return metrics


def report_failures(outcomes) -> None:
    seen: dict[tuple, int] = {}
    for o in outcomes:
        if o.reason is not None:
            key = (o.name, o.reason.splitlines()[0][:160], o.known)
            seen[key] = seen.get(key, 0) + 1
    for (name, reason, known), count in seen.items():
        tag = "known defect" if known else "FAILED"
        print(f"{tag}: {name} x{count}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.dont_write_bytecode = True
    pin_threads()
    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, warmups = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            ops, warm, seconds = setup(workload, args.seed, workdir)
            setup_times.append(seconds)
            warmups.append(warm)
        outcomes, peak_mb = measure(ops, args.seconds)
        first_pass = outcomes[: len(ops)]
        if args.trace:
            from tracer import LAYER_METRICS

            tracer, replayed = trace_replay(workload, args.seed, workdir, range(len(first_pass)))
            untraced_s = sum(o.seconds for o in first_pass)
            metrics = per_layer(tracer, replayed[1:], untraced_s)
            units = dict(LAYER_METRICS)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            checked = warmups + outcomes + replayed
            counted = replayed[1:]
        else:
            metrics = end_to_end(outcomes, peak_mb, import_s + statistics.median(setup_times))
            units = dict(END_TO_END)
            checked = warmups + outcomes
            counted = outcomes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    ok = [o for o in counted if o.reason is None]
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(counted)} operations "
          f"({len(ok)} successful) in {sum(o.seconds for o in counted):.3f} s of operation time")
    if not args.trace:
        stats = per_op(outcomes)
        pass_s = sum(med for med, _ in stats.values())
        print(f"set-up: import {import_s:.4f} s + median of {[round(s, 4) for s in setup_times]} s")
        print(f"{len(stats)} distinct operations, {len(outcomes)} samples; "
              f"one of each takes {pass_s:.3f} s at the median")
        for name, (med, _) in stats.items():
            if med >= 0.02 * pass_s:
                print(f"  {med * 1e3:10.1f} ms  {name}")
    report_failures(checked)
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    result = {
        "correct": all(o.reason is None or o.known for o in checked),
        "attempted": len(counted),
        "failed": len(counted) - len(ok),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
