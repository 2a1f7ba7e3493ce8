"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every oracle accepts a genuine output and rejects a deliberately
   corrupted one (a perturbed structure tensor, a wrong hdim, ...).
2. Two traced replays of the same operations with the same seed give
   identical call counts.
3. Stage-redundancy counts per CLI command are printed next to the counts
   measured on the seed program; items 1-2 of ROADMAP.md are expected to
   move them, so a difference is reported, not failed.
4. BENCHMARK.json names exactly the workloads and metrics the driver emits.

Exits 1 if any check of 1, 2 or 4 fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
from collections import Counter

import run

SEED = 7
FAILURES: list[str] = []

# verify_axioms calls per command measured on the seed program: parse
# verifies only up to adsl.VERIFY_LIMIT (40) basis elements, so hp6 runs
# one fewer; decompose also runs faithfulness_ideal and build_representation twice.
SEED_STAGE_COUNTS = {
    ("hp2", "check"): {"core.verify_axioms": 2},
    ("hp2", "represent"): {"core.verify_axioms": 3},
    ("hp2", "decompose"): {"core.verify_axioms": 4, "ideal.faithfulness_ideal": 2,
                           "gns.build_representation": 2},
    ("hp2", "simulate"): {"core.verify_axioms": 3},
    ("hp6", "check"): {"core.verify_axioms": 1, "adsl.parse.unverified": 1},
    ("hp6", "represent"): {"core.verify_axioms": 2, "adsl.parse.unverified": 1},
    ("hp6", "decompose"): {"core.verify_axioms": 3, "ideal.faithfulness_ideal": 2,
                           "gns.build_representation": 2, "adsl.parse.unverified": 1},
    ("hp6", "simulate"): {"core.verify_axioms": 2, "adsl.parse.unverified": 1},
}


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def genuine(op):
    raw = op.call(0)
    reason = op.check(raw)
    expect(reason is None, f"{op.name}: oracle accepts the genuine output ({reason})")
    return raw


def rejects(op, raw, how: str) -> None:
    try:
        reason = op.check(raw)
    except Exception as exc:  # an unreadable corruption is also a rejection
        reason = f"{type(exc).__name__}: {exc}"
    expect(reason is not None, f"{op.name}: oracle rejects {how} ({reason})")


def edit_json(raw, edit):
    code, text = raw
    payload = json.loads(text)
    edit(payload)
    return code, json.dumps(payload)


def oracle_checks(workdir) -> None:
    from workloads import setup_ladder, setup_rotated, setup_stochastic

    import numpy as np

    ops, _ = setup_ladder(SEED, workdir)
    by_name = {op.name: op for op in ops}
    op = by_name["check hp2"]
    raw = genuine(op)
    rejects(op, edit_json(raw, lambda p: p.update(ideal_dimension=1)), "a wrong ideal dimension")
    rejects(op, (2, raw[1]), "an unexpected exit code")
    op = by_name["represent hp2"]
    raw = genuine(op)
    rejects(op, edit_json(raw, lambda p: p.update(hdim=p["hdim"] + 1)), "a wrong hdim")
    op = by_name["decompose hp2"]
    raw = genuine(op)
    rejects(op, edit_json(raw, lambda p: p["levy"].pop()), "a wrong Brownian/Levy split")
    op = by_name["simulate hp2"]
    raw = genuine(op)
    rejects(op, edit_json(raw, lambda p: p[0]["estimates"][0].update(value=1.5)),
            "a wrong vacuum mean")

    ops, _ = setup_rotated(SEED, workdir)
    op = ops[0]  # hp3 + zero-intensity Poisson: exercises the quotient
    res = genuine(op)
    parsed = res["parsed"]
    mult = np.array(parsed.mult)
    mult[1, 2, 0] = np.nextafter(mult[1, 2, 0].real, np.inf) + 1j * mult[1, 2, 0].imag
    rejects(op, dict(res, parsed=dataclasses.replace(parsed, mult=mult)),
            "a structure tensor perturbed by one ulp")
    rejects(op, dict(res, hdim=res["hdim"] + 1), "a wrong hdim")
    rejects(op, dict(res, ideal_dim=0), "a wrong ideal dimension")
    rejects(op, dict(res, levy=res["levy"] - 1, brownian=res["brownian"] + 1), "a wrong split")
    rejects(op, dict(res, bstar_passed=False), "a failing B*-check")

    ops, _ = setup_stochastic(SEED, workdir)
    fock = next(o for o in ops if o.name == "fock hp2[9]")
    raw = genuine(fock)
    for corrupt, what in ((lambda r: setattr(r[0].estimate("mean"), "value", r[0].estimate("mean").value + 1e-6),
                           "a perturbed vacuum mean"),
                          (lambda r: setattr(r[0].estimate("second_moment"), "value",
                                             1.01 * r[0].estimate("second_moment").value),
                           "a perturbed second moment"),
                          (lambda r: r[1].slopes.update(corner=1.5), "a wrong corner slope")):
        bad = copy.deepcopy(raw)
        corrupt(bad)
        rejects(fock, bad, what)
    cls = next(o for o in ops if o.name.startswith("classical_paths wmm "))
    report = genuine(cls)
    for shift, what in ((lambda e: setattr(e, "value", e.value + 10 * e.stderr), "an estimate 10 se off"),
                        (lambda e: setattr(e, "target", e.target + 0.5), "a wrong target"),
                        (lambda e: setattr(e, "name", "var[nowhere]"), "an unknown component")):
        bad = copy.deepcopy(report)
        shift(bad.estimates[4])
        rejects(cls, bad, what)


def counts(tracer) -> dict:
    m = tracer.layer_metrics()
    return {k: v for k, v in m.items() if not k.endswith("self_s")}


def repeatability(workdir) -> None:
    from workloads import WORKLOADS

    cheap = {
        "ladder": range(16),            # hp2, hp3, hp4, s4: all four commands
        "rotated": range(5),            # all pipelines but hp5
        "stochastic": range(78),        # all fock calls and the many-paths sampler
    }
    for name, indices in cheap.items():
        seen = []
        for _ in range(2):
            tracer, outcomes = run.trace_replay(WORKLOADS[name], SEED, workdir, indices)
            seen.append(counts(tracer))
            bad = [o.name for o in outcomes if o.reason is not None and not o.known]
            expect(not bad, f"{name}: replayed operations pass their oracles {bad}")
        diff = {k for k in seen[0] if seen[0][k] != seen[1][k]}
        expect(not diff, f"{name}: two traced replays give identical counts {sorted(diff)}")


def stage_counts(workdir) -> None:
    import numpy as np

    import itoalg
    from tracer import Tracer
    from workloads import LADDER_COMMANDS, cli_op, ladder_rungs

    rungs = {name: (build, exp) for name, build, exp in ladder_rungs(np.random.default_rng(SEED))}
    ops = []
    for rung in ("hp2", "hp6"):   # below and above adsl.VERIFY_LIMIT
        build, exp = rungs[rung]
        alg = build()
        path = workdir / f"{rung}.ito"
        path.write_text(itoalg.serialize(alg), encoding="utf-8")
        ops += [cli_op(rung, command, path, alg, exp) for command in LADDER_COMMANDS]
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            outcome = run.run_op(op, 0)
            tracer.end_op()
            expect(outcome.reason is None, f"{op.name}: passes its oracle ({outcome.reason})")
    finally:
        tracer.uninstall()
    per_op = {name: tracer.op_counts(name) for name in
              ("core.verify_axioms", "ideal.faithfulness_ideal", "gns.build_representation")}
    per_op["adsl.parse.unverified"] = Counter(s.op for s in tracer.unverified_parses())
    for i, op in enumerate(ops):
        kind, rung = op.name.split()
        for metric, seed_value in SEED_STAGE_COUNTS[(rung, kind)].items():
            value = per_op[metric].get(i, 0)
            tag = "match" if value == seed_value else "MOVED"
            print(f"{tag:6s}{op.name}: {metric} = {value} (seed {seed_value})")


def benchmark_json() -> None:
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the driver's workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json lists the end-to-end metrics with their units")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS),
           "BENCHMARK.json lists the per-layer metrics with their units")


def main() -> int:
    sys.dont_write_bytecode = True
    run.pin_threads()
    run.import_program()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        benchmark_json()
        oracle_checks(workdir)
        repeatability(workdir)
        stage_counts(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if run.WORK.exists() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
