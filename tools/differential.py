"""Differential of the command line between two source trees.

    python tools/differential.py --base REV [--head REV] [--out DIR]

Exports ``git archive REV src`` of the base (and of ``--head``; without it
the head is this checkout's ``src``), writes one set of ``.ito`` inputs with
the base tree, and runs ``cli.main`` on every (input, command) pair of the
matrix in one subprocess per tree.  Each subprocess writes one JSONL record
per pair: the input, the argv, the exit code, stderr, and stdout with every
``"runtime_ms"`` value removed, the one field that is a wall time.

It prints the number of byte-identical records and, for each other record,
its largest numeric difference (the largest absolute difference between
the numbers of the two stdouts, in order), and exits 0 when every record is
identical, 1 otherwise.  ``--out DIR`` keeps the inputs and both JSONL files.

The matrix is every catalog table at its defaults, the benchmark's ladder
rungs and its six rotated tables (seed 1), and broken ``.ito`` texts: the
faults of the format, tables that fail an axiom, and catalog and rotated
texts with a few characters overwritten.
Each runs ``check``, ``represent``, ``represent --latex``, ``decompose``,
``norms`` on an element of its basis, and ``simulate`` with both models,
in text and with ``--json``; hp(6) runs ``check`` only.  ``catalog`` runs once
per table.  The small matrix of the self-test keeps two catalog tables and
two broken texts.  It needs git and the program's own dependencies, nothing
more.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the commands of a file; {element} is a lincomb over the file's basis
COMMANDS = (
    ("check",),
    ("represent",),
    ("represent", "--latex"),
    ("decompose",),
    ("norms", "--element", "{element}"),
    ("simulate", "--model", "fock"),
    ("simulate", "--model", "classical", "--dt", "0.1", "--paths", "64", "--seed", "3"),
)
BROKEN = {
    "bad_literal": "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1x dt\n",
    "duplicate": "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1 dt\nmul dw dw = 2 dt\n",
    "unknown_symbol": "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dq = 1 dt\n",
    "non_finite_sum": "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1e308 dt + 1e308 dt\n",
    "lone_i": "basis dt dw\ndeath dt\nstate dt = 1\nstar dw = 1 dw\nmul dw dw = 1 dt + i dw\n",
    "death_state": "basis dt dw\ndeath dt\nstate dt = 2\n",
    "no_basis": "death dt\n",
    "indefinite": "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = -1 dt\n",
    "not_associative": "basis dt a\ndeath dt\nstate dt = 1\nmul a a = 1 a + 1 dt\nmul a dt = 1 a\n",
    "non_faithful": "basis dt dw dz\ndeath dt\nstate dt = 1\nmul dw dw = 1 dt\n",
}
MUTATIONS = 32  # mutated catalog and rotated texts in the full matrix
# what a mutation writes over one character: printable ASCII, a non-ASCII digit and letter
EDITS = [chr(c) for c in range(32, 127)] + ["\u0663", "\u00e9"]
LADDER_ONLY_CHECK = ("hp6",)


def export(rev: str, dest: Path) -> Path:
    """``git archive rev src`` unpacked under ``dest``; the path of its ``src``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def _worker(src: Path, *args: str) -> None:
    """Run this file as a worker on the tree ``src``: the child imports only that tree."""
    env = dict(os.environ, PYTHONPATH="", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--worker", str(src), *args], check=True, env=env)


def make_inputs(directory: Path, small: bool) -> list[str]:
    """Write the matrix's ``.ito`` inputs into ``directory`` with the imported tree; their names."""
    import numpy as np

    from itoalg import cli, serialize

    texts = {}
    names = ["wiener", "poisson"] if small else list(cli._CATALOG)
    for name in names:
        texts[f"catalog_{name}"] = serialize(cli._make_builtin(name, None))
    broken = dict(list(BROKEN.items())[:2]) if small else BROKEN
    texts.update({f"broken_{name}": text for name, text in broken.items()})
    if not small:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        for rung, build, _ in workloads.ladder_rungs(np.random.default_rng(1)):
            texts[f"ladder_{rung}"] = serialize(build())
        rng = np.random.default_rng(1)
        for name, build, _ in workloads.rotated_inputs(rng):
            texts[f"rotated_{name}"] = serialize(workloads.rotate(build(), rng))
        rng = np.random.default_rng(99)
        sources = [text for name, text in texts.items() if name.startswith(("catalog_", "rotated_"))]
        for k in range(MUTATIONS):
            chars = list(sources[k % len(sources)])
            for _ in range(rng.integers(1, 6)):
                chars[rng.integers(0, len(chars))] = str(rng.choice(EDITS))
            texts[f"mutated_{k}"] = "".join(chars)
    for name, text in texts.items():
        (directory / f"{name}.ito").write_text(text, encoding="utf-8")
    return list(texts)


def cases(directory: Path, names: list[str]) -> list[dict]:
    """The (input, argv) pairs of the matrix over the inputs ``names`` in ``directory``."""
    out = [{"input": name, "argv": ["catalog", "--name", name.removeprefix("catalog_")]}
           for name in names if name.startswith("catalog_")]
    for name in names:
        path = str(directory / f"{name}.ito")
        basis = next((line.split()[1:] for line in (directory / f"{name}.ito").read_text().splitlines()
                      if line.startswith("basis ")), []) or ["x"]
        element = f"1 {basis[0]} + 2i {basis[-1]}"
        commands = COMMANDS[:1] if name.removeprefix("ladder_") in LADDER_ONLY_CHECK else COMMANDS
        for command in commands:
            argv = [command[0], path, *(arg.format(element=element) for arg in command[1:])]
            out.append({"input": name, "argv": argv})
            if "--latex" not in command:
                out.append({"input": name, "argv": argv + ["--json"]})
    return out


_RUNTIME = re.compile(r'("runtime_ms":)[^,}\]]*')


def run_cases(jobs: list[dict]) -> list[dict]:
    """One record per job: ``cli.main`` of the imported tree on its argv, captured."""
    from itoalg import cli

    records = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
            except Exception as exc:  # a traceback is a difference like any other
                code = f"{type(exc).__name__}: {exc}"
        stdout = _RUNTIME.sub(r"\1", out.getvalue())
        records.append({**job, "exit": code, "stderr": err.getvalue(), "stdout": stdout})
    return records


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf")


def largest_difference(a: str, b: str) -> float | None:
    """The largest absolute difference of the numbers of ``a`` and ``b``, in order.

    None if the two texts do not hold the same count of numbers.
    """
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    diffs = [abs(float(x) - float(y)) for x, y in zip(xs, ys) if x != y]
    return max(diffs, default=0.0)


def compare(base: list[dict], head: list[dict]) -> tuple[int, list[str]]:
    """The number of identical records and one line for each other record."""
    same, lines = 0, []
    for b, h in zip(base, head):
        if (b["exit"], b["stderr"], b["stdout"]) == (h["exit"], h["stderr"], h["stdout"]):
            same += 1
            continue
        diff = largest_difference(b["stdout"] + b["stderr"], h["stdout"] + h["stderr"])
        what = "numbers do not pair" if diff is None else f"largest numeric difference {diff:.3g}"
        exits = "" if b["exit"] == h["exit"] else f", exit {b['exit']} -> {h['exit']}"
        lines.append(f"{b['input']}: {' '.join(b['argv'][:1] + b['argv'][2:])}: {what}{exits}")
    if len(base) != len(head):
        lines.append(f"record counts differ: {len(base)} base, {len(head)} head")
    return same, lines


def differential(base_src: Path, head_src: Path, out: Path, small: bool) -> tuple[int, int, list[str]]:
    """Inputs from the base tree, both trees run on them; (records, identical, difference lines)."""
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    _worker(base_src, "inputs", str(inputs), "small" if small else "full")
    names = json.loads((inputs / "names.json").read_text())
    (out / "cases.json").write_text(json.dumps(cases(inputs, names)))
    records = {}
    for side, src in (("base", base_src), ("head", head_src)):
        _worker(src, "run", str(out / "cases.json"), str(out / f"{side}.jsonl"))
        records[side] = [json.loads(line) for line in (out / f"{side}.jsonl").read_text().splitlines()]
    same, lines = compare(records["base"], records["head"])
    return len(records["base"]), same, lines


def _work(src: str, mode: str, *args: str) -> None:
    sys.path.insert(0, src)
    if mode == "inputs":
        directory = Path(args[0])
        names = make_inputs(directory, args[1] == "small")
        (directory / "names.json").write_text(json.dumps(names))
    else:
        records = run_cases(json.loads(Path(args[0]).read_text()))
        Path(args[1]).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        _work(*sys.argv[2:])
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision of the base tree")
    p.add_argument("--head", help="git revision of the head tree (default: this checkout's src)")
    p.add_argument("--out", help="keep the inputs and records in this directory")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base_src = export(args.base, Path(tmp) / "base")
        head_src = export(args.head, Path(tmp) / "head") if args.head else ROOT / "src"
        out = Path(args.out) if args.out else Path(tmp) / "out"
        total, same, lines = differential(base_src, head_src, out, small=False)
    for line in lines:
        print(line)
    print(f"{total} records, {same} identical")
    return 0 if same == total and not lines else 1


if __name__ == "__main__":
    sys.exit(main())
