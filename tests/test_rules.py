"""The architecture rules of the source tree, one table run with ``re``.

Each rule is a regular expression that no line of its files may match, the
files it covers (globs from the repository root, less the exempt ones) and
the message a violation prints.  Each rule also carries a mutation: a line
that breaks the rule and that the rule must catch when it is added to one of
its files.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


class Rule(NamedTuple):
    name: str
    pattern: str
    paths: tuple[str, ...]
    exempt: tuple[str, ...]
    message: str
    mutation: str


RULES = [
    Rule("thresholds", r"(tol|cut) \* max\(", ("src/itoalg/**/*.py",), ("src/itoalg/core.py",),
         "compute rank, support and degeneracy thresholds with core.cutoff",
         "    cut = tol * max(1.0, float(svals.max()))"),
    Rule("no_jitter", r"np\.eye\([^)]*\) \* (alg\.)?tol\b", ("src/itoalg/**/*.py", "tests/conftest.py"), (),
         "factor the matrix itself: an additive tolerance jitter biases what it factors",
         "    chol = np.linalg.cholesky(gram + np.eye(n) * alg.tol)"),
    Rule("residuals", r"abs\(.*(<=|>=|<|>)\s*[A-Za-z_.]*\btol\b", ("src/itoalg/**/*.py",), (),
         "compare with core.rel_residual(s) at the algebra's tol, not an absolute test",
         "    if abs(value - 1.0) <= alg.tol:"),
    Rule("no_solve", r"lstsq|linalg\.solve", ("src/itoalg/gns.py",), (),
         "K = diag(sqrt(evals)) V^dag has orthogonal rows: V diag(1/sqrt(evals)) is its exact right inverse",
         "    imats = np.linalg.lstsq(K.T, KP.T, rcond=None)[0]"),
    Rule("no_svd_in_gns", r"linalg\.svd", ("src/itoalg/gns.py",), (),
         "rank decisions go through core.null_space/numerical_rank, the op seminorm through one eigvalsh",
         "    op = np.linalg.svd(T[:, 1:-1, 1:-1], compute_uv=False).max(axis=-1, initial=0.0)"),
    Rule("reader", r"\.axioms\b|verify_axioms", ("src/itoalg/adsl.py",), (),
         "parse only reads text: each consumer checks the axiom report kept on the algebra",
         "    if not alg.axioms.passed:"),
    Rule("one_json_writer", r"(^|[^A-Za-z0-9_.])(import|from) json\b", ("src/itoalg/**/*.py",),
         ("src/itoalg/cli.py",),
         "every --json payload goes through cli._dumps: no other module imports json",
         "import json"),
    # CI installs numpy, pytest and hypothesis only; this file names scipy in its mutation
    Rule("no_scipy", r"(^|[^A-Za-z0-9_.])(import|from) scipy\b", ("src/**/*.py", "tests/**/*.py"),
         ("tests/test_rules.py",),
         "CI installs no scipy: use numpy (see ks_statistic in tests/test_focksim.py)",
         "from scipy import linalg"),
    Rule("one_verdict", r"(<=|>=|<|>)\s*[A-Za-z_.]*\btol\b|\btol\s*(<=|>=|<|>)",
         ("src/itoalg/decomp.py", "src/itoalg/gns.py"), (),
         "judge a stage's residuals with core.Report: no stage compares a residual against tol",
         "    if not residual <= tol:"),
    Rule("no_builtin_tol", r"\bdef\b.*\btol\b|^\s*tol\s*:", ("src/itoalg/builtins.py",), (),
         "a builtin is made at ItoAlgebra.tol: another tolerance is dataclasses.replace(alg, tol=t)",
         "def wiener(tol: float = 1e-9) -> ItoAlgebra:"),
    Rule("one_default_tol", r"(?<![\w.])1e-9\b", ("src/itoalg/**/*.py",), ("src/itoalg/core.py",),
         "the default tolerance is written once, as ItoAlgebra.tol: read it from there",
         "def parse(text: str, tol: float = 1e-9) -> ParseResult:"),
    Rule("scaled_tol", r"\btol\s*\*|\*\s*[A-Za-z_.]*\btol\b", ("src/itoalg/**/*.py",),
         ("src/itoalg/core.py",),
         "scale a tolerance only with core.cutoff or core.rel_residual(s): no hand-scaled bound",
         "        failed = ~(deviations <= rep.algebra.tol * scale[:, None])"),
    Rule("one_failure_path", r"\.failures\(\)", ("src/itoalg/**/*.py",), ("src/itoalg/core.py",),
         "raise a stage's failed checks with core.Report.require: it writes the one message form",
         '    failed = ", ".join(c.name for c in report.failures())'),
]


def files(rule: Rule) -> list[Path]:
    """The files ``rule`` covers, in sorted order."""
    found = {path for glob in rule.paths for path in ROOT.glob(glob)}
    return sorted(path for path in found if path.relative_to(ROOT).as_posix() not in rule.exempt)


def violations(rule: Rule, texts: dict[str, str]) -> list[str]:
    """``path:line: text`` for every line of ``texts`` (path -> file text) that ``rule`` matches."""
    pattern = re.compile(rule.pattern)
    return [f"{path}:{number}: {line}" for path, text in texts.items()
            for number, line in enumerate(text.splitlines(), 1) if pattern.search(line)]


def read(paths: list[Path]) -> dict[str, str]:
    return {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8") for path in paths}


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule_holds(rule):
    assert files(rule), f"{rule.name} covers no file"
    found = violations(rule, read(files(rule)))
    assert not found, rule.message + "\n" + "\n".join(found)


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule_catches_its_mutation(rule):
    texts = read(files(rule))
    target = next(iter(texts))
    texts[target] += rule.mutation + "\n"
    assert violations(rule, texts) == [f"{target}:{len(texts[target].splitlines())}: {rule.mutation}"]


def test_rules_are_distinct():
    assert len({rule.name for rule in RULES}) == len(RULES)
    assert len({rule.pattern for rule in RULES}) == len(RULES)
