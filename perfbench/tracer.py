"""Outside-in tracing of itoalg's public functions.

The tracer wraps each listed function wherever it is bound in an ``itoalg.*``
module namespace, found by object identity, so aliases such as
``gns.verify_axioms`` or ``cli.decompose`` and the ``core.multiply`` behind
``Element.__mul__`` are all caught.  No file of the program changes.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

# (layer function, home module, attribute); all algebra-returning builtins
# fold into one layer function, "builtins.construct".
FUNCTIONS = (
    ("adsl.parse", "itoalg.adsl", "parse"),
    ("adsl.serialize", "itoalg.adsl", "serialize"),
    ("builtins.construct", None, None),
    ("core.verify_axioms", "itoalg.core", "verify_axioms"),
    ("core.multiply", "itoalg.core", "multiply"),
    ("core.subalgebra", "itoalg.core", "subalgebra"),
    ("ideal.faithfulness_ideal", "itoalg.ideal", "faithfulness_ideal"),
    ("ideal.quotient", "itoalg.ideal", "quotient"),
    ("gns.build_representation", "itoalg.gns", "build_representation"),
    ("gns.seminorms", "itoalg.gns", "seminorms"),
    ("gns.verify_bstar", "itoalg.gns", "verify_bstar"),
    ("decomp.decompose", "itoalg.decomp", "decompose"),
    ("decomp.support_projector", "itoalg.decomp", "support_projector"),
    ("focksim.vacuum_moments", "itoalg.focksim", "vacuum_moments"),
    ("focksim.ito_product_check", "itoalg.focksim", "ito_product_check"),
    ("focksim.classical_paths", "itoalg.focksim", "classical_paths"),
    ("cli.main", "itoalg.cli", "main"),
)
USEFUL_RATIO = ("core.verify_axioms", "ideal.faithfulness_ideal", "gns.build_representation")

# Per-layer metrics in output order, with their units.
LAYER_METRICS = (
    [(f"{name}.{kind}", unit) for name, _, _ in FUNCTIONS
     for kind, unit in (("calls", "count"), ("self_s", "s"), ("failed", "count"))]
    + [(f"{name}.useful_ratio", "ratio") for name in USEFUL_RATIO]
    + [
        ("adsl.parse.bytes", "bytes"),
        ("adsl.parse.unverified", "count"),
        ("cli.main.out_bytes", "bytes"),
        ("core.verify_axioms.nnz_frac", "ratio"),
        ("core.verify_axioms.dense_bytes", "bytes"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _builtin_constructors():
    mod = importlib.import_module("itoalg.builtins")
    for attr in getattr(mod, "__all__", ()):
        fn = getattr(mod, attr, None)
        if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and inspect.signature(fn).return_annotation in ("ItoAlgebra", mod.ItoAlgebra)):
            yield fn


def target_functions() -> dict:
    """Function object -> layer function name."""
    out = {}
    for name, module, attr in FUNCTIONS:
        if module is None:
            for fn in _builtin_constructors():
                out[fn] = name
            continue
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is not None:
            out[fn] = name
    return out


def _algebra_of(obj):
    if hasattr(obj, "mult") and hasattr(obj, "labels"):
        return obj
    alg = getattr(obj, "algebra", None)
    return alg if hasattr(alg, "mult") else None


@dataclass
class Span:
    name: str
    op: object
    parent: int
    start: float = 0.0
    end: float = 0.0
    n: int = -1
    nnz: int = -1
    hdim: int = -1
    failed: bool = False
    alg: int = 0          # id() of the algebra, kept alive for the operation
    nbytes: int = 0       # text size, for parse
    parsed: bool = False  # parse returned an algebra


class Tracer:
    """Install with ``install()``; bracket each operation with ``begin_op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._live: dict[int, tuple[object, int]] = {}  # id -> (algebra, nnz)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------
    def install(self) -> None:
        targets = target_functions()
        by_id = {id(fn): (fn, name) for fn, name in targets.items()}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "itoalg" and not modname.startswith("itoalg."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is None or hit[0] is not val:
                    continue
                if id(val) not in wrappers:
                    wrappers[id(val)] = self._wrap(hit[1], val)
                self._saved.append((mod, attr, val))
                setattr(mod, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def begin_op(self, op) -> None:
        self._op = op
        self._live.clear()

    def end_op(self) -> None:
        self._op = None
        self._live.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._op, tracer._stack[-1] if tracer._stack else -1)
            if args and name != "builtins.construct":
                tracer._describe(span, args[0])
                if isinstance(args[0], str):
                    span.nbytes = len(args[0].encode("utf-8"))
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            tracer._describe(span, result)
            if name == "adsl.parse":
                span.parsed = getattr(result, "algebra", None) is not None
            return result

        return traced

    def _describe(self, span: Span, obj) -> None:
        """Fill n, nnz(mult) and hdim from an argument or a result."""
        if span.hdim < 0:
            hdim = getattr(obj, "hdim", None)
            if hdim is None:
                hdim = getattr(getattr(obj, "rep", None), "hdim", None)
            if isinstance(hdim, int):
                span.hdim = hdim
        if span.n >= 0:
            return
        alg = _algebra_of(obj)
        if alg is None:
            return
        key = id(alg)
        if key not in self._live:
            self._live[key] = (alg, int(np.count_nonzero(alg.mult)))
        span.n = len(alg.labels)
        span.nnz = self._live[key][1]
        span.alg = key

    # -- results ---------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (overhead and out_bytes excluded)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for name, _, _ in FUNCTIONS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.failed"] = 0
        distinct = {name: set() for name in USEFUL_RATIO}
        nnz = cube = dense = 0
        for i, s in enumerate(self.spans):
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += (s.end - s.start) - child[i]
            out[f"{s.name}.failed"] += int(s.failed)
            if s.name in distinct:
                distinct[s.name].add((s.op, s.alg))
            if s.name == "core.verify_axioms" and s.n >= 0:
                nnz += s.nnz
                cube += s.n**3
                dense += 16 * s.n**4
        for name, seen in distinct.items():
            calls = out[f"{name}.calls"]
            out[f"{name}.useful_ratio"] = len(seen) / calls if calls else 0.0
        out["adsl.parse.bytes"] = sum(s.nbytes for s in self.spans if s.name == "adsl.parse")
        out["adsl.parse.unverified"] = len(self.unverified_parses())
        out["core.verify_axioms.nnz_frac"] = nnz / cube if cube else 0.0
        out["core.verify_axioms.dense_bytes"] = dense
        return out

    def unverified_parses(self) -> list[Span]:
        """Parses that returned an algebra without verifying its axioms."""
        verified = {s.parent for s in self.spans if s.name == "core.verify_axioms"}
        return [s for i, s in enumerate(self.spans)
                if s.name == "adsl.parse" and s.parsed and i not in verified]

    def op_counts(self, name: str) -> Counter:
        """Calls of one layer function per operation id."""
        return Counter(s.op for s in self.spans if s.name == name)

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = asdict(s)
                rec["start"] -= t0
                rec["end"] -= t0
                del rec["alg"], rec["parsed"]
                fh.write(json.dumps(rec) + "\n")
