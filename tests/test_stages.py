"""Each CLI command, and the library pipeline, runs each stage once.

The stage functions are wrapped wherever they are bound in an ``itoalg.*``
module namespace, found by object identity, so aliases such as
``cli.faithfulness_ideal`` and the calls behind ``ItoAlgebra.axioms`` and
``ItoAlgebra.gns`` are counted too.  The axiom report and the GNS quadruple
are each computed once per algebra object, whoever asks for them first.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

import itoalg as ia
from itoalg.cli import main

from test_pipeline import _random_rotation

STAGES = {
    ia.core._axiom_report: "axiom_report",
    ia.core._contractions: "contractions",
    ia.ideal.faithfulness_ideal: "faithfulness_ideal",
    ia.gns.build_representation: "build_representation",
    ia.gns.construct_gns: "construct_gns",
    ia.gns._k_products: "k_products",
}
COMMANDS = {
    "check": (),
    "represent": (),
    "decompose": (),
    "norms": ("--element", "1 dt"),
    "fock": ("--model", "fock"),
    "classical": ("--model", "classical", "--paths", "100"),
}


@pytest.fixture
def stage_calls(monkeypatch):
    calls = Counter()

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {id(fn): counted(fn, name) for fn, name in STAGES.items()}
    for modname, mod in list(sys.modules.items()):
        if modname == "itoalg" or modname.startswith("itoalg."):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(val)])
    return calls


@pytest.fixture(scope="module")
def ito_paths(tmp_path_factory):
    """hp(2) and a rotated, non-faithful hp(3) + zero-intensity Poisson, serialized."""
    rotated, _ = _random_rotation(
        ia.orthogonal_sum(ia.hp(3), ia.zero_intensity_poisson()), np.random.default_rng(5)
    )
    tmp = tmp_path_factory.mktemp("stages")
    paths = {}
    for name, alg in {"hp2": ia.hp(2), "rot_hp3+zip": rotated}.items():
        paths[name] = tmp / f"{name}.ito"
        paths[name].write_text(ia.serialize(alg), encoding="utf-8")
    return paths


@pytest.mark.parametrize("name", ["hp2", "rot_hp3+zip"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_stage_runs_once(ito_paths, capsys, stage_calls, name, command):
    sub = "simulate" if command in ("fock", "classical") else command
    code = main([sub, str(ito_paths[name]), *COMMANDS[command]])
    capsys.readouterr()
    assert code in (0, 2, 3)
    assert stage_calls["axiom_report"] == 1
    assert stage_calls["faithfulness_ideal"] <= 1
    assert stage_calls["build_representation"] <= 1
    assert stage_calls["construct_gns"] <= 1
    assert stage_calls["k_products"] == stage_calls["construct_gns"]  # the table times K, once
    if command in ("check", "represent", "decompose"):
        assert stage_calls["construct_gns"] == 1


@pytest.mark.parametrize("command, computed", [("check", ["kernel"]), ("represent", ["kernel", "report"])],
                         ids=["check", "represent"])
def test_only_a_representation_computes_its_identities(ito_paths, capsys, monkeypatch, command, computed):
    # the cached properties of the kept alg.gns: construct_gns keeps the table's product with K,
    # which it formed; check reads the kernel only, represent its report too
    built, construct = [], ia.gns.construct_gns
    monkeypatch.setattr(ia.gns, "construct_gns", lambda alg: built.append(construct(alg)) or built[-1])
    assert main([command, str(ito_paths["hp2"])]) == 0
    capsys.readouterr()
    [rep] = built
    assert sorted(set(vars(rep)) - {"algebra", "mats", "eigenvalues"}) == ["_products", *computed]


def test_check_tol_verifies_the_axioms_once(ito_paths, capsys, stage_calls):
    # the file is parsed at the --tol it is checked at, not re-verified after
    code = main(["check", str(ito_paths["hp2"]), "--tol", "1e-3"])
    capsys.readouterr()
    assert code == 0
    assert stage_calls["axiom_report"] == 1


def _library_pipeline(alg):
    """faithfulness_ideal -> quotient -> build_representation -> decompose."""
    q = ia.quotient(alg, ia.faithfulness_ideal(alg))
    ia.build_representation(q.algebra)
    ia.decompose(q.algebra)
    return q


def test_library_pipeline_builds_gns_once(stage_calls):
    _library_pipeline(ia.hp(4))
    assert stage_calls["construct_gns"] == 1


def test_library_pipeline_builds_gns_once_per_algebra(stage_calls):
    rotated, _ = _random_rotation(
        ia.orthogonal_sum(ia.hp(3), ia.zero_intensity_poisson()), np.random.default_rng(5)
    )
    q = _library_pipeline(rotated)
    assert q.algebra is not rotated
    assert stage_calls["construct_gns"] == 2
    assert "gns" in vars(rotated) and "gns" in vars(q.algebra)


def test_library_pipeline_checks_the_axioms_once_per_algebra(ito_paths, stage_calls):
    # the parsed table and its quotient are the two algebra objects, whoever asks first
    parsed = ia.parse(ito_paths["rot_hp3+zip"].read_text(encoding="utf-8")).algebra
    assert ia.verify_axioms(parsed).passed
    q = _library_pipeline(parsed)
    assert q.algebra is not parsed
    assert stage_calls["contractions"] == 2


def test_classical_paths_reuses_gns(stage_calls):
    alg = ia.orthogonal_sum(ia.wiener(), ia.poisson())
    for seed in (0, 1):
        ia.classical_paths(alg, t=1.0, dt=0.5, n_paths=10, seed=seed)
    assert stage_calls["construct_gns"] == 1


def test_replace_builds_its_own_gns(stage_calls):
    alg = ia.hp(2)
    other = dataclasses.replace(alg, tol=1e-8)
    assert other.gns is not alg.gns
    assert other.gns.algebra is other
    assert stage_calls["construct_gns"] == 2
