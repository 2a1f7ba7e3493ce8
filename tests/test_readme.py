"""The README's library example runs, and its comments state what it prints."""

import re
from pathlib import Path

import numpy as np

import itoalg as ia

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example(capsys):
    scope: dict = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert capsys.readouterr().out
    alg, rep, dec = scope["alg"], scope["rep"], scope["dec"]
    assert rep.hdim == 2
    assert rep.mats.shape == (3, 4, 4)
    assert rep.mats[alg.index("dw")].tobytes() == ia.triangular(rep, alg.basis_element("dw")).tobytes()
    # brownian: death + dw; levy: death + dm
    for part, label in ((dec.brownian, "dw"), (dec.levy, "dm")):
        expected = [alg.death, alg.basis_element(label).coeffs]
        np.testing.assert_allclose([e.coeffs for e in part], expected, atol=alg.tol)
