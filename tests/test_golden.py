"""Every CLI output in ``tests/golden/corpus.json`` stays as recorded.

Where the running interpreter, numpy, scipy and platform are those the
corpus was made with, each output must match byte for byte (its text, or
its sha256 when long).  Elsewhere the last bits of numpy's FFTs and of
``scipy.special`` may differ, so text must match exactly and numbers to
within ``ULPS`` units in the last place: the double's ulp, or for the
6-significant-digit text of ``verify-theorem`` the unit of the sixth digit.
A long output is then compared by its line count and first lines.
``ULPS`` was fixed at 4 before any cross-platform run; it is not widened
to absorb a change.  A change that means to alter an output regenerates
the corpus with ``tests/golden/regen.py``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

ULPS = 4
_CORPUS = json.loads(regen.CORPUS.read_text())
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan|Infinity|NaN)")


def _same_number(a: str, b: str, digits: int | None) -> bool:
    if a == b:
        return True
    if not re.search(r"[.eEna]", a + b):  # integers: counts, exit codes, indices
        return False
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    scale = max(abs(x), abs(y))
    unit = float(np.spacing(scale))
    if digits is not None and scale > 0.0:
        unit = max(unit, 10.0 ** (math.floor(math.log10(scale)) - digits + 1))
    return abs(x - y) <= ULPS * unit


def same_text(expected: str, actual: str, digits: int | None = None) -> bool:
    """Equal text between numbers, and numbers equal to within ``ULPS``."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return False
    pairs = zip(_NUMBER.findall(expected), _NUMBER.findall(actual))
    return all(_same_number(a, b, digits) for a, b in pairs)


def _close_record(expected: dict, actual: dict, digits: int | None) -> bool:
    if "text" in expected:
        return "text" in actual and same_text(expected["text"], actual["text"], digits)
    return (
        "head" in actual
        and expected["lines"] == actual["lines"]
        and same_text(expected["head"], actual["head"], digits)
    )


def mismatches(expected: dict, actual: dict, exact: bool) -> list[str]:
    """Names of the parts of one case that differ from the corpus."""
    if expected["argv"] != actual["argv"]:
        return ["argv (regenerate the corpus)"]
    bad = [] if expected["exit"] == actual["exit"] else ["exit"]
    parts = [("stdout", expected["stdout"], actual["stdout"])]
    parts.append(("stderr", expected["stderr"], actual["stderr"]))
    if set(expected["files"]) != set(actual["files"]):
        return bad + ["files"]
    parts += [(f, rec, actual["files"][f]) for f, rec in expected["files"].items()]
    for name, want, got in parts:
        digits = 6 if name == "stdout" and expected["argv"][:1] == ["verify-theorem"] else None
        if not (want == got if exact else _close_record(want, got, digits)):
            bad.append(name)
    return bad


@pytest.fixture(scope="module")
def outputs():
    return regen.run_cases()


def test_corpus_lists_every_case():
    assert list(_CORPUS["cases"]) == [name for name, _, _ in regen.CASES]


@pytest.mark.parametrize("name", list(_CORPUS["cases"]))
def test_output_matches_corpus(name, outputs):
    exact = _CORPUS["environment"] == regen.environment()
    bad = mismatches(_CORPUS["cases"][name], outputs[name], exact)
    assert not bad, f"{name}: {', '.join(bad)} differ from tests/golden/corpus.json"


def test_corpus_passes_the_cross_platform_comparison(outputs):
    for name, expected in _CORPUS["cases"].items():
        assert not mismatches(expected, outputs[name], exact=False), name


def test_same_text_tolerates_ulps_only():
    x = 0.1 + 0.2
    near, far = float(np.nextafter(x, 1.0)), x + 5 * float(np.spacing(x))
    assert same_text(f"v={x!r}\n", f"v={near!r}\n")
    assert not same_text(f"v={x!r}\n", f"v={far!r}\n")
    assert not same_text("m=-5.99707\n", "m=5.99707\n", digits=6)
    assert same_text("d=0.000842879\n", "d=0.00084288\n", digits=6)
    assert not same_text("d=0.000842879\n", "d=0.000842889\n", digits=6)
    assert not same_text("n_probes=9\n", "n_probes=10\n")
    assert not same_text("PASS 1.0\n", "FAIL 1.0\n")
    assert not same_text("0.5\n", "0.5,\n")
