"""Every CLI output stays as recorded in a corpus under ``tests/golden/``.

There is one corpus per environment: the running interpreter, numpy,
scipy, platform and numpy's SIMD dispatch.  Where the running environment
has a corpus, each output must match it byte for byte (its text, or its
sha256 when long).  Elsewhere the last bits of numpy's FFTs and vectorised
log and tan and of ``scipy.special`` may differ, so text must match
exactly and numbers to within ``ULPS`` units in the last place: the
double's ulp, or for the 6-significant-digit text of ``verify-theorem``
the unit of the sixth digit.  That comparison is made against the
committed corpus the outputs come nearest (the fewest differing cases; the
default ``corpus.json`` on a tie).  A long output is then compared by its
line count and first lines.  ``ULPS`` was fixed at 4 before any
cross-platform run; it is not widened to absorb a change: a platform whose
round-off moves further gets a corpus of its own.  A change that means to
alter an output regenerates the corpora with ``tests/golden/regen.py``.
"""

from __future__ import annotations

import importlib.util
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
_CORPORA = regen.corpora()
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


@pytest.fixture(scope="module")
def reference(outputs):
    """(corpus file, corpus, whether bytes must match) the outputs are held to."""
    env = regen.environment()
    for path, corpus in _CORPORA.items():
        if corpus["environment"] == env:
            return path, corpus, True

    def differing_cases(item):
        cases = item[1]["cases"]
        return sum(bool(mismatches(cases[name], outputs[name], exact=False)) for name in cases)

    # min keeps the first of a tie, and the default comes first
    return (*min(_CORPORA.items(), key=differing_cases), False)


def test_corpus_lists_every_case():
    for path, corpus in _CORPORA.items():
        assert list(corpus["cases"]) == [name for name, _, _ in regen.CASES], path.name


def test_corpora_have_distinct_environments():
    environments = [corpus["environment"] for corpus in _CORPORA.values()]
    assert all(env not in environments[:i] for i, env in enumerate(environments))
    assert all(regen.corpus_path(env) == path for path, env in zip(_CORPORA, environments))


def _skeleton(record: dict) -> tuple:
    return record.get("lines"), _NUMBER.split(record.get("text", record.get("head", "")))


@pytest.mark.parametrize("path", list(_CORPORA)[1:], ids=lambda path: path.name)
def test_corpora_differ_from_the_default_in_numbers_only(path):
    # another environment moves round-off, never an exit code, a verdict or
    # the text around the numbers
    default = _CORPORA[regen.CORPUS]["cases"]
    for name, case in _CORPORA[path]["cases"].items():
        want = default[name]
        assert case["exit"] == want["exit"], name
        parts = [("stdout", case["stdout"], want["stdout"]), ("stderr", case["stderr"], want["stderr"])]
        assert set(case["files"]) == set(want["files"]), name
        parts += [(f, rec, want["files"][f]) for f, rec in case["files"].items()]
        for part, got, expected in parts:
            assert _skeleton(got) == _skeleton(expected), f"{name}: {part}"


@pytest.mark.parametrize("name", [name for name, _, _ in regen.CASES])
def test_output_matches_corpus(name, outputs, reference):
    path, corpus, exact = reference
    bad = mismatches(corpus["cases"][name], outputs[name], exact)
    assert not bad, f"{name}: {', '.join(bad)} differ from tests/golden/{path.name}"


def test_corpus_passes_the_cross_platform_comparison(outputs, reference):
    _, corpus, _ = reference
    for name, expected in corpus["cases"].items():
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
