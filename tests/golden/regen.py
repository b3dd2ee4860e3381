"""The golden CLI corpus: what every ``lclab`` command prints, writes and exits with.

Each case runs ``lclab.cli.main`` in-process, inside one scratch directory
that all cases share in order (later cases read the grids earlier ones
wrote).  A case records its exit code, its stdout and stderr, and every
file it names as output.  An output longer than ``INLINE_BYTES`` is
stored as the sha256 of its bytes, its line count and its first
``HEAD_LINES`` lines; a shorter one is stored whole.

The corpus also stores the environment it was made in (``environment()``),
and there is one corpus file per environment: ``corpus.json``, the default,
and ``corpus-<digest of the environment>.json`` for each other one.
``tests/test_golden.py`` compares bytes against the corpus of the running
environment, and elsewhere text exactly with numbers to within a fixed ulp
count against the committed corpus the outputs come nearest.

Regenerate after a change that means to alter an output, once in the
environment of each committed corpus, and declare the diff of the corpus
files as that change.  On an x86-64 host whose numpy dispatches to X86_V4
(AVX-512) those are the plain run and the one with those loops disabled::

    PYTHONPATH=src python tests/golden/regen.py
    NPY_DISABLE_CPU_FEATURES=X86_V4 PYTHONPATH=src python tests/golden/regen.py

A run writes the corpus of its own environment: ``corpus.json`` if that is
the default's (or there is none), else its ``corpus-<digest>.json``.  To
make another environment the default, delete ``corpus.json`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from lclab import cli

GOLDEN = Path(__file__).parent
#: The default corpus: outputs of an environment without a corpus of its
#: own are compared with it unless another comes nearer
CORPUS = GOLDEN / "corpus.json"
INLINE_BYTES = 4096
HEAD_LINES = 8

#: (name, argv, output files).  Relative paths resolve in the shared
#: scratch directory.
CASES: list[tuple[str, list[str], tuple[str, ...]]] = [
    ("verify-theorem", ["verify-theorem", "--out", "report.json"], ("report.json",)),
    (
        "verify-theorem-cells-256",
        ["verify-theorem", "--cells", "256", "--out", "report-256.json"],
        ("report-256.json",),
    ),
    (
        "verify-theorem-with-mc",
        ["verify-theorem", "--with-mc", "--n", "20000", "--out", "report-mc.json"],
        ("report-mc.json",),
    ),
    ("help", ["--help"], ()),
    *[
        (f"help-{command}", [command, "--help"], ())
        for command in ("verify-theorem", "density", "selfdiff", "mgf", "shape", "sample")
    ],
    ("density-product", ["density", "--law", "normal-product", "--out", "prod.csv"], ("prod.csv",)),
    (
        "density-laplace-64",
        ["density", "--law", "laplace", "--half-width", "8", "--cells", "64"],
        (),
    ),
    (
        "density-normal-64-json",
        ["density", "--law", "normal", "--half-width", "6", "--cells", "64", "--format", "json"],
        (),
    ),
    ("selfdiff-product-csv", ["selfdiff", "--in", "prod.csv", "--out", "diff.csv"], ("diff.csv",)),
    (
        "selfdiff-product-json",
        ["selfdiff", "--law", "normal-product", "--format", "json", "--out", "diff.json"],
        ("diff.json",),
    ),
    (
        "selfdiff-laplace-64",
        ["selfdiff", "--law", "laplace", "--half-width", "8", "--cells", "64"],
        (),
    ),
    ("shape-log-concave-product", ["shape", "--property", "log-concave", "--in", "prod.csv"], ()),
    (
        "shape-log-concave-selfdiff",
        ["shape", "--property", "log-concave", "--in", "diff.csv", "--tol", "1e-6"],
        (),
    ),
    (
        "shape-log-convex",
        ["shape", "--property", "log-convex", "--interval", "0.01,30", "--probes", "2048",
         "--tol", "1e-10"],
        (),
    ),
    (
        "shape-ratio-monotone",
        ["shape", "--property", "ratio-monotone", "--interval", "0.1,20", "--probes", "512"],
        (),
    ),
    ("mgf-product", ["mgf", "--law", "normal-product", "--t", "0,0.5,0.9"], ()),
    ("mgf-laplace", ["mgf", "--law", "laplace", "--t", "0,0.5,-0.9,0.999"], ()),
    ("mgf-normal", ["mgf", "--law", "normal", "--t", "0,1.5"], ()),
    (
        "sample-ks-files",
        ["sample", "--generator", "product-self-difference", "--seed", "101", "--n", "1000",
         "--out", "draws.csv", "--ks", "--ks-out", "ks.json"],
        ("draws.csv", "ks.json"),
    ),
    (
        "sample-ks-stdout",
        ["sample", "--generator", "normal-product", "--seed", "102", "--n", "50", "--ks"],
        (),
    ),
    # exit 1: one error line
    ("error-missing-input", ["selfdiff", "--in", "missing.csv"], ()),
    (
        "error-zero-mass",
        ["density", "--law", "normal", "--half-width", "1e200", "--cells", "64"],
        (),
    ),
    ("error-malformed-grid", ["shape", "--property", "log-concave", "--in", "draws.csv"], ()),
    # exit 2: usage errors
    ("usage-no-command", [], ()),
    ("usage-unknown-command", ["no-such-command"], ()),
    ("usage-unknown-law", ["density", "--law", "cauchy"], ()),
    ("usage-missing-law", ["density"], ()),
    ("usage-unknown-option", ["shape", "--property", "log-convex", "--function", "k0"], ()),
    ("usage-selfdiff-both-sources", ["selfdiff", "--law", "laplace", "--in", "prod.csv"], ()),
    ("usage-half-width-nan", ["verify-theorem", "--half-width", "nan"], ()),
    ("usage-half-width-inf", ["verify-theorem", "--half-width", "inf"], ()),
    ("usage-half-width-negative", ["verify-theorem", "--half-width", "-1"], ()),
    ("usage-tol-shape", ["verify-theorem", "--tol-shape", "x"], ()),
    ("usage-mgf-tol", ["mgf", "--t", "0", "--tol", "0"], ()),
    ("usage-cells-nan", ["verify-theorem", "--cells", "nan"], ()),
    ("usage-cells-float", ["verify-theorem", "--cells", "1e3"], ()),
    ("usage-cells-small", ["verify-theorem", "--cells", "62"], ()),
    ("usage-cells-odd", ["verify-theorem", "--cells", "65"], ()),
    ("usage-n-zero", ["verify-theorem", "--with-mc", "--n", "0"], ()),
    ("usage-n-float", ["verify-theorem", "--n", "1.5"], ()),
    ("usage-probes", ["shape", "--property", "log-convex", "--probes", "2"], ()),
    (
        "usage-alpha-one",
        ["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--alpha", "1"],
        (),
    ),
    (
        "usage-alpha-nan",
        ["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--alpha", "nan"],
        (),
    ),
    ("usage-seed", ["sample", "--generator", "normal-product", "--seed", "x", "--n", "10"], ()),
    ("usage-interval-three", ["shape", "--property", "log-convex", "--interval", "1,2,3"], ()),
    ("usage-interval-reversed", ["shape", "--property", "ratio-monotone", "--interval", "2,1"], ()),
    ("usage-interval-zero", ["shape", "--property", "log-convex", "--interval", "0,30"], ()),
    ("usage-interval-inf", ["shape", "--property", "log-convex", "--interval", "1,inf"], ()),
    ("usage-t-empty", ["mgf", "--t", ""], ()),
    ("usage-t-word", ["mgf", "--t", "0,x"], ()),
    ("usage-t-nan", ["mgf", "--t", "0,nan"], ()),
    ("usage-t-comma", ["mgf", "--t", ","], ()),
]


def environment() -> dict:
    """What decides the bits of an output: interpreter, libraries, platform.

    The platform includes the SIMD targets numpy dispatches to, since its
    vectorised loops may round differently on another CPU.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    except ImportError:
        simd = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": f"{sys.platform}-{platform.machine()}",
        "numpy_simd": simd,
    }


def record(text: str) -> dict:
    """One output as stored: whole if short, else its sha256 and first lines."""
    if len(text.encode()) <= INLINE_BYTES:
        return {"text": text}
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": text.count("\n"),
        "head": "".join(text.splitlines(keepends=True)[:HEAD_LINES]),
    }


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cases() -> dict:
    """Run every case in order in a fresh scratch directory."""
    results = {}
    saved_cwd, saved_columns = os.getcwd(), os.environ.get("COLUMNS")
    # argparse wraps help and usage lines to the terminal width
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            for name, argv, files in CASES:
                code, out, err = _run(argv)
                results[name] = {
                    "argv": argv,
                    "exit": code,
                    "stdout": record(out),
                    "stderr": record(err),
                    "files": {f: record(Path(f).read_text()) for f in files},
                }
    finally:
        os.chdir(saved_cwd)
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns
    return results


def corpus_path(env: dict) -> Path:
    """The corpus file of an environment (see the module docstring)."""
    if not CORPUS.exists() or json.loads(CORPUS.read_text())["environment"] == env:
        return CORPUS
    digest = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()
    return GOLDEN / f"corpus-{digest[:12]}.json"


def corpora() -> dict[Path, dict]:
    """Every committed corpus by its file, the default first."""
    paths = [CORPUS, *sorted(GOLDEN.glob("corpus-*.json"))]
    return {path: json.loads(path.read_text()) for path in paths}


def main() -> None:
    env = environment()
    path = corpus_path(env)
    corpus = {"environment": env, "cases": run_cases()}
    path.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus['cases'])} cases to {path}")


if __name__ == "__main__":
    main()
