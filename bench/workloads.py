"""The benchmark workloads: inputs from a seed, one pass, its gates.

Every workload is a closed loop with one client: an operation starts only
after the previous one finished.  An operation fails on a non-zero exit
code, an exception, a wrong verdict or a tolerance miss; each failure
carries its reason.  The gates use the library's own tolerances.

* ``theorem-mc``: ``lclab verify-theorem --with-mc`` with default
  parameters (golden seed table, n = 10^6), the headline user command with
  its Monte Carlo step.  Sampling plus KS is about 90% of the pass; the
  rest is the MGF quadrature and Bessel work of the plain command.
* ``grid-ladder``: discretize -> self_difference -> log-concavity of grid
  and difference on two laws whose tail shares differ, at fixed half-width
  and at half-width growing with n; ``self_difference`` dominates.  The
  ladder stops at 2^18 cells (fixed L) and 2^16 (L proportional to n)
  because the proportional points at 2^17 and 2^18 take about 3.8 s and
  32 s each, too long for a run.

Both passes last seconds and are mostly vectorised numpy work.  Plain
``verify-theorem`` (0.3 s passes) and the CSV stage pipeline (interpreter-
bound) were tried as workloads and dropped: under the load of a shared
host their run medians spread by 20-40%.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import traceback

import numpy as np

WORKLOADS = ("theorem-mc", "grid-ladder")

LAWS = ("normal-product", "laplace")
#: (cells, nominal half-width, half-width proportional to cells)
LADDER = (
    (2**14, 12.0, False),
    (2**16, 12.0, False),
    (2**18, 12.0, False),
    (2**12, 12.0, True),
    (2**14, 48.0, True),
    (2**16, 192.0, True),
)
SMALL_CELLS = 2**14
SMALL_MC_N = 20_000
#: the pipeline's own tolerances: ``verify-theorem --tol-shape`` default and
#: the sup-node bound of its laplace-identification step
TOL_SHAPE = 1e-9
SUP_NODE_TOL = 1e-3

#: A self-difference of the normal-product law that fails log-concavity at
#: half-width >= 24 is the known FFT tail-noise defect only when its witness
#: looks like it: entries just above the tail-polish threshold (1e-8 of the
#: peak, witness at 1.0-1.3e-8 of it) keep the FFT's absolute round-off,
#: a log-scale violation of about 4e-9.  A larger violation, or one higher
#: up the density, is a failure like any other.
KNOWN_DEFECT_MIN_HALF_WIDTH = 24.0
KNOWN_DEFECT_MAX_REL_VALUE = 1e-7
KNOWN_DEFECT_MAX_VIOLATION = 10 * TOL_SHAPE


def ladder_points():
    """Every (law, cells, nominal half-width, proportional) ladder point."""
    return [(law, n, hw, prop) for law in LAWS for n, hw, prop in LADDER]


def make_inputs(workload: str, seed: int, small: bool, tmp: str) -> dict:
    """Inputs of one pass; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "theorem-mc":
        argv = ["verify-theorem", "--with-mc", "--out", os.path.join(tmp, "report.json")]
        if small:
            argv += ["--n", str(SMALL_MC_N)]
        return {"argv": argv, "report": argv[3]}
    if workload == "grid-ladder":
        points = [p for p in ladder_points() if not small or p[1] <= SMALL_CELLS]
        rng.shuffle(points)
        return {
            "points": [
                {"law": law, "cells": n, "nominal": hw,
                 "half_width": hw * rng.uniform(1.0, 1.01)}
                for law, n, hw, _ in points
            ],
        }
    raise ValueError(f"unknown workload {workload!r}")


def _op(name: str, seconds: float, reason: str | None = None, known: bool = False, **details) -> dict:
    return {"op": name, "seconds": seconds, "ok": reason is None, "reason": reason,
            "known_defect": known, **details}


def _cli(lclab, argv) -> tuple[int | None, float, str | None]:
    """Run one CLI command; return (exit code, seconds, exception text)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = lclab.cli.main(argv)
    except Exception:  # an escaped exception is a failed operation, not a crash
        return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
    return rc, time.perf_counter() - t0, None


def _theorem_mc(lclab, inputs, small, tracer):
    rc, seconds, exc = _cli(lclab, inputs["argv"])
    if exc is not None:
        return [_op("verify-theorem", seconds, f"exception: {exc}")], {}
    if rc != 0:
        return [_op("verify-theorem", seconds, f"exit code {rc}")], {}
    with open(inputs["report"]) as fh:
        report = json.load(fh)
    bad = [s["step_name"] for s in report["steps"] if s["status"] != "pass"]
    reason = None
    if report["overall"] != "pass" or bad:
        reason = f"failed steps: {bad}"
    elif len(report["steps"]) != 6:
        reason = f"expected 6 steps, got {len(report['steps'])}"
    return [_op("verify-theorem", seconds, reason)], {}


def _classify_difference_failure(lclab, point, grid, diff, verdict, small):
    """Classify a failed self-difference verdict.

    Returns (reason, is the known defect, witness details).
    """
    w = verdict.witness
    k = int(np.argmin(np.abs(diff.nodes - w.midpoint)))
    rel = float(diff.values[k] / diff.values.max())
    details = {"violation": w.violation, "value_over_peak": rel}
    text = f"witness m={w.midpoint:.6g} violation={w.violation:.3g} value/peak={rel:.3g}"
    known = (
        point["law"] == "normal-product"
        and point["nominal"] >= KNOWN_DEFECT_MIN_HALF_WIDTH
        and rel < KNOWN_DEFECT_MAX_REL_VALUE
        and w.violation <= KNOWN_DEFECT_MAX_VIOLATION
    )
    if known and small:
        # the direct O(n^2) correlation is affordable at small sizes and
        # must hold where the FFT path fails
        direct = lclab.transform.self_difference(grid, use_fft=False)
        if not lclab.shape.check_log_concavity_grid(direct, verdict.tolerance).holds:
            return f"direct correlation fails too: {text}", False, details
        text += "; direct correlation holds"
    if known:
        return f"known defect, FFT tail noise in self_difference: {text}", True, details
    return f"self-difference not log-concave: {text}", False, details


def check_point(lclab, point, grid, diff, grid_verdict, diff_verdict, small):
    """Gate one ladder point.

    Returns (reason or None, is the known defect, details).  Every gate
    runs whatever the others found; the point counts as the known defect
    only when that is its one failure.
    """
    law = point["law"]
    product = law == "normal-product"
    reasons, known, details = [], False, {}
    if product and (grid_verdict.holds or grid_verdict.witness is None):
        reasons.append("product grid should fail log-concavity with a witness")
    if not product and not grid_verdict.holds:
        reasons.append(f"{law} grid should be log-concave")
    if product:
        laplace = 0.5 * np.exp(-np.abs(diff.nodes))
        sup = float(np.max(np.abs(diff.values - laplace)))
        details["sup_node"] = sup
        if sup > SUP_NODE_TOL:
            reasons.append(f"sup-node distance to Laplace {sup:.3g} > {SUP_NODE_TOL:g}")
    if not diff_verdict.holds:
        reason, defect, witness = _classify_difference_failure(lclab, point, grid, diff, diff_verdict, small)
        details.update(witness)
        known = defect and not reasons
        reasons.append(reason)
    return "; ".join(reasons) or None, known, details


def _grid_ladder(lclab, inputs, small, tracer):
    dist, transform, shape = lclab.dist, lclab.transform, lclab.shape
    ops, marks = [], []
    for point in inputs["points"]:
        law, n = point["law"], point["cells"]
        name = f"{law}.n{n}.L{point['nominal']:g}"
        first_span = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            grid = dist.discretize(dist.builtin_density(law), point["half_width"], n)
            diff = transform.self_difference(grid)
            grid_verdict = shape.check_log_concavity_grid(grid, TOL_SHAPE)
            diff_verdict = shape.check_log_concavity_grid(diff, TOL_SHAPE)
        except Exception:
            ops.append(_op(name, time.perf_counter() - t0, f"exception: {traceback.format_exc(limit=3)}"))
            continue
        seconds = time.perf_counter() - t0
        marks.append((point, first_span))
        reason, known, details = check_point(lclab, point, grid, diff, grid_verdict, diff_verdict, small)
        ops.append(_op(name, seconds, reason, known, **details))
    return ops, {"marks": marks}


RUNNERS = {"theorem-mc": _theorem_mc, "grid-ladder": _grid_ladder}
