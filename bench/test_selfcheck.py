"""Seconds-long end-to-end check of the benchmark harness, outside tier-1.

    python3 -m pytest bench

Runs every workload at small sizes, untraced and traced, through the same
driver, worker, gates and trace wrappers as a full run, and feeds the
grid-ladder gate deliberately broken grids to show that it can fail.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import lclab  # noqa: E402
import workloads  # noqa: E402

TOL = workloads.TOL_SHAPE


def test_self_check():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().endswith("self-check ok")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _gate(law, nominal, grid, diff):
    point = {"law": law, "cells": grid.n_cells, "nominal": nominal}
    shape = lclab.shape
    return workloads.check_point(
        lclab, point, grid, diff,
        shape.check_log_concavity_grid(grid, TOL), shape.check_log_concavity_grid(diff, TOL), True,
    )


def _ladder_point(law, half_width, cells=2**12):
    dist = lclab.dist
    grid = dist.discretize(dist.builtin_density(law), half_width, cells)
    return grid, lclab.transform.self_difference(grid)


def _scaled(g, factor):
    return dataclasses.replace(g, values=g.values * factor)


def _dent(g):
    return 1.0 - 0.05 * np.exp(-(((g.nodes - 2.0) / 0.2) ** 2))


def test_gate_fails_a_dented_difference():
    grid, diff = _ladder_point("laplace", 12.0)
    assert _gate("laplace", 12.0, grid, diff) == (None, False, {})
    reason, known, details = _gate("laplace", 12.0, grid, _scaled(diff, _dent(diff)))
    assert reason.startswith("self-difference not log-concave") and not known
    assert details["violation"] > 1e-4


def test_gate_compares_every_product_difference_with_laplace():
    grid, _ = _ladder_point("normal-product", 12.0)
    _, other = _ladder_point("laplace", 12.0)  # log-concave, but (1+|x|)e^-|x|/4
    for diff in (other, _scaled(other, _dent(other))):
        reason, known, details = _gate("normal-product", 12.0, grid, diff)
        assert "sup-node distance to Laplace" in reason and not known
        assert details["sup_node"] > workloads.SUP_NODE_TOL


def test_gate_separates_the_known_defect_from_a_larger_tail_violation():
    grid, diff = _ladder_point("normal-product", 48.0, 2**14)
    # one certified node a little below 1e-8 of the peak, where the tail
    # polish stops
    rel = diff.values / diff.values.max()
    k = int(np.flatnonzero((rel > 1.1e-8) & (diff.nodes > 0))[-1])
    for violation, expect_known in ((5e-9, True), (1e-6, False)):
        factor = np.ones(diff.n_cells)
        factor[k] = np.exp(-violation)
        reason, known, details = _gate("normal-product", 48.0, grid, _scaled(diff, factor))
        assert known is expect_known, reason
        assert details["value_over_peak"] < workloads.KNOWN_DEFECT_MAX_REL_VALUE
        if expect_known:
            assert "direct correlation holds" in reason
