import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lclab import cli, dist, mc
from lclab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "laplace.csv"
    code, _, _ = run_cli(
        capsys, "density", "--law", "laplace", "--half-width", "8", "--cells", "1024",
        "--out", str(out),
    )
    assert code == 0
    grid = dist.GridDensity.from_csv(out.read_text())
    assert grid.n_cells == 1024
    k = int(np.argmin(np.abs(grid.nodes)))
    # node nearest 0 sits at h/2; renormalization shifts exp(-h/2)/2 a touch
    assert grid.values[k] == pytest.approx(0.5 * math.exp(-grid.step / 2), rel=1e-3)
    assert grid.values[k] == pytest.approx(0.5, abs=5e-3)


def test_density_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--law", "normal", "--cells", "64", "--half-width", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_cells"] == 64
    assert len(payload["x"]) == len(payload["density"]) == 64


def test_selfdiff_from_file_and_shape_pipe(tmp_path, capsys):
    grid_path = tmp_path / "prod.csv"
    diff_path = tmp_path / "diff.csv"
    assert run_cli(
        capsys, "density", "--law", "normal-product", "--out", str(grid_path)
    )[0] == 0
    assert run_cli(
        capsys, "selfdiff", "--in", str(grid_path), "--out", str(diff_path)
    )[0] == 0
    code, out, _ = run_cli(
        capsys, "shape", "--property", "log-concave", "--in", str(diff_path),
        "--tol", "1e-6",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["outcome"] == "holds"
    assert verdict["property"] == "log-concave"


def test_selfdiff_reads_stdin(tmp_path, monkeypatch, capsys):
    grid_path = tmp_path / "prod.csv"
    assert run_cli(
        capsys, "density", "--law", "normal-product", "--cells", "256", "--out", str(grid_path)
    )[0] == 0
    code, from_file, _ = run_cli(capsys, "selfdiff", "--in", str(grid_path))
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(grid_path.read_text()))
    assert run_cli(capsys, "selfdiff", "--in", "-") == (0, from_file, "")


def test_write_text_failing_mid_write_leaves_target_and_no_part_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        cli._write_text(str(target), chunks())
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_selfdiff_of_massless_grid_exits_1(tmp_path, capsys):
    grid_path = tmp_path / "zero.csv"
    grid_path.write_text(dist.GridDensity(4.0, np.zeros(8)).to_csv())
    code, _, err = run_cli(capsys, "selfdiff", "--in", str(grid_path))
    assert code == 1
    assert err.startswith("error: grid mass 0.0 differs from 1")


def test_malformed_grid_csv_exits_1(tmp_path, capsys):
    grid_path = tmp_path / "bad.csv"
    grid_path.write_text("# trusted-half-width: abc\nx,density\n-0.5,1\n0.5,1\n")
    for command in ("selfdiff", "shape --property log-concave"):
        code, out, err = run_cli(capsys, *command.split(), "--in", str(grid_path))
        assert code == 1
        assert out == ""
        assert err == "error: malformed grid CSV: could not convert string to float: ' abc'\n"


def test_selfdiff_json_carries_provenance(capsys):
    code, out, _ = run_cli(
        capsys, "selfdiff", "--law", "normal-product", "--cells", "256", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_cells"] == 512
    assert payload["trusted_half_width"] == 12.0
    assert payload["singular_points"] == [0.0]


def test_shape_on_raw_product_grid_fails(tmp_path, capsys):
    grid_path = tmp_path / "prod.csv"
    run_cli(capsys, "density", "--law", "normal-product", "--out", str(grid_path))
    code, out, _ = run_cli(
        capsys, "shape", "--property", "log-concave", "--in", str(grid_path),
        "--tol", "1e-9",
    )
    assert code == 0  # a Fails verdict is a result, not an error
    verdict = json.loads(out)
    assert verdict["outcome"] == "fails"
    assert verdict["witness"]["violation"] > 1e-9


def test_shape_interval_commands(capsys):
    code, out, _ = run_cli(
        capsys, "shape", "--property", "log-convex", "--interval", "0.01,30",
        "--probes", "512", "--tol", "1e-10",
    )
    assert code == 0 and json.loads(out)["outcome"] == "holds"
    code, out, _ = run_cli(
        capsys, "shape", "--property", "ratio-monotone", "--interval", "0.1,20",
        "--probes", "256",
    )
    assert code == 0 and json.loads(out)["outcome"] == "holds"


def test_mgf_reports_both_methods(capsys):
    code, out, _ = run_cli(capsys, "mgf", "--law", "normal-product", "--t", "0.5,0.9")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["density_quadrature"]["value"] == pytest.approx(1.1547005383792515, abs=1e-8)
    assert rows[0]["gaussian_conditioning"]["value"] == pytest.approx(1.1547005383792515, abs=1e-8)
    assert rows[1]["density_quadrature"]["value"] == pytest.approx(2.2941573387056176, abs=1e-8)
    for row in rows:
        assert row["density_quadrature"]["method"] == "density-quadrature"
        assert row["gaussian_conditioning"]["method"] == "gaussian-conditioning"


def test_mgf_divergent_t_exits_1(capsys):
    code, _, err = run_cli(capsys, "mgf", "--law", "normal-product", "--t", "1.5")
    assert code == 1
    assert "diverges" in err


def test_mgf_without_a_decaying_window_exits_1(capsys):
    code, out, err = run_cli(capsys, "mgf", "--law", "normal", "--t", "1e200")
    assert code == 1
    assert out == ""
    assert err == "error: could not find a decaying integration window\n"


@pytest.mark.parametrize("t", ["37.7", "40"])
def test_mgf_past_the_double_range_exits_1(t, capsys):
    # E exp(tX) = exp(t^2/2) for the normal law exceeds the double range for
    # |t| > ~37.67: one error line, no Infinity and no overflow warning
    code, out, err = run_cli(capsys, "mgf", "--law", "normal", "--t", t)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "overflows" in err
    assert err.count("\n") == 1


def test_mgf_just_inside_the_double_range(capsys):
    code, out, _ = run_cli(capsys, "mgf", "--law", "normal", "--t", "37")
    assert code == 0
    value = json.loads(out)[0]["density_quadrature"]["value"]
    assert value == pytest.approx(math.exp(37.0**2 / 2.0), rel=1e-9)


def test_sample_csv_and_ks_json(tmp_path, capsys):
    values_path = tmp_path / "values.csv"
    ks_path = tmp_path / "ks.json"
    code, _, _ = run_cli(
        capsys, "sample", "--generator", "product-self-difference", "--seed", "101",
        "--n", "2000", "--out", str(values_path), "--ks-out", str(ks_path),
    )
    assert code == 0
    lines = values_path.read_text().strip().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 2001
    report = json.loads(ks_path.read_text())
    assert set(report) == {"generator", "seed", "n", "D", "scaled", "alpha", "threshold", "pass"}
    assert report["generator"] == "product-self-difference"
    assert report["seed"] == 101
    # same invocation is bit-identical
    again = tmp_path / "values2.csv"
    run_cli(
        capsys, "sample", "--generator", "product-self-difference", "--seed", "101",
        "--n", "2000", "--out", str(again),
    )
    assert again.read_text() == values_path.read_text()


@pytest.mark.parametrize("block", [2**12, mc._BLOCK])
def test_sample_csv_memory_is_the_batch_plus_blocks(block, tmp_path, monkeypatch, capsys):
    # the CSV is written a block of rows at a time, not built whole: about
    # 110 bytes a row of a block on CPython, against ~360 a row of the batch
    monkeypatch.setattr(mc, "_BLOCK", block)
    n = 200_000
    tracemalloc.start()
    try:
        code, _, _ = run_cli(
            capsys, "sample", "--generator", "product-self-difference", "--seed", "101",
            "--n", str(n), "--out", str(tmp_path / "values.csv"),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - 8 * n <= 160 * block


@pytest.fixture(params=[0o022, 0o077, 0o002], ids=lambda m: f"umask{m:03o}")
def umask(request):
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--law", "laplace", "--cells", "64", "--out"],
        ["selfdiff", "--law", "laplace", "--cells", "64", "--out"],
        ["verify-theorem", "--out"],
        ["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--ks-out"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_mode_is_that_of_a_plain_open(argv, umask, tmp_path, capsys):
    # a new file gets 0666 less the umask and an existing file keeps its mode,
    # as open(path, "w") leaves them, though it is written atomically
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, str(path))[0] == 0
    assert _mode(path) == 0o666 & ~umask
    path.chmod(0o640)
    assert run_cli(capsys, *argv, str(path))[0] == 0
    assert _mode(path) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_unallocatable_sample_size_exits_1(capsys):
    # 2^59 doubles are 4 EiB, past any address space: numpy refuses the
    # allocation before touching memory (smaller sizes may be overcommitted)
    n = str(2**59)
    for argv in (
        ("sample", "--generator", "normal-product", "--seed", "1", "--n", n),
        ("verify-theorem", "--with-mc", "--n", n),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: Unable to allocate 4.00 EiB") and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--law", "cauchy"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["density", "--law", "normal", "--cells", "65"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["shape", "--property", "log-convex", "--function", "k0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--half-width", "-1"],
        ["verify-theorem", "--cells", "10"],
        ["verify-theorem", "--tol-shape", "nan"],
        ["verify-theorem", "--with-mc", "--n", "0"],
        ["shape", "--property", "log-convex", "--probes", "2"],
        ["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--ks",
         "--alpha", "2"],
        ["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--ks",
         "--alpha", "nan"],
        ["shape", "--property", "log-convex", "--interval", "5,1"],
        ["shape", "--property", "ratio-monotone", "--interval", "0.1,2,3"],
        ["shape", "--property", "log-convex", "--interval", "0,30"],
        ["mgf", "--t", "nan"],
        ["mgf", "--t", "inf"],
        ["mgf", "--t", ","],
    ],
)
def test_invalid_numeric_values_exit_2(argv, capsys):
    # bad values are usage errors, never reported as verification failures
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


_BAD_VALUES = [
    (["verify-theorem", "--half-width"], "nan", "'nan' is not a positive finite number"),
    (["verify-theorem", "--half-width"], "inf", "'inf' is not a positive finite number"),
    (["verify-theorem", "--half-width"], "-1", "'-1' is not a positive finite number"),
    (["verify-theorem", "--tol-shape"], "x", "'x' is not a positive finite number"),
    (["mgf", "--t", "0", "--tol"], "0", "'0' is not a positive finite number"),
    (["verify-theorem", "--cells"], "nan", "'nan' is not an integer >= 64"),
    (["verify-theorem", "--cells"], "1e3", "'1e3' is not an integer >= 64"),
    (["verify-theorem", "--cells"], "62", "'62' is not an integer >= 64"),
    (["verify-theorem", "--cells"], "65", "cell count must be even"),
    (["verify-theorem", "--n"], "0", "'0' is not an integer >= 1"),
    (["verify-theorem", "--n"], "1.5", "'1.5' is not an integer >= 1"),
    (["shape", "--property", "log-convex", "--probes"], "2", "'2' is not an integer >= 3"),
    (["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--alpha"],
     "1", "'1' is not a number in (0, 1)"),
    (["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--alpha"],
     "nan", "'nan' is not a number in (0, 1)"),
    (["sample", "--generator", "normal-product", "--seed", "1", "--n", "10", "--alpha"],
     "x", "'x' is not a number in (0, 1)"),
    (["shape", "--property", "log-convex", "--interval"], "1,2,3",
     "'1,2,3' is not an interval a,b with 0 < a < b"),
    (["shape", "--property", "log-convex", "--interval"], "2,1",
     "'2,1' is not an interval a,b with 0 < a < b"),
    (["shape", "--property", "log-convex", "--interval"], "1,inf",
     "'1,inf' is not an interval a,b with 0 < a < b"),
    (["shape", "--property", "log-convex", "--interval"], "a,b",
     "'a,b' is not an interval a,b with 0 < a < b"),
    (["mgf", "--t"], "", "bad t-list '': need finite numbers"),
    (["mgf", "--t"], "0,x", "bad t-list '0,x': need finite numbers"),
    (["mgf", "--t"], "0,nan", "bad t-list '0,nan': need finite numbers"),
]


@pytest.mark.parametrize("prefix, value, message", _BAD_VALUES)
def test_bad_value_usage_error_message(prefix, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*prefix, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {prefix[-1]}: {message}\n"), err


def test_unwritable_output_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "density", "--law", "normal",
        "--out", str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_verify_theorem_report_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "verify-theorem", "--out", str(out))
    assert code == 0
    assert "OVERALL: PASS" in stdout
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    assert set(report["parameters"]) == {
        "half_width", "n_cells", "tol_shape", "tol_mgf", "with_mc", "seed_table_id",
    }
    names = [s["step_name"] for s in report["steps"]]
    assert names == [
        "density-identity", "mgf-identity", "mgf-factorization",
        "laplace-identification", "shape-verdicts",
    ]
    for step in report["steps"]:
        assert step["status"] == "pass"
        assert "tol" in step["metrics"] or "tol_shape" in step["metrics"]
    # golden numeric fields at default parameters, compared with tolerances
    metrics = {s["step_name"]: s["metrics"] for s in report["steps"]}
    assert metrics["density-identity"]["max_rel_err"] <= 1e-12
    assert metrics["laplace-identification"]["sup_node_distance"] == pytest.approx(
        8.43e-4, rel=0.2
    )
    assert set(metrics["mgf-factorization"]) == {
        "max_abs_err", "max_abs_err_conditioning_route", "tol",
    }
    assert set(metrics["shape-verdicts"]) == {
        "product_fails", "self_difference_holds", "laplace_holds",
        "k0_log_convex_holds", "k_ratio_increasing_holds",
        "k0_log_convex_double_range_holds", "k_ratio_increasing_double_range_holds",
        "tol_shape", "tol_convexity", "product_witness_violation", "product_witness_m",
    }
    assert metrics["shape-verdicts"]["product_fails"] == 1.0
    assert metrics["shape-verdicts"]["product_witness_violation"] == pytest.approx(
        1.0912, rel=1e-3
    )


def test_verify_theorem_coarse_grid_names_failing_step(capsys):
    code, stdout, _ = run_cli(capsys, "verify-theorem", "--cells", "64")
    assert code == 1
    assert "first failing step: laplace-identification" in stdout
    assert "sup_node_distance" in stdout


def test_verify_theorem_tolerance_abuse_fails_shape_step(capsys):
    code, stdout, _ = run_cli(capsys, "verify-theorem", "--tol-shape", "1e-20")
    assert code == 1
    assert "[FAIL] shape-verdicts" in stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds ~0.7 s to every CLI start; lclab needs scipy.special only
    code = "import sys, lclab, lclab.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: grid CSV nodes: not finite, or spanning more than a finite grid width
OVERFLOWING_NODES = {
    "minus-inf-2": "-inf,1\n1,1",
    "minus-inf-4": "-inf,1\n-1,1\n1,1\n3,1",
    "nan": "nan,1\n1,1",
    "1e308-2": "-1e308,1\n1e308,1",
    "1e308-4": "-1e308,1\n-3.3333333333333333e307,1\n3.3333333333333333e307,1\n1e308,1",
    "8e307-2": "-8e307,1\n8e307,1",
}


@pytest.mark.parametrize("rows", list(OVERFLOWING_NODES.values()), ids=list(OVERFLOWING_NODES))
def test_grid_csv_with_overflowing_nodes_exits_1(rows, tmp_path, capsys):
    # one clean error each; a numpy warning would be an error here
    grid_path = tmp_path / "wide.csv"
    grid_path.write_text(f"x,density\n{rows}\n")
    for command in ("selfdiff", "shape --property log-concave"):
        code, out, err = run_cli(capsys, *command.split(), "--in", str(grid_path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("law", ["laplace", "normal-product", "normal"])
def test_density_overflowing_half_width_exits_1(law):
    # at 1e308, 2 * half_width overflows to inf; at 1e200, x * x does in the
    # normal pdf.  Each must be one clean error, with no numpy warning
    for half_width in ("1e308", "1e200"):
        proc = subprocess.run(
            [sys.executable, "-m", "lclab", "density", "--law", law, "--half-width",
             half_width, "--cells", "64"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, half_width
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("law", ["laplace", "normal-product", "normal"])
@pytest.mark.parametrize("half_width", ["1e-300", "1e-306", "1e-308", "1e-310"])
@pytest.mark.parametrize("cells", ["64", "4096"])
def test_density_tiny_half_width_is_unit_mass_or_exits_1(law, half_width, cells, tmp_path, capsys):
    # unit-mass values sum to 1/step, past the double range below ~cells * 2.8e-309;
    # a grid either comes out of density and selfdiff with unit mass or is one
    # clean error (warnings are errors under pytest, so none may leak)
    grid_path = tmp_path / "grid.csv"
    code, _, err = run_cli(
        capsys, "density", "--law", law, "--half-width", half_width, "--cells", cells,
        "--out", str(grid_path),
    )
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert not grid_path.exists()
        return
    assert code == 0
    assert dist.GridDensity.from_csv(grid_path.read_text()).mass == pytest.approx(1.0, abs=1e-12)
    code, out, err = run_cli(capsys, "selfdiff", "--in", str(grid_path))
    assert code == 0, err
    assert dist.GridDensity.from_csv(out).mass == pytest.approx(1.0, abs=1e-12)


def test_ratio_check_near_zero_exits_1_without_a_warning():
    # k1e overflows below ~1e-308: the check must fail cleanly, not pass
    # while skipping every probe whose ratio is not finite
    proc = subprocess.run(
        [sys.executable, "-m", "lclab", "shape", "--property", "ratio-monotone",
         "--interval", "1e-320,1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "RuntimeWarning" not in proc.stderr
