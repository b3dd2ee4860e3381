import json
import math

import numpy as np
import pytest

from lclab import dist
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


def test_mgf_divergent_t_exits_1(capsys):
    code, _, err = run_cli(capsys, "mgf", "--law", "normal-product", "--t", "1.5")
    assert code == 1
    assert "diverges" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--half-width", "-1"],
        ["verify-theorem", "--cells", "10"],
        ["verify-theorem", "--tol-shape", "nan"],
        ["verify-theorem", "--with-mc", "--n", "0"],
        ["shape", "--property", "log-convex", "--probes", "2"],
    ],
)
def test_invalid_numeric_values_exit_2(argv, capsys):
    # bad values are usage errors, never reported as verification failures
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


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
