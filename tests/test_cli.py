"""Command-line behavior: outputs, exit codes, byte-identical files."""

from __future__ import annotations

import json

import pytest

import scaleroute as sr
from scaleroute.cli import run
from scaleroute.harness import VerificationReport

PIGOU_RAW = {
    "nodes": ["1", "2"],
    "links": [
        {"id": "L1", "tail": "1", "head": "2", "a": 1.0, "h": 1.0, "b": 0.0},
        {"id": "L2", "tail": "1", "head": "2", "a": 0.001, "h": 0.001, "b": 1.0},
    ],
    "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
}


@pytest.fixture()
def pigou_file(tmp_path):
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(PIGOU_RAW), encoding="utf-8")
    return str(path)


def _value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return float(line.split(":", 1)[1].split()[0])
    raise AssertionError(f"{key!r} not found in output:\n{out}")


class TestValidate:
    def test_ok(self, pigou_file, capsys):
        assert run(["validate", "--instance", pigou_file]) == 0
        out = capsys.readouterr().out
        assert "2 links" in out and "2 paths" in out

    def test_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(PIGOU_RAW, extra=1)), encoding="utf-8")
        assert run(["validate", "--instance", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate", "--instance", str(tmp_path / "none.json")]) == 1

    @pytest.mark.parametrize("command", ["validate", "play"])
    def test_nan_coefficient_rejected(self, tmp_path, capsys, command):
        links = [dict(PIGOU_RAW["links"][0], b=float("nan")), PIGOU_RAW["links"][1]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(PIGOU_RAW, links=links)), encoding="utf-8")
        assert '"b": NaN' in path.read_text(encoding="utf-8")
        assert run([command, "--instance", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err


class TestBound:
    def test_value_and_region(self, capsys):
        assert run(["bound", "--alpha", "0.5", "--mu", "0.3333333"]) == 0
        out = capsys.readouterr().out
        assert "region: A_lambda_star" in out
        assert abs(_value(out, "bound") - 2.0) <= 1e-5

    def test_domain_error_exit(self, capsys):
        assert run(["bound", "--alpha", "1.5", "--mu", "0.5"]) == 1

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "bound.csv"
        assert run(["bound", "--alpha", "0.3", "--mu", "0.1", "--out", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("alpha,mu,region,bound,expression\n")
        assert ",inf," in text  # alpha = 0.3 < alpha0(0.1): vacuous region


class TestPlay:
    def test_pigou_summary(self, pigou_file, capsys):
        assert run(["play", "--instance", pigou_file, "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert abs(_value(out, "optimal cost") - 0.75) <= 2e-2
        assert abs(_value(out, "induced cost") - 0.8125) <= 2e-2
        assert abs(_value(out, "empirical poa") - 1.083) <= 2e-2

    def test_alpha_zero_is_validation_error(self, pigou_file, capsys):
        assert run(["play", "--instance", pigou_file, "--alpha", "0"]) == 1


class TestSolvers:
    def test_solve_optimal(self, pigou_file, tmp_path, capsys):
        out_path = tmp_path / "opt.csv"
        assert run(["solve-optimal", "--instance", pigou_file, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert abs(_value(out, "optimal social cost") - 0.75) <= 1e-2
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "link,flow_a,flow_h,latency"
        assert len(lines) == 3

    def test_solve_nash_all_human(self, pigou_file, capsys):
        assert run(["solve-nash", "--instance", pigou_file]) == 0
        out = capsys.readouterr().out
        assert abs(_value(out, "equilibrium social cost") - 1.0) <= 1e-2

    def test_non_convergence_exit(self, tmp_path, capsys):
        raw = {
            "nodes": ["1", "2"],
            "links": [
                {"id": "a", "tail": "1", "head": "2", "a": 1.0, "h": 1.0, "b": 0.0},
                {"id": "b", "tail": "1", "head": "2", "a": 2.0, "h": 2.0, "b": 0.05},
                {"id": "c", "tail": "1", "head": "2", "a": 3.0, "h": 3.0, "b": 0.1},
            ],
            "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
        }
        path = tmp_path / "uneven.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code = run(["solve-nash", "--instance", str(path), "--max-iter", "1", "--tol", "1e-16"])
        assert code == 2


class TestCurves:
    def test_mu_one_matches_single_class(self, tmp_path):
        out_path = tmp_path / "c.csv"
        assert run(["curves", "--kind", "poa-bounds", "--mu", "1.0", "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "series,x,y"
        for line in lines[1:]:
            series, x, y = line.split(",")
            if series.startswith("alpha0"):
                continue
            alpha, value = float(x), float(y)
            assert abs(value - sr.poa_bound_single_class(alpha)) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["curves", "--kind", "omega-vs-lambda", "--alpha", "0.4", "--mu", "0.6"]
        assert run(argv + ["--out", str(p1)]) == 0
        assert run(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_custom_grid(self, capsys):
        assert run(["curves", "--kind", "poa-bounds", "--mu", "0.5", "--grid", "0.1:0.9:0.4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "series,x,y"
        assert len(lines) == 1 + 3  # grid 0.1, 0.5, 0.9


class TestVerify:
    def test_small_batch(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        assert run(["verify", "--count", "10", "--seed", "0", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "fail: 0" in out
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "seed,alpha,mu,poa_emp,poa_bound,region,margin,certified,status"
        assert len(lines) == 11

    def test_seed_reaches_solver(self, monkeypatch, capsys):
        captured = []

        def fake_verify_bounds(config):
            captured.append(config)
            return VerificationReport(rows=())

        monkeypatch.setattr("scaleroute.cli.verify_bounds", fake_verify_bounds)
        assert run(["verify", "--count", "3", "--seed", "7"]) == 0
        (config,) = captured
        assert config.base_seed == 7
        assert config.solver.seed == 7


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 64

    def test_missing_required(self, capsys):
        assert run(["bound", "--alpha", "0.5"]) == 64

    def test_bad_grid(self, capsys):
        assert run(["curves", "--kind", "poa-bounds", "--grid", "oops"]) == 64

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "--count", "-5"], "count"),
            (["verify", "--jobs", "-3"], "jobs"),
            (["verify", "--count", "2", "--tol", "nan"], "relative_gap_tol"),
            (["play", "--tol", "-1"], "relative_gap_tol"),
            (["solve-optimal", "--max-iter", "0"], "max_iterations"),
            (["verify", "--alpha", "1.5"], "alpha"),
            (["verify", "--mu-min", "0"], "mu_min"),
        ],
        ids=["count", "jobs", "tol-nan", "tol-negative", "max-iter", "alpha", "mu-min"],
    )
    def test_config_out_of_range(self, argv, field, pigou_file, capsys):
        if argv[0] != "verify":
            argv = [*argv, "--instance", pigou_file]
        assert run(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and field in line

    def test_bad_kind(self, capsys):
        assert run(["curves", "--kind", "nope"]) == 64

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--kind", "poa-bounds", "--mu", "abc"], 64),
            (["--kind", "poa-bounds", "--mu", "0.5,,0.7"], 64),
            (["--kind", "omega-vs-gamma", "--alpha", "0"], 1),
            (["--kind", "omega-vs-gamma", "--lam", "nan"], 1),
            (["--kind", "poa-bounds", "--grid", "nan:1:0.1"], 64),
            (["--kind", "poa-bounds", "--grid", "0:inf:0.1"], 64),
            # rejected before any allocation: 1e36 points
            (["--kind", "poa-bounds", "--grid", "0:1e30:1e-6"], 64),
        ],
        ids=["mu-not-a-number", "mu-empty-entry", "alpha-zero", "lam-nan", "grid-nan", "grid-inf",
             "grid-too-large"],
    )
    def test_bad_curve_input(self, argv, code, capsys):
        assert run(["curves", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
