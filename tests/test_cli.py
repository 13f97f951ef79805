import csv
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from access_time.chains import ChainSpecError
from access_time.cli import build_parser, main, parse_dist_shorthand


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- distribution shorthand ---------------------------------------------------


def test_shorthand_grammar():
    assert parse_dist_shorthand("uniform").kind == "uniform"
    assert parse_dist_shorthand("stationary").kind == "stationary"
    d = parse_dist_shorthand("dirac:3")
    assert d.kind == "dirac" and d.at == 3
    assert parse_dist_shorthand("dirac:101").at == 101  # integer label wins
    b = parse_dist_shorthand("binomial:0.2")
    assert b.kind == "binomial" and b.p == 0.2
    with pytest.raises(ChainSpecError):
        parse_dist_shorthand("gauss:1")
    with pytest.raises(ChainSpecError):
        parse_dist_shorthand("binomial:high")


def test_hypercube_dirac_bit_strings_keep_leading_zeros(capsys):
    cube = '{"family":"hypercube","n":4}'

    def value(mu, nu):
        code, out, err = run_cli(capsys, "compute", "--chain", cube, "--mu", mu, "--nu", nu)
        assert code == 0, err
        return json.loads(out)["value"]

    assert parse_dist_shorthand("dirac:0011").at == "0011"
    by_label = value("dirac:0000", "dirac:0011")
    assert by_label == value("dirac:0", "dirac:3")
    assert by_label == pytest.approx(56.0 / 3.0, rel=1e-9)
    assert value("dirac:0000", "dirac:0101") == pytest.approx(56.0 / 3.0, rel=1e-9)


@pytest.mark.parametrize("d, bits", [(3, "101"), (4, "1010")])
def test_hypercube_dirac_bit_strings_starting_with_one(capsys, d, bits):
    cube = json.dumps({"family": "hypercube", "n": d})

    def run(mu):
        code, out, err = run_cli(capsys, "compute", "--chain", cube, "--mu", mu, "--nu", "uniform")
        assert code == 0, err
        return json.loads(out)

    assert run(f"dirac:{bits}") == run(f"dirac:{int(bits, 2)}")


def test_shorthand_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"kind": "explicit", "weights": [1, 2, 1]}))
    d = parse_dist_shorthand(f"file:{path}")
    assert d.kind == "explicit" and d.weights == (1.0, 2.0, 1.0)
    with pytest.raises(ChainSpecError, match="cannot read"):
        parse_dist_shorthand("file:/nonexistent.json")


# --- compute --------------------------------------------------------------------


def test_compute_path_worst_case(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--chain", '{"family":"path","n":10}', "--mu", "dirac:0",
        "--nu", "dirac:10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(100.0, rel=1e-9)
    assert payload["argmax_target"] == 10
    assert len(payload["per_target"]) == 11


def test_compute_complete_with_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--chain", '{"family":"complete","n":3}', "--mu", "uniform",
        "--nu", "dirac:2", "--closed-form",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.25, rel=1e-9)
    report = payload["family_report"]
    assert report["exact"] == pytest.approx(2.25, rel=1e-12)
    assert report["best_dirac"] == 2
    assert "erratum_flag" not in report  # birth-death only


def test_compute_identical_distributions(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--chain", '{"family":"star","n":4}', "--mu", "uniform",
        "--nu", "uniform",
    )
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_compute_bd_closed_form_carries_erratum_fields(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--chain", '{"family":"birth_death","n":10,"p":0.3}',
        "--mu", "dirac:9", "--nu", "dirac:1", "--closed-form",
    )
    assert code == 0
    report = json.loads(out)["family_report"]
    assert report["erratum_flag"] is True
    assert report["mirror_corrected"] == pytest.approx(report["solver_value"], rel=1e-9)


def test_compute_validation_exit_codes(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--chain", '{"family":"nope","n":3}', "--mu", "uniform",
        "--nu", "uniform",
    )
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(
        capsys, "compute", "--chain", 'not json', "--mu", "uniform", "--nu", "uniform",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "compute", "--chain", '{"family":"hypercube","n":3}', "--mu",
        "binomial:0.4", "--nu", "uniform",
    )
    assert code == 2 and "integer" in err
    code, _, err = run_cli(
        capsys, "compute", "--chain", '{"family":"graph","edges":[[0,1],[2,3]]}',
        "--mu", "uniform", "--nu", "uniform",
    )
    assert code == 2 and "disconnected" in err


def test_closed_form_flag_rejected_without_formula(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--chain", '{"family":"hypercube","n":2}', "--mu", "uniform",
        "--nu", "dirac:0", "--closed-form",
    )
    assert code == 2 and "closed-form" in err


# --- gen and bounds -----------------------------------------------------------------


def test_gen_diagnostics_and_matrix_csv(capsys, tmp_path):
    out_csv = tmp_path / "chain.csv"
    code, out, _ = run_cli(
        capsys, "gen", "--chain", '{"family":"path","n":2}', "--out", str(out_csv)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 3
    assert payload["diagnostics"]["irreducible"] is True
    assert payload["diagnostics"]["period"] == 2
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state", "0", "1", "2"]
    assert [float(x) for x in rows[1][1:]] == [0.0, 1.0, 0.0]


def test_bounds_json_and_hitting_csv(capsys, tmp_path):
    out_csv = tmp_path / "hitting.csv"
    code, out, _ = run_cli(
        capsys, "bounds", "--chain", '{"family":"path","n":10}', "--out", str(out_csv)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_hitting"] == pytest.approx(100.0, rel=1e-9)
    assert payload["argmax_pair"] == [0, 10]
    assert payload["connected_graph_bound"] == 1100.0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 12  # header plus 11 states
    assert float(rows[1][11]) == pytest.approx(100.0, rel=1e-9)


# --- verify -----------------------------------------------------------------------------


def test_verify_winning_streak_passes(capsys, tmp_path):
    out_csv = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--family", "winning_streak", "--n", "2..12", "--trials", "20",
        "--seed", "7", "--out", str(out_csv),
    )
    assert code == 0
    assert "0 FAIL" in out and "0 ERRATUM" in out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "family"
    assert len(rows) == 1 + 11 * 20
    assert all(row[4] == "PASS" for row in rows[1:])


def test_verify_birth_death_erratum_is_expected(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "birth_death", "--n", "2..12", "--trials", "20",
        "--seed", "7", "--p", "0.3",
    )
    assert code == 0  # ERRATUM rows do not fail the run
    assert "0 FAIL" in out


def test_verify_rejects_bound_only_family(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "hypercube", "--n", "3")
    assert code == 2 and "closed form" in err


# --- scale ------------------------------------------------------------------------------


def test_scale_path_exponent_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "scale", "--families", "path,complete,star", "--n", "16,32,64,128",
        "--out", str(out_csv),
    )
    assert code == 0
    summary = {e["family"]: e for e in json.loads(out)["summary"]}
    assert summary["path"]["exponent"] == pytest.approx(2.0, abs=1e-6)
    assert summary["complete"]["exponent"] == pytest.approx(1.0, abs=1e-6)
    assert summary["star"]["exponent"] == pytest.approx(1.0, abs=1e-6)
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        H = float(row["H"])
        slack = 1e-9 * max(1.0, H)
        assert float(row["bound_lower"]) <= H + slack
        assert H <= float(row["bound_upper"]) + slack
        if row["family"] == "path":
            assert H == pytest.approx(float(row["n"]) ** 2, rel=1e-9)


def test_scale_ws_ratio_summary(capsys):
    code, out, _ = run_cli(
        capsys, "scale", "--families", "winning_streak", "--n", "5..20",
        "--scenario", "paper_example",
    )
    assert code == 0
    entry = json.loads(out)["summary"][0]
    # H / 2^(n-1) tends to 1 so H / 2^n tends to 1/2
    assert 0.5 <= entry["ratio_to_pow2_min"] <= entry["ratio_to_pow2_max"] <= 0.6


def test_scale_deterministic_modulo_wall_time(capsys, tmp_path):
    args = [
        "scale", "--families", "path,winning_streak", "--n", "4..10",
        "--scenario", "random_pair", "--seed", "33",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()

    def strip_wall(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert strip_wall(a) == strip_wall(b)


def test_scale_validation(capsys):
    code, _, err = run_cli(capsys, "scale", "--families", "winning_streak", "--n", "50")
    assert code == 2 and "cap" in err
    code, _, err = run_cli(
        capsys, "scale", "--families", "path", "--n", "8", "--scenario", "sideways"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "scale", "--families", "birth_death", "--n", "8",
        "--scenario", "random_pair",
    )
    assert code == 2 and "refused" in err
    code, _, err = run_cli(
        capsys, "scale", "--families", "complete", "--n", "8",
        "--scenario", "paper_example",
    )
    assert code == 2


def test_scale_worst_dirac_above_cutoff_uses_known_pair(capsys, tmp_path):
    out_csv = tmp_path / "big.csv"
    code, out, _ = run_cli(
        capsys, "scale", "--families", "path,complete", "--n", "512", "--out", str(out_csv)
    )
    assert code == 0
    assert json.loads(out)["rows"] == 2
    with open(out_csv, newline="") as fh:
        rows = {r["family"]: r for r in csv.DictReader(fh)}
    H = float(rows["path"]["H"])
    assert H == pytest.approx(512.0**2, rel=1e-9)
    slack = 1e-9 * H
    assert float(rows["path"]["bound_lower"]) <= H + slack
    assert H <= float(rows["path"]["bound_upper"]) + slack
    assert float(rows["complete"]["H"]) == pytest.approx(512.0, rel=1e-9)


def test_verify_ws_full_cap(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "winning_streak", "--n", "40", "--trials", "10",
        "--seed", "2",
    )
    assert code == 0 and "0 FAIL" in out


# --- simulate ---------------------------------------------------------------------------


def test_simulate_cli(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--chain", '{"family":"star","n":4}', "--mu", "dirac:0",
        "--nu", "dirac:0", "--samples", "2000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean_T"] == 0.0
    assert payload["theoretical_mean"] == 0.0
    assert payload["samples"] == 2000


def test_simulate_cli_writes_file(capsys, tmp_path):
    out_json = tmp_path / "sim.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--chain", '{"family":"complete","n":3}', "--mu", "dirac:0",
        "--nu", "uniform", "--samples", "20000", "--seed", "5", "--out", str(out_json),
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["theoretical_mean"] == pytest.approx(2.25, rel=1e-12)
    assert abs(payload["mean_T"] - 2.25) <= 4 * payload["stderr"]


def test_simulate_cli_rejects_small_sample(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--chain", '{"family":"complete","n":3}', "--mu", "uniform",
        "--nu", "uniform", "--samples", "10",
    )
    assert code == 2 and "at least" in err


def test_simulate_cli_refuses_hopeless_run_at_once(capsys):
    # about 1e10 expected steps per walk: the run would never finish
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "simulate", "--chain", '{"family":"birth_death","n":4,"p":1e-9}',
        "--mu", "dirac:0", "--nu", "dirac:4", "--samples", "1000", "--seed", "1",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "expected steps" in err


# --- console entry point -------------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "access_time.cli", "compute", "--chain",
         '{"family":"complete","n":3}', "--mu", "dirac:0", "--nu", "uniform"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.75, rel=1e-9)


def test_verify_stiff_birth_death_has_no_failures(capsys):
    # at p = 1e-12 the holding probability is 1 - 2e-12; the solver must not
    # lose the rate to cancellation and then blame the formula
    code, out, _ = run_cli(
        capsys, "verify", "--family", "birth_death", "--n", "40", "--trials", "40",
        "--p", "1e-12", "--seed", "3",
    )
    assert code == 0
    assert "0 FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "--families", "path", "--n", "abc"],
        ["verify", "--family", "path", "--n", "2..x"],
        ["gen", "--chain", '{"family":"path","n":"x"}'],
        ["gen", "--chain", '{"family":"path","n":2.5}'],
        ["gen", "--chain", '{"family":"path","n":true}'],
        ["gen", "--chain", '{"family":"birth_death","n":4,"p":"0.3"}'],
        ["gen", "--chain", '{"family":"graph","edges":[[0,1],[0,"a"]]}'],
        ["gen", "--chain", '{"family":"graph","edges":[[0,1,2]]}'],
        ["gen", "--chain", '{"family":"graph","edges":[[0,1],3]}'],
    ],
)
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_without_trials_exits_2(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--family", "path", "--n", "3", "--trials", trials)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_verify_with_a_meaningless_tolerance_exits_2(capsys, tol):
    # NaN and negative tolerances fail every trial, and inf passes any value
    code, out, err = run_cli(
        capsys, "verify", "--family", "path", "--n", "3", "--trials", "2", f"--tol={tol}"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--chain", '{"family":"path","n":3}', "--mu", "dirac:0", "--nu", "dirac:3",
         "--samples", "1000", "--seed", "-1"],
        ["simulate", "--chain", '{"family":"path","n":3}', "--mu", "dirac:0", "--nu", "dirac:3",
         "--samples", "1000", "--seed", str(2**128)],
        ["verify", "--family", "path", "--n", "3", "--trials", "2", "--seed", "-1"],
        ["scale", "--families", "path", "--n", "3", "--scenario", "random_pair", "--seed", "-1"],
    ],
    ids=["simulate-negative", "simulate-2**128", "verify-negative", "scale-negative"],
)
def test_seed_out_of_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "seed" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "explicit", "weights": ["a", 1, 1, 1]},
        {"kind": "binomial", "p": "x"},
        {"kind": "explicit", "weights": 5},
    ],
)
def test_compute_malformed_distribution_file_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        capsys, "compute", "--chain", '{"family":"path","n":3}', "--mu", f"file:{path}",
        "--nu", "uniform",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_parser_is_built_once_and_reused_unchanged(capsys):
    argv = ["compute", "--chain", '{"family":"path","n":6}', "--mu", "dirac:0", "--nu", "uniform"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second and first[0] == 0
    assert build_parser() is build_parser()


def test_argparse_error_leaves_the_next_call_unaffected(capsys):
    argv = ["compute", "--chain", '{"family":"path","n":6}', "--mu", "dirac:0", "--nu", "uniform"]
    clean = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--bogus", "1"])
    assert exc.value.code == 2 and "--bogus" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == clean


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--chain", '{"family":"path","n":2}'],
        ["bounds", "--chain", '{"family":"path","n":2}'],
        ["verify", "--family", "path", "--n", "3", "--trials", "2"],
        ["scale", "--families", "path", "--n", "3"],
        ["simulate", "--chain", '{"family":"path","n":2}', "--mu", "dirac:0", "--nu", "dirac:2",
         "--samples", "1000"],
    ],
    ids=["gen", "bounds", "verify", "scale", "simulate"],
)
def test_unwritable_out_path_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "dir" / "x.out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails writes")
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--chain", '{"family":"path","n":200}'],
        ["simulate", "--chain", '{"family":"path","n":2}', "--mu", "dirac:0", "--nu", "dirac:2",
         "--samples", "1000"],
    ],
    ids=["csv", "json"],
)
def test_failed_write_to_out_exits_2(capsys, argv):
    # /dev/full opens, then every write fails with ENOSPC
    code, stdout, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "family, n, fit_key",
    [("winning_streak", "8", "log2_slope"), ("path", "8,8", "exponent")],
)
def test_scale_fits_no_curve_through_one_size(capsys, family, n, fit_key):
    code, out, err = run_cli(capsys, "scale", "--families", family, "--n", n)
    assert code == 0 and err == ""
    entry = json.loads(out)["summary"][0]
    assert fit_key not in entry
    if family == "winning_streak":  # H / 2^n needs no fit: E_1[tau_8] = 2^8 - 2
        assert entry["ratio_to_pow2_min"] == entry["ratio_to_pow2_max"] == 254 / 256
