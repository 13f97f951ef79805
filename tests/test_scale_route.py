"""``scale`` reads every row off one hitting column, never the hitting matrix.

``max_hitting`` is the column entry at the family's extremal Dirac pair,
worst_dirac takes that entry as H, and random_pair / paper_example take H
from ``access_time``.  The enumeration over every Dirac pair that
``max_hitting_time`` performs is the oracle here.
"""
import csv
import json
from unittest import mock

import pytest

from access_time import ChainSpec, build_chain, hitting_time_to, max_hitting_time
from access_time.chains import FAMILIES
from access_time.cli import _extremal_pair, _family_spec, main
from oracles import cube_antipodal_exact

SIZES = list(range(1, 25)) + [40, 64, 65]
SCALE_FAMILIES = {
    "path": SIZES,
    "birth_death": SIZES,
    "star": SIZES,
    "complete": SIZES,
    "winning_streak": list(range(1, 25)) + [40],  # capped at n = 40
    "hypercube": list(range(1, 8)),
}


def test_every_family_scale_builds_from_n_is_covered():
    assert set(SCALE_FAMILIES) == set(FAMILIES) - {"graph"}


@pytest.mark.parametrize("family", sorted(SCALE_FAMILIES))
def test_extremal_pair_attains_the_maximal_hitting_time(family):
    for n in SCALE_FAMILIES[family]:
        chain = build_chain(_family_spec(family, n, 0.3))
        i, j = _extremal_pair(family, chain.size)
        entry = float(hitting_time_to(chain, j)[i])
        oracle, _ = max_hitting_time(chain)
        assert abs(entry - oracle) <= 1e-12 * max(1.0, oracle), (family, n)


def _sweep(capsys, tmp_path, *args):
    out = tmp_path / "sweep.csv"
    code = main(["scale", *args, "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    with open(out, newline="") as fh:
        return code, summary, list(csv.DictReader(fh))


@pytest.fixture
def no_hitting_matrix():
    refuse = mock.Mock(side_effect=AssertionError("hitting matrix built"))
    with mock.patch("access_time.cli.hitting_time_matrix", refuse), mock.patch(
        "access_time.access.hitting_time_matrix", refuse
    ), mock.patch("access_time.hitting.hitting_time_matrix", refuse):
        yield refuse


#: the maximal hitting time of each family at size n (birth-death at p = 0.3)
MAX_HITTING = {
    "path": lambda n: n * n,
    "birth_death": lambda n: n * (n + 1) / 0.6,
    "star": lambda n: 2 * n,
    "complete": lambda n: n,
    "winning_streak": lambda n: 2.0**n - 2,
    "hypercube": lambda n: float(cube_antipodal_exact(n)),
}


@pytest.mark.parametrize(
    "families, sizes",
    [
        ("path,birth_death,star,complete", "8,64,65,66,70"),
        ("winning_streak", "2,8,40"),
        ("hypercube", "3,6,7"),
    ],
)
def test_worst_dirac_builds_no_hitting_matrix_at_any_size(
    capsys, tmp_path, no_hitting_matrix, families, sizes
):
    code, summary, rows = _sweep(capsys, tmp_path, "--families", families, "--n", sizes,
                                 "--p", "0.3")
    assert code == 0 and not no_hitting_matrix.called
    assert summary["rows"] == len(rows) == len(families.split(",")) * len(sizes.split(","))
    for row in rows:
        expected = MAX_HITTING[row["family"]](int(row["n"]))
        assert float(row["H"]) == float(row["max_hitting"])
        assert float(row["H"]) == pytest.approx(expected, rel=1e-9)


def test_random_pair_reads_h_off_the_scan(capsys, tmp_path, no_hitting_matrix):
    code, summary, rows = _sweep(
        capsys, tmp_path, "--families", "path,complete,star,hypercube", "--n", "3,6",
        "--scenario", "random_pair", "--seed", "5",
    )
    assert code == 0 and not no_hitting_matrix.called
    assert summary["rows"] == len(rows) == 8
    for row in rows:
        H, slack = float(row["H"]), 1e-9 * max(1.0, float(row["max_hitting"]))
        assert float(row["bound_lower"]) - slack <= H <= float(row["bound_upper"]) + slack
        assert H <= float(row["max_hitting"]) + slack


def test_one_leaf_star_sweeps(capsys, tmp_path):
    code, _, rows = _sweep(capsys, tmp_path, "--families", "star", "--n", "1")
    assert code == 0
    (row,) = rows
    assert float(row["H"]) == float(row["max_hitting"]) == pytest.approx(1.0, rel=1e-12)


def test_extremal_pair_of_the_one_leaf_star_is_in_range():
    chain = build_chain(ChainSpec("star", n=1))
    assert _extremal_pair("star", chain.size) == (0, 1)
