"""The dense solver refuses only times past the float range, and both routes read
one zero-sum d.

A column that is not finite (an overflowing step time, or a pivot of the
rooted state reduction that underflows to 0 and a regular system whose
times pass 2**1024) is refused as out of the float range:
``hitting_time_to`` raises a ``LinAlgError`` naming the target (exit code
3 on the command line, with one line on stderr and no NumPy warning)
rather than handing a bad column to the transport scan.  Stiff chains on
which a partial-pivoted LU met an exactly zero pivot, or lost every
digit, are solved to the exact answer.  And since the Kemeny-Snell scan
needs sum(mu - nu) = 0, ``transport_scan`` and the matrix route of
``access_time`` both evaluate mu - nu as projected by ``zero_sum``.
"""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from access_time import (
    ProbabilityVector,
    TransitionMatrix,
    access,
    access_time,
    hitting,
    hitting_time_matrix,
    hitting_time_to,
    stationary_distribution,
    transport_scan,
)
from access_time.cli import main
from access_time.hitting import zero_sum
from conftest import dirac
from oracles import fraction_hitting_matrix
from test_hitting import assert_within_column_bounds


def _chain(rates, N):
    """Chain with off-diagonal rates ``{(i, j): p_ij}``, holding the rest."""
    rows = np.zeros((N, N))
    for (i, j), rate in rates.items():
        rows[i, j] = rate
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    return rows


def _dyadic(rates, N):
    """``_chain`` of the rates m * 2**-e given as ``{(i, j): (m, e)}``."""
    return _chain({k: m * 2.0**-e for k, (m, e) in rates.items()}, N)


def _rooted_tol(N):
    """The relative error a rooted column is held to: N^2 eps, 2N times the worst
    seen, 0.49 N eps, over 900 seeded stiff chains of 3 to 15 states."""
    return Fraction(N * N * hitting.EPS)


def assert_exact_columns(rows, columns, targets=None):
    """Each of ``columns`` (column c the one to ``targets[c]``, every target by
    default) is within ``_rooted_tol`` of the exact times, entrywise."""
    N = len(rows)
    exact = fraction_hitting_matrix(rows)
    for c, target in enumerate(range(N) if targets is None else targets):
        assert columns[target, c] == 0.0
        for i in range(N):
            error = abs(Fraction(columns[i, c]) - exact[i][target])
            assert error <= _rooted_tol(N) * exact[i][target], (i, target)


#: rates m * 2**-e as {(i, j): (m, e)}: a partial-pivoted LU met an exactly
#: zero pivot on target 3
SINGULAR_LU = {
    (0, 1): (50, 30), (0, 4): (177, 12), (1, 0): (88, 15), (1, 2): (193, 30),
    (2, 0): (194, 18), (2, 1): (171, 40), (2, 3): (186, 34), (2, 4): (106, 13),
    (3, 2): (70, 25), (3, 4): (131, 16), (4, 0): (231, 35),
}


def test_chain_where_lu_met_a_zero_pivot_is_solved_exactly():
    rows = _dyadic(SINGULAR_LU, 5)
    chain = TransitionMatrix(rows)
    columns = np.column_stack([hitting_time_to(chain, target) for target in range(5)])
    assert_exact_columns(rows, columns)
    M = hitting_time_matrix(chain)
    assert_within_column_bounds(M.values, fraction_hitting_matrix(rows), M.column_bound)
    mu = ProbabilityVector([0.25, 0.25, 0.25, 0.25, 0.0])
    nu = ProbabilityVector([0.0, 0.0, 0.0, 0.5, 0.5])
    with mock.patch.object(access, "SCAN_GATE", 0.0):
        result = access_time(chain, mu, nu)
    assert result.route == "matrix"
    E = fraction_hitting_matrix(rows)
    d = [Fraction(float(a)) - Fraction(float(b)) for a, b in zip(mu.weights, nu.weights)]
    exact = max(sum(d[i] * E[i][j] for i in range(5)) for j in range(5))
    assert abs(Fraction(result.value) - exact) <= 1e-10 * abs(exact)


#: a tridiagonal chain as {(i, j): e} for the rate 2**-e: partial-pivoted
#: LU, banded or dense, met an exactly zero pivot on target 0
SINGULAR_BANDED = {
    (0, 1): 11, (1, 0): 11, (1, 2): 11, (2, 1): 28, (2, 3): 10, (3, 2): 44,
    (3, 4): 10, (4, 3): 11,
}


def test_tridiagonal_chain_where_lu_met_a_zero_pivot_is_solved_exactly():
    rows = _chain({k: 2.0**-e for k, e in SINGULAR_BANDED.items()}, 5)
    chain = TransitionMatrix(rows)
    assert chain.bandwidth == (1, 1)
    # the rooted reduction, which the chain would take were it wider, gets it too
    assert_exact_columns(rows, np.column_stack([hitting._rooted_column(chain, t) for t in range(5)]))
    exact = fraction_hitting_matrix(rows)
    M = hitting_time_matrix(chain)
    assert np.array_equal(M.column_bound, np.full(5, 15 * hitting.EPS))
    for target in range(5):
        h = hitting_time_to(chain, target)
        assert np.array_equal(h, M.values[:, target]) and h[target] == 0.0
        for i in range(5):
            error = abs(Fraction(h[i]) - exact[i][target])
            assert error <= Fraction(M.column_bound[target]) * exact[i][target], (i, target)


def test_tridiagonal_overflow_is_refused_not_returned():
    # 1 - 2**-1074 rounds to 1, and the one step up takes 2**1074 steps
    chain = TransitionMatrix(np.array([[1.0 - 2.0**-1074, 2.0**-1074], [0.5, 0.5]]))
    with pytest.raises(np.linalg.LinAlgError, match="target 1"):
        hitting_time_to(chain, 1)
    with pytest.raises(np.linalg.LinAlgError, match="target 1"):
        hitting_time_matrix(chain)
    assert np.array_equal(hitting_time_to(chain, 0), [0.0, 2.0])
    # an infinite scan is no answer either: the matrix route refuses it
    mu, nu = ProbabilityVector(np.array([1.0, 0.0])), ProbabilityVector(np.array([0.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="target 1"):
        access_time(chain, mu, nu)


def test_refusal_names_its_cause():
    # an overflowing step-time column is out of range
    chain = TransitionMatrix(np.array([[1.0 - 2.0**-1074, 2.0**-1074], [0.5, 0.5]]))
    with pytest.raises(
        np.linalg.LinAlgError, match="^hitting times of target 1 exceed the float range$"
    ):
        hitting_time_to(chain, 1)


#: 1 - 2**-1074 rounds to 1: a dense chain whose first-step system is regular
#: for every target, yet E_0[tau_1] = 2**1074, and so E_0[tau_2], pass the float range
VANISHING_EXIT = np.array([[1.0 - 2.0**-1074, 2.0**-1074, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


#: 2**-600 * 2**-600 underflows: rooted at state 0, the pivot of state 1 is
#: exactly 0, where E_1[tau_0] is near 2**1199
UNDERFLOWING_PIVOT = np.array(
    [[0.5, 0.5, 0.0], [0.0, 1.0 - 2.0**-600, 2.0**-600], [2.0**-600, 0.5, 0.5 - 2.0**-600]]
)


def test_dense_times_past_the_float_range_are_refused():
    chain = TransitionMatrix(VANISHING_EXIT)
    assert chain.bandwidth == (2, 1)  # the dense route
    for target in (1, 2):
        with pytest.raises(
            np.linalg.LinAlgError,
            match=f"^hitting times of target {target} exceed the float range$",
        ):
            hitting_time_to(chain, target)
    assert np.array_equal(hitting_time_to(chain, 0), [0.0, 2.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError, match="exceed the float range"):
        hitting_time_matrix(chain)
    chain = TransitionMatrix(UNDERFLOWING_PIVOT)
    with pytest.raises(
        np.linalg.LinAlgError, match="^hitting times of target 0 exceed the float range$"
    ):
        hitting_time_to(chain, 0)
    assert np.array_equal(hitting_time_to(chain, 1), [2.0, 0.0, 2.0])


@pytest.mark.filterwarnings("error")
def test_an_overflowing_stationary_law_is_a_numerical_refusal():
    # anchored at x_0 = 1, the law's weight of state 1 is near 2**1200: past the
    # float range, which is a numerical limit (exit 3), not bad input (exit 2)
    chain = TransitionMatrix(UNDERFLOWING_PIVOT)
    law = "^the stationary law's weights exceed the float range$"
    with pytest.raises(np.linalg.LinAlgError, match=law):
        stationary_distribution(chain)
    with pytest.raises(np.linalg.LinAlgError, match=law):
        transport_scan(chain, dirac(0, 3).weights - dirac(1, 3).weights)
    with pytest.raises(np.linalg.LinAlgError, match=law):
        access_time(chain, dirac(0, 3), dirac(1, 3))
    # the matrix needs no law: only the column of target 0 is past the range
    with pytest.raises(
        np.linalg.LinAlgError, match="^hitting times of target 0 exceed the float range$"
    ):
        hitting_time_matrix(chain)


@pytest.mark.filterwarnings("error")
def test_refusals_raise_no_numpy_warning(capsys):
    # an overflowing scan on the tridiagonal route: one stderr line, exit 3
    code = main(["compute", "--chain", '{"family":"birth_death","n":2,"p":5e-324}',
                 "--mu", "dirac:0", "--nu", "dirac:2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "numerical error: hitting times of target 0 exceed the float range"
    ]
    # the dense route's scan, or the matrix behind it
    chain = TransitionMatrix(VANISHING_EXIT)
    for mu, nu in [(0, 1), (0, 2), (1, 0), (2, 1)]:
        with pytest.raises(np.linalg.LinAlgError, match="exceed the float range"):
            access_time(chain, dirac(mu, 3), dirac(nu, 3))
    # the rooted reduction, alone and stacked in the matrix
    for target in (1, 2):
        with pytest.raises(np.linalg.LinAlgError, match=f"target {target} exceed"):
            hitting_time_to(chain, target)
    with pytest.raises(np.linalg.LinAlgError, match="exceed the float range"):
        hitting_time_matrix(chain)
    with pytest.raises(np.linalg.LinAlgError, match="target 0 exceed"):
        hitting_time_to(TransitionMatrix(UNDERFLOWING_PIVOT), 0)  # a zero pivot


#: a 2**-27 exit from state 0 puts hitting times near 1.3e8
STIFF = {(0, 1): 2.0**-27, (1, 0): 0.25, (1, 2): 0.25, (2, 1): 0.125, (2, 3): 0.375,
         (3, 1): 0.5, (3, 2): 0.0625}


def _law(weights):
    weights = np.asarray(weights, dtype=float)
    return ProbabilityVector(weights / weights.sum())


def test_stiff_chain_routes_agree_on_the_projected_difference():
    rows = _chain(STIFF, 4)
    chain = TransitionMatrix(rows)
    M = hitting_time_matrix(chain)
    E = fraction_hitting_matrix(rows)
    rng = np.random.default_rng(7)
    scans = 0
    for _ in range(40):
        mu, nu = _law(rng.integers(1, 10, 4)), _law(rng.integers(1, 10, 4))
        d = zero_sum(mu.weights - nu.weights)
        exact = max(sum(Fraction(d[i]) * E[i][j] for i in range(4)) for j in range(4))
        per_target, _ = transport_scan(chain, mu.weights - nu.weights)
        matrix = access_time(chain, mu, nu, hitting=M)
        assert np.array_equal(matrix.per_target, d @ M.values)
        slack = 1e-10 * np.maximum(1.0, np.abs(matrix.per_target))
        assert np.all(np.abs(per_target - matrix.per_target) <= slack)
        gated = access_time(chain, mu, nu)
        if gated.route == "scan":
            scans += 1
            assert abs(Fraction(gated.value) - exact) <= 1e-10 * max(1, abs(exact))
    assert scans >= 10


def test_zero_sum_keeps_support_and_exact_differences():
    N = 6
    exact = dirac(0, N).weights - dirac(5, N).weights
    assert zero_sum(exact) is exact
    d = _law([5, 4, 9, 1]).weights - _law([9, 0, 6, 5]).weights
    projected = zero_sum(d)
    assert math.fsum(d) != 0.0 and math.fsum(projected) == 0.0
    assert np.all(np.abs(projected - d) <= 4 * np.spacing(np.abs(d)))
    thirds = _law([1, 1, 1, 0, 0]).weights - dirac(3, 5).weights
    assert math.fsum(thirds) != 0.0
    assert np.array_equal(zero_sum(thirds) == 0.0, thirds == 0.0)
    rows = _chain(STIFF, 4)
    chain = TransitionMatrix(rows)
    # the scan projects what it is given, so it reads d and its projection alike
    for a, b in zip(transport_scan(chain, d), transport_scan(chain, projected)):
        assert np.array_equal(a, b)


#: stiff chains as {(i, j): (m, e)} for the rate m * 2**-e, with a dyadic pair;
#: the matrix route reads columns off the rooted reduction, where a residual
#: certificate refused them (a partial-pivoted LU kept them at column_bound
#: 6.8e4 and 31).  The gate refuses the second scan; the first one's far lower scores
#: carry estimates near 5e-3, but its maximum's own is 3.3e-9, and it stands
STIFF_MATRIX_ROUTE = [
    ({(0, 1): (57, 44), (0, 3): (99, 42), (0, 4): (19, 21), (1, 2): (173, 42), (1, 3): (13, 10),
      (2, 0): (43, 22), (2, 1): (155, 42), (2, 3): (13, 14), (2, 4): (55, 35), (3, 4): (5, 9),
      (4, 0): (81, 31), (4, 3): (113, 25)},
     [2, 6, 4, 2, 2], [3, 1, 4, 4, 4]),
    ({(0, 1): (9, 17), (0, 2): (203, 39), (0, 3): (15, 23), (1, 2): (119, 21), (2, 1): (7, 11),
      (2, 3): (243, 35), (3, 0): (59, 38), (3, 1): (137, 13), (3, 2): (43, 26)},
     [4, 4, 5, 3], [4, 3, 3, 6]),
]


def test_matrix_route_after_a_refused_scan_matches_exact_elimination():
    for rates, mu, nu in STIFF_MATRIX_ROUTE:
        N = len(mu)
        rows = _dyadic(rates, N)
        mu, nu = _law(mu), _law(nu)
        E = fraction_hitting_matrix(rows)
        d = [Fraction(float(a)) - Fraction(float(b)) for a, b in zip(mu.weights, nu.weights)]
        exact = max(sum(d[i] * E[i][j] for i in range(N)) for j in range(N))
        chain = TransitionMatrix(rows)
        gated = access_time(chain, mu, nu)
        with mock.patch.object(access, "SCAN_GATE", 0.0):
            result = access_time(chain, mu, nu)
        assert result.route == "matrix"
        for got in (gated.value, result.value):
            assert abs(Fraction(got) - exact) <= 1e-10 * abs(exact)
    assert gated.route == "matrix"


#: the 7-state draws of bandwidth (1, 2) that ``test_banded_columns_match_exact_elimination``
#: shrank to at --hypothesis-seed=17 and 23 while the per-target solve was a
#: partial-pivoted LU, as {(i, j): (m, e)} for the rate m * 2**-e
BANDED_LU_DRAW = {
    (0, 1): (1, 11), (1, 0): (1, 11), (1, 2): (1, 11), (1, 3): (1, 11), (2, 1): (1, 11),
    (2, 3): (3, 11), (3, 2): (1, 21), (3, 4): (2, 11), (4, 3): (1, 44),
    (4, 5): (27, 11), (5, 4): (1, 11), (5, 6): (203, 28), (6, 5): (3, 11),
}
BANDED_LU_DRAW_23 = {
    (0, 1): (1, 11), (0, 2): (1, 11), (1, 0): (1, 11), (1, 2): (1, 11), (2, 1): (1, 11),
    (2, 3): (1, 11), (3, 2): (1, 23), (3, 4): (2, 11), (4, 3): (1, 44),
    (4, 5): (27, 11), (5, 4): (2, 11), (5, 6): (244, 26), (6, 5): (63, 12),
}


@pytest.mark.parametrize("rates", [BANDED_LU_DRAW, BANDED_LU_DRAW_23], ids=["seed17", "seed23"])
def test_banded_lu_column_matches_exact_elimination(rates):
    # the LU read E_1[tau_0] of the seed-17 draw as -6.2e21 for an exact 7.1e18,
    # and the matrix route kept it at column_bound 2.9e5
    rows = _dyadic(rates, 7)
    chain = TransitionMatrix(rows)
    assert chain.bandwidth == (1, 2)  # the dense route
    assert_exact_columns(rows, np.column_stack([hitting_time_to(chain, t) for t in range(7)]))
    M = hitting_time_matrix(chain)
    assert_within_column_bounds(M.values, fraction_hitting_matrix(rows), M.column_bound)
    assert_exact_columns(rows, M.values[:, :1], [0])
