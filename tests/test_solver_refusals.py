"""The solver refuses a singular system loudly, and both routes read one zero-sum d.

A dense partial-pivoted LU solve that meets an exactly zero pivot is
refused as singular, and a column that is otherwise not finite (an
overflowing step time, or a regular system whose times pass 2**1024) as
out of the float range; ``hitting_time_to`` raises a ``LinAlgError``
naming the target and the cause (exit code 3 on the command line, with
one line on stderr and no NumPy warning) rather than handing a bad
column to the transport scan.  A
tridiagonal chain has no pivot, so where the LU meets a zero one its
step-time column is still exact.  And since the
Kemeny-Snell scan needs sum(mu - nu) = 0, ``transport_scan`` and the matrix
route of ``access_time`` both evaluate mu - nu as projected by ``zero_sum``.
"""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import lu_factor

from access_time import (
    ProbabilityVector,
    TransitionMatrix,
    access,
    access_time,
    hitting,
    hitting_time_matrix,
    hitting_time_to,
    transport_scan,
)
from access_time.cli import main
from access_time.hitting import zero_sum
from conftest import dirac
from oracles import fraction_hitting_matrix


def _chain(rates, N):
    """Chain with off-diagonal rates ``{(i, j): p_ij}``, holding the rest."""
    rows = np.zeros((N, N))
    for (i, j), rate in rates.items():
        rows[i, j] = rate
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    return rows


#: rates m * 2**-e as {(i, j): (m, e)}; LU meets an exactly zero pivot on target 3
SINGULAR_LU = {
    (0, 1): (50, 30), (0, 4): (177, 12), (1, 0): (88, 15), (1, 2): (193, 30),
    (2, 0): (194, 18), (2, 1): (171, 40), (2, 3): (186, 34), (2, 4): (106, 13),
    (3, 2): (70, 25), (3, 4): (131, 16), (4, 0): (231, 35),
}


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_zero_pivot_is_refused_not_returned():
    chain = TransitionMatrix(_chain({k: m * 2.0**-e for k, (m, e) in SINGULAR_LU.items()}, 5))
    with pytest.raises(np.linalg.LinAlgError, match="target 3"):
        hitting_time_to(chain, 3)
    with pytest.raises(np.linalg.LinAlgError):
        hitting_time_matrix(chain)
    mu = ProbabilityVector([0.25, 0.25, 0.25, 0.25, 0.0])
    nu = ProbabilityVector([0.0, 0.0, 0.0, 0.5, 0.5])
    with mock.patch.object(access, "SCAN_GATE", 0.0), pytest.raises(np.linalg.LinAlgError):
        access_time(chain, mu, nu)
    # the other targets still solve, to finite positive times
    for target in (0, 1, 2, 4):
        h = hitting_time_to(chain, target)
        assert np.isfinite(h).all() and (np.delete(h, target) > 0).all()


#: a tridiagonal chain as {(i, j): e} for the rate 2**-e: partial-pivoted
#: LU, banded or dense, meets an exactly zero pivot on target 0
SINGULAR_BANDED = {
    (0, 1): 11, (1, 0): 11, (1, 2): 11, (2, 1): 28, (2, 3): 10, (3, 2): 44,
    (3, 4): 10, (4, 3): 11,
}


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_tridiagonal_chain_is_solved_where_lu_meets_a_zero_pivot():
    rows = _chain({k: 2.0**-e for k, e in SINGULAR_BANDED.items()}, 5)
    chain = TransitionMatrix(rows)
    assert chain.bandwidth == (1, 1)
    with pytest.raises(np.linalg.LinAlgError, match="^singular first-step system for target 0$"):
        hitting._dense_column(chain, 0)
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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_refusal_names_its_cause():
    # an overflowing step-time column is out of range, not singular
    chain = TransitionMatrix(np.array([[1.0 - 2.0**-1074, 2.0**-1074], [0.5, 0.5]]))
    with pytest.raises(
        np.linalg.LinAlgError, match="^hitting times of target 1 exceed the float range$"
    ):
        hitting_time_to(chain, 1)
    # an exactly zero pivot of the dense LU is a singular system
    chain = TransitionMatrix(_chain({k: m * 2.0**-e for k, (m, e) in SINGULAR_LU.items()}, 5))
    with pytest.raises(np.linalg.LinAlgError, match="^singular first-step system for target 3$"):
        hitting_time_to(chain, 3)


#: 1 - 2**-1074 rounds to 1: a dense chain whose first-step system is regular
#: for every target, yet E_0[tau_1] = 2**1074, and so E_0[tau_2], pass the float range
VANISHING_EXIT = np.array([[1.0 - 2.0**-1074, 2.0**-1074, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def test_regular_system_past_the_float_range_is_not_called_singular():
    chain = TransitionMatrix(VANISHING_EXIT)
    assert chain.bandwidth == (2, 1)  # the dense route
    for target in (1, 2):
        A = -VANISHING_EXIT.copy()
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        A[target, :] = A[:, target] = 0.0
        A[target, target] = 1.0
        pivots = np.abs(lu_factor(A)[0].diagonal())
        assert pivots.min() > 0.0 and pivots.min() < 1e-322  # regular, with a subnormal pivot
        with pytest.raises(
            np.linalg.LinAlgError,
            match=f"^hitting times of target {target} exceed the float range$",
        ):
            hitting_time_to(chain, target)
    assert np.array_equal(hitting_time_to(chain, 0), [0.0, 2.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError, match="exceed the float range"):
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
    # the dense route: the scan, the one-reduction matrix and its certificate
    chain = TransitionMatrix(VANISHING_EXIT)
    for mu, nu in [(0, 1), (0, 2), (1, 0), (2, 1)]:
        with pytest.raises(np.linalg.LinAlgError, match="exceed the float range"):
            access_time(chain, dirac(mu, 3), dirac(nu, 3))
    # an exactly zero pivot: LAPACK's flag, not SciPy's LinAlgWarning
    chain = TransitionMatrix(_chain({k: m * 2.0**-e for k, (m, e) in SINGULAR_LU.items()}, 5))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        hitting_time_to(chain, 3)


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
