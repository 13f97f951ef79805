"""Property test: banded chains' hitting columns against exact rational elimination.

The chains are tridiagonal to heptadiagonal with stiff dyadic rates.
Tridiagonal ones take the step-time recurrence of ``hitting_time_to`` and
must meet its entrywise a priori bound at every target; wider ones take
the dense LU and must meet the normwise bound of a backward-stable solve.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import TransitionMatrix, hitting_time_matrix, hitting_time_to
from oracles import fraction_hitting_matrix
from test_hitting import assert_within_column_bounds
from test_stationary_property import RATE

EPS = np.finfo(float).eps


@st.composite
def stiff_banded_chains(draw):
    """Irreducible chains with steps of at most ``lower`` down and ``upper`` up,
    both neighbours always present, rates as in ``stiff_sparse_chains``."""
    lower, upper = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    N = draw(st.integers(2 * (lower + upper) + 1, 2 * (lower + upper) + 3))
    rows = np.zeros((N, N))
    for i in range(N):
        for k in range(-lower, upper + 1):
            if k != 0 and 0 <= i + k < N and (abs(k) == 1 or draw(st.booleans())):
                m, e = draw(RATE)
                rows[i, i + k] = m * 2.0**-e
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    return rows


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")  # a zero pivot, refused
@settings(max_examples=40, deadline=None)
@given(rows=stiff_banded_chains())
def test_banded_columns_match_exact_elimination(rows):
    """Tridiagonal draws: within the a priori bound, never refused.  Wider
    draws: a backward-stable solve, within N eps cond(L) of the exact column.

    L, the first-step matrix of the other states, is an M-matrix, so
    ||L^-1||_inf = max h and cond(L) = ||L||_inf max h with
    ||L||_inf <= 2 max_i sum_{k != i} p_ik.  Rates spread over 12 decades
    give condition numbers far past 1 / eps, where partial-pivoted LU can
    lose every digit or meet an exactly zero pivot; the bound holds all
    the same, and a zero pivot is refused, not returned.
    """
    chain = TransitionMatrix(rows)
    N = chain.size
    exact = fraction_hitting_matrix(rows)
    if max(chain.bandwidth) <= 1:
        columns = np.column_stack([hitting_time_to(chain, target) for target in range(N)])
        assert_within_column_bounds(columns, exact, np.full(N, 3 * N * EPS))
        return
    exact = np.array([[float(x) for x in row] for row in exact])
    norm_L = 2.0 * (1.0 - np.diag(rows)).max()
    for target in range(N):
        try:
            h = hitting_time_to(chain, target)
        except np.linalg.LinAlgError as exc:
            assert f"target {target}" in str(exc)
            continue
        h_exact = exact[:, target]
        cond = norm_L * h_exact.max()
        assert h[target] == 0.0
        assert np.abs(h - h_exact).max() <= N * EPS * cond * h_exact.max()


@st.composite
def stiff_tridiagonal_chains(draw):
    """Irreducible tridiagonal chains of 1 to 10 states, rates as in ``RATE``."""
    N = draw(st.integers(1, 10))
    rows = np.zeros((N, N))
    for i in range(N - 1):
        (m, e), (m2, e2) = draw(RATE), draw(RATE)
        rows[i, i + 1], rows[i + 1, i] = m * 2.0**-e, m2 * 2.0**-e2
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=stiff_tridiagonal_chains())
def test_tridiagonal_matrix_meets_its_a_priori_bound(rows):
    chain = TransitionMatrix(rows)
    N = chain.size
    M = hitting_time_matrix(chain)
    assert np.array_equal(M.column_bound, np.full(N, 3 * N * EPS))
    assert_within_column_bounds(M.values, fraction_hitting_matrix(rows), M.column_bound)
