"""Property test: banded first-step solves against exact rational elimination.

The chains are tridiagonal to heptadiagonal with stiff dyadic rates, so
every one of them takes the banded route of ``hitting_time_to``.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import TransitionMatrix, hitting_time_to
from oracles import fraction_hitting_matrix
from test_stationary_property import RATE


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


@settings(max_examples=40, deadline=None)
@given(rows=stiff_banded_chains())
def test_banded_route_matches_exact_elimination(rows):
    """A backward-stable solve: each column is within N eps cond(L) of the exact one.

    L, the first-step matrix of the other states, is an M-matrix, so
    ||L^-1||_inf = max h and cond(L) = ||L||_inf max h with
    ||L||_inf <= 2 max_i sum_{k != i} p_ik.  Rates spread over 12 decades
    give condition numbers far past 1 / eps, where partial-pivoted LU,
    banded or dense, can lose every digit or meet an exactly zero pivot;
    the bound holds all the same, and a zero pivot is refused, not returned.
    """
    chain = TransitionMatrix(rows)
    assert 2 * sum(chain.bandwidth) < chain.size  # the banded route
    N = chain.size
    exact = np.array([[float(x) for x in row] for row in fraction_hitting_matrix(rows)])
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
        assert np.abs(h - h_exact).max() <= N * np.finfo(float).eps * cond * h_exact.max()
