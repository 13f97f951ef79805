"""Property test: banded chains' hitting columns against exact rational elimination.

The chains are tridiagonal to heptadiagonal with stiff dyadic rates.
Tridiagonal ones take the step-time recurrence of ``hitting_time_to`` and
must meet its entrywise a priori bound at every target; wider ones take
the rooted state reduction, and every column must be within N^2 eps of
the exact one, entrywise, with nothing refused, and the matrix's columns
must be those columns bit for bit.  On tridiagonal chains
the detailed-balance law and the cumulative-sum transport scan must meet
their a priori bounds too, with no state reduction.
"""
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from access_time import (
    TransitionMatrix,
    hitting,
    hitting_time_matrix,
    hitting_time_to,
    stationary_distribution,
    transport_scan,
)
from oracles import fraction_hitting_matrix, fraction_stationary
from test_hitting import assert_within_column_bounds
from test_solver_refusals import BANDED_LU_DRAW, BANDED_LU_DRAW_23, _dyadic, assert_exact_columns
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


@settings(max_examples=40, deadline=None)
@given(rows=stiff_banded_chains())
@example(rows=_dyadic(BANDED_LU_DRAW, 7))
@example(rows=_dyadic(BANDED_LU_DRAW_23, 7))
def test_banded_columns_match_exact_elimination(rows):
    """Tridiagonal draws: within the a priori bound.  Wider draws: every
    column of ``hitting_time_to`` within N^2 eps entrywise, and the matrix,
    one stack of rooted reductions at these sizes, equal to those columns
    bit for bit and within its certificate.  Never refused.

    Rates spread over 12 decades give first-step matrices with condition
    numbers far past 1 / eps.  A partial-pivoted LU lost every digit on
    the two pinned draws; the reduction subtracts nothing, so its relative
    error does not depend on the condition number.
    """
    chain = TransitionMatrix(rows)
    N = chain.size
    exact = fraction_hitting_matrix(rows)
    columns = np.column_stack([hitting_time_to(chain, target) for target in range(N)])
    if max(chain.bandwidth) <= 1:
        assert_within_column_bounds(columns, exact, np.full(N, 3 * N * EPS))
        return
    assert_exact_columns(rows, columns)
    M = hitting_time_matrix(chain)
    assert N <= hitting._LEAF_STATES and np.array_equal(M.values, columns)
    assert_within_column_bounds(M.values, exact, M.column_bound)


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


@settings(max_examples=80, deadline=None)
@given(rows=stiff_tridiagonal_chains(), data=st.data())
def test_tridiagonal_law_and_scan_meet_their_a_priori_bounds(rows, data):
    """Weight k of pi is 2k + 1 roundings from the ratios, and the sum and
    division of the normalization add N, so pi is within 2 N eps entrywise.
    A score adds up to (5N - 5) u: the step times' 3N, the cumulative sums
    of d and of the products, each term rounded in proportion to its
    magnitude, so score j is within 3 N eps (|d| @ M)_j."""
    chain = TransitionMatrix(rows)
    N = chain.size
    # 16 unit masses: the weights are dyadic, so mu - nu is exact and sums to 0
    masses = st.lists(st.integers(0, N - 1), min_size=16, max_size=16)
    mu = np.bincount(data.draw(masses), minlength=N) / 16.0
    nu = np.bincount(data.draw(masses), minlength=N) / 16.0
    refuse = mock.Mock(side_effect=AssertionError("state reduction on a tridiagonal chain"))
    with mock.patch.object(hitting, "_state_reduction", refuse):
        pi = stationary_distribution(chain).weights
        scores, err = transport_scan(chain, mu - nu)
    eps = Fraction(EPS)
    for got, exact in zip(pi.tolist(), fraction_stationary(rows)):
        assert abs(Fraction(got) - exact) <= 2 * N * eps * exact
    E = fraction_hitting_matrix(rows)
    d = [Fraction(a) - Fraction(b) for a, b in zip(mu.tolist(), nu.tolist())]
    exact = [sum(d[i] * E[i][j] for i in range(N)) for j in range(N)]
    slack = [3 * N * eps * sum(abs(d[i]) * E[i][j] for i in range(N)) for j in range(N)]
    for got, value, bound in zip(scores.tolist(), exact, slack):
        assert abs(Fraction(got) - value) <= bound
    assert abs(Fraction(float(scores.max())) - max(exact)) <= max(slack)
    assert np.all((0.0 <= err) & (err < np.inf))
