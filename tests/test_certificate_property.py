"""Property test: the dense hitting matrix and its certificate against exact elimination.

On the stiff dyadic chains of ``test_stationary_property``, cycle arcs
make every chain of three or more states wide, so ``hitting_time_matrix``
takes the rooted state reduction.  At these sizes the table is one stack
of rooted reductions, so each column must be ``hitting_time_to``'s, bit
for bit.  With the leaf bound forced down to 2, the recursive halving
runs at every size, and every entry must still be within N^2 eps of the
exact time.  Either way the residual certificate b_j that
``_column_bounds`` reads off the table must be finite and cover each
column's true error.  The two-state chains are tridiagonal and must meet
the a priori bound of the step-time recurrence.
"""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings

from access_time import TransitionMatrix, hitting, hitting_time_matrix, hitting_time_to
from oracles import fraction_hitting_matrix
from test_hitting import assert_within_column_bounds
from test_solver_refusals import assert_exact_columns
from test_stationary_property import stiff_sparse_chains


@settings(max_examples=80, deadline=None)
@given(rows=stiff_sparse_chains())
def test_certificate_covers_every_column(rows):
    chain = TransitionMatrix(rows)
    N = chain.size
    exact = fraction_hitting_matrix(rows)
    M = hitting_time_matrix(chain)
    assert_within_column_bounds(M.values, exact, M.column_bound)
    if max(chain.bandwidth) <= 1:  # the step-time recurrence
        assert np.array_equal(M.column_bound, np.full(N, 3 * N * hitting.EPS))
        return

    assert np.isfinite(M.column_bound).all()
    columns = np.column_stack([hitting_time_to(chain, j) for j in range(N)])
    assert N <= hitting._LEAF_STATES and np.array_equal(M.values, columns)
    with mock.patch.object(hitting, "_LEAF_STATES", 2):
        halved = hitting_time_matrix(chain)
    assert_exact_columns(rows, halved.values)
    assert np.isfinite(halved.column_bound).all()
    assert_within_column_bounds(halved.values, exact, halved.column_bound)
