"""Property test: the column certificate of the hitting matrix against exact elimination.

On the stiff dyadic chains of ``test_stationary_property`` (cycle arcs
make every chain wide, so all take the one-reduction route), the bound
b_j of each column must cover its true error, before the fallback and
after it; every refused column must be the per-target solve, bit for
bit, and keep a finite bound.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings

from access_time import TransitionMatrix, hitting, hitting_time_matrix, hitting_time_to
from oracles import fraction_hitting_matrix
from test_hitting import assert_within_column_bounds
from test_stationary_property import stiff_sparse_chains


@settings(max_examples=80, deadline=None)
@given(rows=stiff_sparse_chains())
def test_certificate_covers_every_column(rows):
    chain = TransitionMatrix(rows)
    N = chain.size
    assert 2 * sum(chain.bandwidth) >= N  # the one-reduction route
    exact = fraction_hitting_matrix(rows)
    raw = hitting._grounded_matrix(chain)
    raw_bound = hitting._column_bounds(hitting._first_step_matrix(chain), raw, np.arange(N))
    assert_within_column_bounds(raw, exact, raw_bound)

    refused = np.flatnonzero(~(raw_bound <= hitting.CERT_GATE))
    try:
        columns = {j: hitting_time_to(chain, j) for j in refused}
    except np.linalg.LinAlgError:  # an exactly zero LU pivot: the matrix is refused too
        with pytest.raises(np.linalg.LinAlgError):
            hitting_time_matrix(chain)
        return
    M = hitting_time_matrix(chain)
    for j in range(N):
        if j in columns:
            assert np.array_equal(M.values[:, j], columns[j])
        else:
            assert np.array_equal(M.values[:, j], raw[:, j])
            assert M.column_bound[j] == raw_bound[j]
    assert np.isfinite(M.column_bound).all()
    assert_within_column_bounds(M.values, exact, M.column_bound)
