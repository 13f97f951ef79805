"""Property test: the ``gen`` diagnostics read off the sparsity pattern.

Random directed chains, a cycle plus sparse random arcs, take periods
from 1 to N.  ``validate_chain`` reads the period from BFS levels and the
detailed-balance residual from the non-zero rates alone; the period must
match ``oracles.return_time_period`` and the residual the dense flow
max_ij |pi_i p_ij - pi_j p_ji| bit for bit.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import TransitionMatrix, stationary_distribution, validate_chain
from oracles import return_time_period


@st.composite
def directed_chains(draw):
    """The cycle i -> i + 1 mod N plus each other arc with probability 1/4, integer weights."""
    N = draw(st.integers(1, 9))
    weights = np.zeros((N, N))
    for i in range(N):
        weights[i, (i + 1) % N] = draw(st.integers(1, 4))
        for j in range(N):
            if j != i and j != (i + 1) % N and draw(st.integers(0, 3)) == 0:
                weights[i, j] = draw(st.integers(1, 4))
    return weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(rows=directed_chains())
def test_sparse_diagnostics_match_dense_references(rows):
    chain = TransitionMatrix(rows)
    diagnostics = validate_chain(chain)
    assert diagnostics.irreducible
    assert diagnostics.period == return_time_period(rows)
    flow = stationary_distribution(chain).weights[:, None] * rows
    assert diagnostics.detailed_balance_residual == float(np.abs(flow - flow.T).max())
