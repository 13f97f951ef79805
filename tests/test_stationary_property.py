"""Property test: the blocked stationary law against exact rational elimination.

Small panels and GEMM chunks are patched in, so chains of a few states
already cross several panel boundaries and chunk edges.
"""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import TransitionMatrix, hitting, stationary_distribution
from oracles import fraction_stationary

#: an off-diagonal rate m * 2**-e spans about 6e-14 .. 0.12; every rate is a
#: multiple of 2**-44, so row sums and the diagonal 1 - sum are exact and
#: the float chain and its rational copy are the same chain
RATE = st.tuples(st.integers(1, 255), st.integers(11, 44))


@st.composite
def stiff_sparse_chains(draw):
    N = draw(st.integers(2, 7))
    rows = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if j == (i + 1) % N or (i != j and draw(st.booleans())):
                m, e = draw(RATE)
                rows[i, j] = m * 2.0**-e
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=stiff_sparse_chains(), panel=st.integers(1, 6), chunk=st.integers(1, 6))
def test_stationary_matches_exact_elimination_across_panels(rows, panel, chunk):
    exact = np.array([float(x) for x in fraction_stationary(rows)])
    with mock.patch.object(hitting, "STATIONARY_PANEL", panel), mock.patch.object(
        hitting, "_GEMM_ROWS", chunk
    ):
        pi = stationary_distribution(TransitionMatrix(rows)).weights
    np.testing.assert_allclose(pi, exact, rtol=1e-12)
