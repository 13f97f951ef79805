"""Property test: the vectorized Monte Carlo kernel against the scalar loop.

Random small chains and laws, where some walks start on their target,
must give the same step counts, mean, standard error and stopped law as
``oracles.scalar_walks`` bit for bit, whatever blocks the kernel compares
its walks in.
"""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import ProbabilityVector, TransitionMatrix, simulate
from test_simulate import assert_matches_scalar_loop


@st.composite
def small_chains(draw):
    """A cycle plus random arcs with integer weights 1..8 and a self-loop weight 0..8.

    No rate falls below 1/48, so walks stay short: irreducible and not stiff.
    """
    N = draw(st.integers(2, 6))
    weights = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if j == (i + 1) % N or (i != j and draw(st.booleans())):
                weights[i, j] = draw(st.integers(1, 8))
        weights[i, i] = draw(st.integers(0, 8))
    return weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    rows=small_chains(),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1_000, 1_500),
    gather=st.sampled_from([60, 1000, simulate._GATHER_ENTRIES]),
)
def test_kernel_matches_full_width_loop_on_random_chains(data, rows, seed, samples, gather):
    N = rows.shape[0]
    law = st.lists(st.integers(0, 3), min_size=N, max_size=N).filter(any)
    mu = ProbabilityVector(np.array(data.draw(law), dtype=float))
    nu = ProbabilityVector(np.array(data.draw(law), dtype=float))
    with mock.patch.object(simulate, "_GATHER_ENTRIES", gather):
        assert_matches_scalar_loop(TransitionMatrix(rows), mu, nu, samples, seed)
