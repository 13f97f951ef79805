"""Property test: every reader of the sparsity pattern against a dense oracle.

``TransitionMatrix._edges`` is the chain's one scan of its rows.  Over
the chain strategies of the other property tests, stiff, banded and
reducible draws and the bit-string labelled hypercube, the edge list must
be ``np.nonzero(rows)`` in row-major order, and the bandwidth, the strong
components, the period, the detailed-balance residual and the Monte
Carlo out-edge table read off it must match their dense references.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import (
    ChainSpec,
    TransitionMatrix,
    build_chain,
    simulate,
    stationary_distribution,
    validate_chain,
)
from access_time.hitting import detailed_balance_residual
from oracles import dense_out_edges, pattern_bandwidth, return_time_period, strong_component_count
from test_banded_property import stiff_banded_chains, stiff_tridiagonal_chains
from test_diagnostics_property import directed_chains
from test_simulate_property import small_chains
from test_stationary_property import RATE, stiff_sparse_chains


@st.composite
def reducible_chains(draw):
    """Random arcs with no cycle through every state, rates as in ``RATE``, the rest held."""
    N = draw(st.integers(1, 8))
    rows = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if i != j and draw(st.integers(0, 2)) == 0:
                m, e = draw(RATE)
                rows[i, j] = m * 2.0**-e
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    return rows


CHAINS = st.one_of(
    st.one_of(
        directed_chains(),
        small_chains(),
        stiff_sparse_chains(),
        stiff_banded_chains(),
        stiff_tridiagonal_chains(),
        reducible_chains(),
    ).map(TransitionMatrix),
    st.integers(1, 4).map(lambda d: build_chain(ChainSpec("hypercube", n=d))),
)


@settings(max_examples=200, deadline=None)
@given(chain=CHAINS, u=st.floats(0.0, 1.0 - 2.0**-53))
def test_pattern_readers_match_dense_references(chain, u):
    rows = chain.rows
    src, dst = chain._edges
    assert src.dtype == dst.dtype == np.int32
    expected = np.nonzero(rows)
    assert np.array_equal(src, expected[0]) and np.array_equal(dst, expected[1])
    assert chain.bandwidth == pattern_bandwidth(rows)
    assert chain.strong_components == strong_component_count(rows)

    dest, bins = simulate._out_edges(chain)
    dense_dest, dense_bins = dense_out_edges(rows)
    assert np.array_equal(dest, dense_dest) and np.array_equal(bins, dense_bins)
    for row in rows:  # each row as a law, drawn as the one-row table draws it
        law_dest, law_bins = dense_out_edges(row)
        drawn = law_dest[0, np.searchsorted(law_bins[:, 0], [u], side="right")]
        assert np.array_equal(simulate._draw_law(row, np.array([u])), drawn)

    diagnostics = validate_chain(chain)
    if chain.strong_components > 1:
        assert diagnostics.period is None and diagnostics.detailed_balance_residual is None
        return
    assert diagnostics.period == return_time_period(rows)
    flow = stationary_distribution(chain).weights[:, None] * rows
    residual = float(np.abs(flow - flow.T).max())
    assert diagnostics.detailed_balance_residual == residual
    assert detailed_balance_residual(chain, stationary_distribution(chain)) == residual
