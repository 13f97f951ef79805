"""The edge form of a chain against its dense view.

A chain holds its transitions p_ij > 0 as row-major edges ``_edges``
with their ``rate``, and ``rows`` is a dense view built from them.  A
hand-built matrix (the stiff draws of the stationary and banded property
tests) must come back from the view bit for bit, every family's view
must equal its matrix filled in densely (``oracles.dense_family_rows``),
and the checks on the rates refuse what the dense checks refused.  The
path and birth-death commands must give their answers without ever
reading the view.
"""
import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import ChainSpec, ChainSpecError, TransitionMatrix, build_chain
from access_time.chains import random_connected_graph
from access_time.cli import main
from oracles import dense_family_rows
from test_banded_property import stiff_banded_chains, stiff_tridiagonal_chains
from test_cli_golden import _load_cases, _same_file, _same_text, run_command
from test_stationary_property import stiff_sparse_chains

EPS = np.finfo(float).eps


def assert_edge_form_of(chain, rows):
    """The chain's view is ``rows`` bit for bit, its edges are the positive
    pattern of ``rows`` in row-major order, and its rates add up row by row
    as the dense rows do, to rounding."""
    N = rows.shape[0]
    assert chain.rows.shape == rows.shape and chain.rows.tobytes() == rows.tobytes()
    src, dst = chain._edges
    expected_src, expected_dst = np.nonzero(rows > 0)
    assert np.array_equal(src, expected_src) and np.array_equal(dst, expected_dst)
    assert chain.rate.tobytes() == rows[src, dst].tobytes()
    sums = np.bincount(src, weights=chain.rate, minlength=N)
    np.testing.assert_allclose(sums, rows.sum(axis=1), rtol=0, atol=N * EPS)
    dense_residual = np.abs(rows.sum(axis=1) - 1.0).max()
    assert abs(chain.row_sum_residual - dense_residual) <= N * EPS


@settings(max_examples=100, deadline=None)
@given(rows=st.one_of(stiff_sparse_chains(), stiff_banded_chains(), stiff_tridiagonal_chains()))
def test_hand_built_chain_keeps_its_matrix(rows):
    assert_edge_form_of(TransitionMatrix(rows), rows)


FAMILY_SPECS = [
    *(ChainSpec(f, n=n) for f in ("path", "complete", "star", "winning_streak")
      for n in (1, 2, 3, 6)),
    *(ChainSpec("birth_death", n=n, p=p) for n in (1, 2, 5) for p in (0.5, 0.3, 1e-9, 5e-324)),
    *(ChainSpec("hypercube", n=d) for d in (1, 2, 3, 5)),
    ChainSpec("graph", edges=((0, 1), (1, 2), (0, 2), (2, 3), (3, 4))),
    ChainSpec("graph", edges=random_connected_graph(12, np.random.default_rng(8), extra_edges=9)),
]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.n}-{s.p}")
def test_family_view_matches_the_dense_matrix(spec):
    chain = build_chain(spec)
    assert_edge_form_of(chain, dense_family_rows(spec))
    assert chain.row_sum_residual <= 1e-15 * chain.size


@pytest.mark.parametrize("N", [1, 2, 129])
def test_dense_array_is_a_fresh_copy_of_the_rates(N):
    rows = np.random.default_rng(N).random((N, N)) * (np.random.default_rng(0).random((N, N)) < 0.3)
    rows[np.arange(N), np.arange(N)] += 1.0
    rows /= rows.sum(axis=1)[:, None]
    chain = TransitionMatrix(rows)
    A = chain.dense()
    assert A.flags.c_contiguous and A.flags.writeable and A is not chain.dense()
    assert np.array_equal(A, rows)


@pytest.mark.parametrize(
    "rows, message",
    [  # beside the NaN, negative, non-stochastic and non-square cases of test_chains.py
        ([[0.0, 1.0], [np.nan, 0.0]], "finite"),  # a NaN a scan of p > 0 would pass over
        ([[np.inf, 0.0], [0.5, 0.5]], "finite"),
        ([[0.0, 0.0], [0.5, 0.5]], "stochastic"),  # a row with no edge
    ],
)
def test_bad_matrices_are_refused_as_before(rows, message):
    with pytest.raises(ChainSpecError, match=message):
        TransitionMatrix(np.array(rows))


def test_edge_lists_are_checked_in_their_own_form():
    chain = TransitionMatrix.from_edges(2, [0, 1, 1], [1, 0, 1], [1.0, 0.5, 0.5])
    assert chain.rows.tolist() == [[0.0, 1.0], [0.5, 0.5]]
    for rate, message in (([1.0, np.nan, 0.5], "finite"), ([1.0, -0.5, 1.5], "non-negative"),
                          ([1.0, 0.0, 1.0], "positive"), ([1.0, 0.5, 0.4], "stochastic")):
        with pytest.raises(ChainSpecError, match=message):
            TransitionMatrix.from_edges(2, [0, 1, 1], [1, 0, 1], rate)


# --- tridiagonal commands without the dense view --------------------------------


@pytest.fixture
def no_dense_view(monkeypatch):
    """Make every read of ``TransitionMatrix.rows`` fail."""

    def refuse(chain):
        raise AssertionError("the dense view was read")

    monkeypatch.setattr(TransitionMatrix, "rows", property(refuse))


def _corpus_case(argv):
    return next(case for case in _load_cases() if case["argv"] == argv)


PATH10 = '{"family":"path","n":10}'
BD10 = '{"family":"birth_death","n":10,"p":0.3}'
CORPUS_COMMANDS = [
    ["compute", "--chain", PATH10, "--mu", "dirac:0", "--nu", "dirac:10", "--closed-form"],
    ["compute", "--chain", BD10, "--mu", "dirac:9", "--nu", "dirac:2", "--closed-form"],
    ["compute", "--chain", '{"family":"birth_death","n":5,"p":0.25}', "--mu", "stationary",
     "--nu", "dirac:2", "--closed-form"],
    ["scale", "--families", "path", "--n", "63,64,65,66", "--out", "{out}"],
    ["scale", "--families", "birth_death", "--n", "64,65", "--p", "0.3", "--out", "{out}"],
    ["verify", "--family", "path", "--n", "2..6", "--trials", "5", "--seed", "1"],
    ["verify", "--family", "birth_death", "--n", "2..8", "--trials", "5", "--seed", "2",
     "--p", "0.3", "--out", "{out}"],
]


@pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=lambda a: " ".join(a[:4]))
def test_tridiagonal_commands_answer_without_the_dense_view(argv, no_dense_view, tmp_path):
    case = _corpus_case(argv)
    got = run_command(argv, str(tmp_path / "out.dat"))
    assert got["code"] == case["code"] == 0, got["stderr"]
    assert _same_text(got["stdout"], case["stdout"]), got["stdout"]
    assert _same_file(got["out_file"], case["out_file"])


@pytest.mark.parametrize("chain", [PATH10, '{"family":"birth_death","n":8,"p":0.25}'])
def test_gen_without_out_skips_the_dense_view(chain, no_dense_view, tmp_path):
    """``gen`` prints what it prints with ``--out``, less the ``out`` key."""
    recorded = json.loads(_corpus_case(["gen", "--chain", chain, "--out", "{out}"])["stdout"])
    del recorded["out"]
    got = run_command(["gen", "--chain", chain], str(tmp_path / "out.dat"))
    assert got["code"] == 0 and _same_text(got["stdout"], json.dumps(recorded))


@pytest.mark.parametrize(
    "chain, mu, nu, mean_t, theoretical",
    [
        (PATH10, "dirac:0", "uniform", 35.138, 35.0),
        (BD10, "binomial:0.3", "dirac:10", 162.742, 159.83333333333334),
    ],
)
def test_simulate_skips_the_dense_view(chain, mu, nu, mean_t, theoretical, no_dense_view):
    out = io.StringIO()
    argv = ["simulate", "--chain", chain, "--mu", mu, "--nu", nu, "--samples", "2000"]
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--seed", "7"]) == 0
    report = json.loads(out.getvalue())
    assert report["mean_T"] == mean_t
    assert report["theoretical_mean"] == pytest.approx(theoretical, rel=1e-12)
