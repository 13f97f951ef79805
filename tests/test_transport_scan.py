"""The access time read off one state reduction, against the hitting matrix.

``access_time`` without a precomputed matrix takes ``transport_scan``
when the error estimate of its maximum passes ``access.SCAN_GATE`` and
builds the hitting matrix otherwise; these tests hold both routes to
each other and the scan to exact rational elimination.
"""
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from access_time import (
    ChainSpec,
    ProbabilityVector,
    TransitionMatrix,
    access,
    access_time,
    build_chain,
    hitting,
    hitting_time_matrix,
    transport_scan,
)
from access_time.cli import main
from conftest import dirac, dirichlet_pair
from oracles import fraction_hitting_matrix
from test_stationary_property import stiff_sparse_chains

SCAN_SPECS = [
    ChainSpec("path", n=256),
    ChainSpec("path", n=16),
    ChainSpec("star", n=128),
    ChainSpec("complete", n=32),
    ChainSpec("hypercube", n=5),
    ChainSpec("winning_streak", n=40),
    ChainSpec("birth_death", n=64, p=0.25),
]


@pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: f"{s.family}-{s.n}")
def test_scan_matches_hitting_matrix(spec, rng):
    chain = build_chain(spec)
    N = chain.size
    M = hitting_time_matrix(chain)
    diracs = [(dirac(0, N), dirac(N - 1, N)), (dirac(N - 1, N), dirac(N // 2, N))]
    dirichlets = [dirichlet_pair(rng, N) for _ in range(2)]
    routes = []
    for mu, nu in diracs + dirichlets:
        lu = access_time(chain, mu, nu, hitting=M)
        assert lu.route == "matrix" and lu.error_bound is None
        per_target, err = transport_scan(chain, mu.weights - nu.weights)
        slack = 1e-9 * np.maximum(1.0, np.abs(lu.per_target))
        assert np.all(np.abs(per_target - lu.per_target) <= slack)
        result = access_time(chain, mu, nu)
        # the maximum's own estimate, or how far another score may rise past it
        top = per_target.max()
        bound = max(err[per_target.argmax()], (per_target + err).max() - top)
        passes = bound <= access.SCAN_GATE * max(1.0, abs(top))
        assert result.route == ("scan" if passes else "matrix")
        assert result.error_bound == (bound if passes else None)
        assert result.value == pytest.approx(lu.value, rel=1e-9, abs=1e-9)
        assert result.argmax_target == lu.argmax_target
        assert result.to_json().keys() == {"value", "argmax_target", "per_target"}
        routes.append(result.route)
    # the gate may refuse a pair (a downhill winning-streak pair cancels
    # 2^40-sized terms), but the scan answers Dirac and Dirichlet pairs alike
    assert routes[0] == "scan" and "scan" in routes[len(diracs):]


def _exact_access(rows, mu, nu):
    E = fraction_hitting_matrix(rows)
    d = [Fraction(float(a)) - Fraction(float(b)) for a, b in zip(mu.weights, nu.weights)]
    N = len(d)
    return max(sum(d[i] * E[i][j] for i in range(N)) for j in range(N))


@settings(max_examples=150, deadline=None)
@given(rows=stiff_sparse_chains(), data=st.data())
def test_gated_scan_matches_exact_elimination(rows, data):
    N = rows.shape[0]
    # 16 unit masses: the weights are dyadic, so mu - nu is exact and sums to 0
    masses = st.lists(st.integers(0, N - 1), min_size=16, max_size=16)
    mu = ProbabilityVector(np.bincount(data.draw(masses), minlength=N) / 16.0)
    nu = ProbabilityVector(np.bincount(data.draw(masses), minlength=N) / 16.0)
    result = access_time(TransitionMatrix(rows), mu, nu)
    if result.route == "scan":
        exact = _exact_access(rows, mu, nu)
        assert abs(Fraction(result.value) - exact) <= 1e-10 * max(1, abs(exact))


#: stiff chains as {(i, j): (m, e)} for the rate m * 2**-e, with a dyadic
#: pair on which the scan loses digits; in the second, h0 is small and only
#: the y / pi magnitudes in the error estimate show the loss
CANCELLING_SCANS = [
    ({(0, 1): (86, 30), (0, 2): (188, 14), (1, 2): (114, 37), (2, 0): (101, 40),
      (2, 1): (138, 13)},
     [0.25, 0.25, 0.5], [0.1875, 0.625, 0.1875]),
    ({(0, 1): (3, 42), (1, 0): (173, 12), (1, 2): (77, 36), (1, 3): (126, 12),
      (2, 0): (188, 44), (2, 1): (75, 44), (2, 3): (99, 12), (3, 0): (70, 24)},
     [0.1875, 0.0, 0.75, 0.0625], [0.1875, 0.0, 0.1875, 0.625]),
]


@pytest.mark.parametrize("rates, mu, nu", CANCELLING_SCANS)
def test_gate_refuses_a_scan_that_cancels_its_digits(rates, mu, nu):
    N = len(mu)
    rows = np.zeros((N, N))
    for (i, j), (m, e) in rates.items():
        rows[i, j] = m * 2.0**-e
    rows[np.arange(N), np.arange(N)] = 1.0 - rows.sum(axis=1)
    chain = TransitionMatrix(rows)
    mu, nu = ProbabilityVector(mu), ProbabilityVector(nu)
    exact = _exact_access(rows, mu, nu)
    per_target, _ = transport_scan(chain, mu.weights - nu.weights)
    assert abs(Fraction(float(per_target.max())) - exact) > 1e-7 * abs(exact)
    result = access_time(chain, mu, nu)
    assert result.route == "matrix"
    assert abs(Fraction(result.value) - exact) <= 1e-10 * max(1, abs(exact))


@pytest.mark.parametrize("N", [65, 257])
def test_dense_scan_estimate_covers_the_exact_scan(N, rng):
    # the complete graph given as an edge list takes the dense scan; every
    # E_i[tau_j], i != j, is N - 1, so (d @ M)_j = (N - 1) (sum(d) - d_j) exactly
    chain = build_chain(ChainSpec("graph", edges=[(i, j) for i in range(N) for j in range(i)]))
    mu, nu = dirichlet_pair(rng, N)
    for d in (dirac(0, N).weights - np.full(N, 1.0 / N), mu.weights - nu.weights):
        scores, err = transport_scan(chain, d)
        d = hitting.zero_sum(d)
        s = sum(map(Fraction, d.tolist()))
        for j in range(N):
            exact = (N - 1) * (s - Fraction(d[j]))
            assert abs(Fraction(scores[j]) - exact) <= Fraction(err[j]), j


def test_refused_scan_gives_the_matrix_answer_bit_for_bit(rng):
    chain = build_chain(ChainSpec("birth_death", n=30, p=0.25))
    mu, nu = dirichlet_pair(rng, chain.size)
    with mock.patch.object(access, "SCAN_GATE", 0.0):
        refused = access_time(chain, mu, nu)
    lu = access_time(chain, mu, nu, hitting=hitting_time_matrix(chain))
    assert refused.route == "matrix" and refused.error_bound is None
    assert refused.value == lu.value and refused.argmax_target == lu.argmax_target
    assert np.array_equal(refused.per_target, lu.per_target)


def test_identical_pair_scans_to_exact_zero():
    chain = build_chain(ChainSpec("winning_streak", n=12))
    mu = ProbabilityVector(np.arange(1.0, chain.size + 1))
    per_target, err = transport_scan(chain, mu.weights - mu.weights)
    assert not err.any() and not per_target.any()


def test_compute_builds_no_hitting_matrix(capsys):
    refuse = mock.Mock(side_effect=AssertionError("hitting matrix built"))
    argv = ["compute", "--chain", '{"family":"path","n":256}', "--mu", "dirac:0",
            "--nu", "dirac:256", "--closed-form"]
    with mock.patch("access_time.cli.hitting_time_matrix", refuse), mock.patch(
        "access_time.access.hitting_time_matrix", refuse
    ):
        code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and not refuse.called
    assert payload["value"] == pytest.approx(256.0**2, rel=1e-12)
    assert payload["argmax_target"] == 256
    assert payload["family_report"]["discrepancy"] <= 1e-9 * 256.0**2


def test_compute_on_a_tridiagonal_chain_never_reduces_the_states(capsys):
    refuse = mock.Mock(side_effect=AssertionError("state reduction on a tridiagonal chain"))
    argv = ["compute", "--chain", '{"family":"path","n":512}', "--mu", "stationary",
            "--nu", "dirac:0", "--closed-form"]
    with mock.patch.object(hitting, "_state_reduction", refuse):
        code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and not refuse.called
    # pi_i = deg(i) / 2n and E_i[tau_0] = 2 n i - i^2, so H(pi, delta_0) = E_pi[tau_0]
    n = 512
    degree = np.r_[1, np.full(n - 1, 2), 1]
    i = np.arange(n + 1)
    expected = float(degree @ (2 * n * i - i * i)) / (2 * n)
    assert payload["value"] == pytest.approx(expected, rel=1e-12)
    assert payload["argmax_target"] == 0
    assert payload["family_report"]["discrepancy"] <= 1e-9 * expected


def test_scan_peak_memory_is_a_few_state_tables(rng):
    chain = build_chain(ChainSpec("path", n=1024))
    N = chain.size
    mu, nu = dirichlet_pair(rng, N)
    tracemalloc.start()
    try:
        transport_scan(chain, mu.weights - nu.weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * N * N * 8
