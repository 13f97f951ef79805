import csv
import json
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from access_time import (
    ChainSpec,
    ChainSpecError,
    HittingTimeMatrix,
    ReducibleChainError,
    TransitionMatrix,
    birth_death_hitting_formula,
    build_chain,
    complete_hitting_formula,
    hitting_time_matrix,
    hitting_time_to,
    is_hitting_symmetric,
    kemeny_tav,
    max_hitting_time,
    path_hitting_formula,
    random_connected_graph,
    spectral_tav,
    star_hitting_formula,
    stationary_distribution,
    winning_streak_hitting_formula,
)
from access_time import ProbabilityVector, sample_trajectory, simulate_rule, validate_chain
from access_time import hitting
from access_time.cli import main
from access_time.hitting import STATIONARY_PANEL, detailed_balance_residual
from conftest import small_family_chains
from oracles import cube_antipodal_exact, fraction_hitting_matrix, fraction_stationary


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


EPS = np.finfo(float).eps


def on_tridiagonal_route(chain):
    return max(chain.bandwidth) <= 1


# --- solver correctness ------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec("winning_streak", n=4),
        ChainSpec("star", n=3),
        ChainSpec("birth_death", n=4, p=0.3),
        ChainSpec("hypercube", n=2),
    ],
)
def test_solver_matches_exact_elimination(spec):
    chain = build_chain(spec)
    M = hitting_time_matrix(chain)
    exact = fraction_hitting_matrix(chain.rows)
    for i in range(chain.size):
        for j in range(chain.size):
            assert rel_close(M.values[i, j], float(exact[i][j]), 1e-12)


def test_solver_matches_exact_elimination_random_chain(rng):
    rows = rng.dirichlet(np.ones(6), size=6)
    chain = TransitionMatrix(rows)
    M = hitting_time_matrix(chain)
    exact = fraction_hitting_matrix(chain.rows)
    for i in range(6):
        for j in range(6):
            assert rel_close(M.values[i, j], float(exact[i][j]), 1e-11)


def test_path_hitting_examples():
    M = hitting_time_matrix(build_chain(ChainSpec("path", n=2)))
    assert M.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert M.values[1, 2] == pytest.approx(3.0, abs=1e-12)
    assert M.values[0, 2] == pytest.approx(4.0, abs=1e-12)


def test_winning_streak_hitting_examples():
    M = hitting_time_matrix(build_chain(ChainSpec("winning_streak", n=3)))
    assert M.values[0, 2] == pytest.approx(6.0, abs=1e-12)  # state 1 to state 3
    assert M.values[2, 1] == pytest.approx(4.0, abs=1e-12)  # state 3 to state 2


def test_star_hitting_examples():
    M = hitting_time_matrix(build_chain(ChainSpec("star", n=4)))
    assert M.values[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert M.values[0, 1] == pytest.approx(7.0, abs=1e-12)
    assert M.values[2, 3] == pytest.approx(8.0, abs=1e-12)


def test_diagonal_zero_offdiagonal_positive():
    for chain in small_family_chains().values():
        M = hitting_time_matrix(chain)
        assert np.all(np.diag(M.values) == 0.0)
        off = M.values[~np.eye(chain.size, dtype=bool)]
        assert off.min() > 0.0


def test_hitting_column_matches_matrix():
    chain = build_chain(ChainSpec("birth_death", n=7, p=0.2))
    M = hitting_time_matrix(chain)
    for j in (0, 3, 7):
        np.testing.assert_allclose(hitting_time_to(chain, j), M.values[:, j], rtol=1e-12)


# --- closed-form lemmas vs solver --------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 40, 256, 1024])
def test_path_lemma_both_branches(n):
    chain = build_chain(ChainSpec("path", n=n))
    assert on_tridiagonal_route(chain)
    M = hitting_time_matrix(chain)
    # every step time is an odd integer, so the recurrence is exact
    np.testing.assert_array_equal(M.values, path_hitting_formula(n))


@pytest.mark.parametrize("n", [2, 5, 12, 30])
def test_winning_streak_lemma(n):
    M = hitting_time_matrix(build_chain(ChainSpec("winning_streak", n=n)))
    F = winning_streak_hitting_formula(n)
    assert np.abs((M.values - F) / np.maximum(1.0, F)).max() <= 1e-9


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("n", [2, 9, 30])
def test_birth_death_uphill_lemma(n, p):
    M = hitting_time_matrix(build_chain(ChainSpec("birth_death", n=n, p=p)))
    F = birth_death_hitting_formula(n, p)
    up = np.triu_indices(n + 1, k=1)
    assert np.abs((M.values[up] - F[up]) / np.maximum(1.0, F[up])).max() <= 1e-9


def test_birth_death_downhill_mirror_matches_but_textbook_does_not():
    n, p = 10, 0.3
    M = hitting_time_matrix(build_chain(ChainSpec("birth_death", n=n, p=p)))
    mirror = birth_death_hitting_formula(n, p, downhill="mirror")
    textbook = birth_death_hitting_formula(n, p, downhill="textbook")
    down = np.tril_indices(n + 1, k=-1)
    assert np.abs((M.values[down] - mirror[down]) / np.maximum(1.0, mirror[down])).max() <= 1e-9
    # the textbook branch undershoots, e.g. one step down from state 1 to 0
    assert textbook[1, 0] == 0.0 and M.values[1, 0] > 1.0


def test_star_and_complete_formulas():
    M = hitting_time_matrix(build_chain(ChainSpec("star", n=6)))
    np.testing.assert_allclose(M.values, star_hitting_formula(6), atol=1e-10)
    M = hitting_time_matrix(build_chain(ChainSpec("complete", n=6)))
    np.testing.assert_allclose(M.values, complete_hitting_formula(6), atol=1e-10)


# --- solver-wide invariants ---------------------------------------------------


def family_grid():
    specs = [
        ChainSpec("birth_death", n=33, p=0.25),
        ChainSpec("winning_streak", n=20),
        ChainSpec("hypercube", n=5),
        ChainSpec("path", n=33),
        ChainSpec("complete", n=33),
        ChainSpec("star", n=33),
    ]
    return [build_chain(s) for s in specs]


@pytest.mark.parametrize("chain", family_grid(), ids=lambda c: c.family)
def test_first_step_residual(chain):
    M = hitting_time_matrix(chain)
    R = M.values - 1.0 - chain.rows @ M.values
    R[np.eye(chain.size, dtype=bool)] = 0.0
    assert np.abs(R).max() <= 1e-9 * max(1.0, M.values.max())


def test_first_step_residual_large_path():
    chain = build_chain(ChainSpec("path", n=512))
    M = hitting_time_matrix(chain)
    R = M.values - 1.0 - chain.rows @ M.values
    R[np.eye(chain.size, dtype=bool)] = 0.0
    assert np.abs(R).max() <= 1e-9 * max(1.0, M.values.max())


@pytest.mark.parametrize("chain", family_grid(), ids=lambda c: c.family)
def test_triangle_inequality(chain):
    M = hitting_time_matrix(chain).values
    relaxed = np.min(M[:, :, None] + M[None, :, :], axis=1)  # min over the waypoint
    assert np.all(M <= relaxed + 1e-9 * max(1.0, M.max()))


@pytest.mark.parametrize("chain", family_grid(), ids=lambda c: c.family)
def test_random_target_lemma(chain):
    M = hitting_time_matrix(chain)
    pi = stationary_distribution(chain).weights
    per_start = M.values @ pi  # sum_j pi_j E_i[tau_j] for each start i
    t_av = kemeny_tav(chain, hitting=M).t_av_doublesum
    assert np.abs(per_start - t_av).max() <= 1e-8 * t_av


# --- stationary law -----------------------------------------------------------


def test_stationary_examples():
    np.testing.assert_allclose(
        stationary_distribution(build_chain(ChainSpec("complete", n=3))).weights,
        np.full(4, 0.25),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        stationary_distribution(build_chain(ChainSpec("star", n=3))).weights,
        [0.5, 1 / 6, 1 / 6, 1 / 6],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        stationary_distribution(build_chain(ChainSpec("path", n=2))).weights,
        [0.25, 0.5, 0.25],
        atol=1e-14,
    )


def test_stationary_residual_and_degree_formula(rng):
    from access_time import random_connected_graph

    for _ in range(5):
        edges = random_connected_graph(17, rng, extra_edges=9)
        chain = build_chain(ChainSpec("graph", edges=edges))
        pi = stationary_distribution(chain).weights
        assert np.abs(pi @ chain.rows - pi).max() <= 1e-10
        deg = np.array([sum(1 for e in edges if v in e) for v in range(17)], dtype=float)
        np.testing.assert_allclose(pi, deg / (2 * len(edges)), rtol=1e-12)


def test_stationary_matches_exact_elimination(rng):
    rows = rng.dirichlet(np.ones(7), size=7)
    chain = TransitionMatrix(rows)
    pi = stationary_distribution(chain).weights
    exact = np.array([float(x) for x in fraction_stationary(rows)])
    np.testing.assert_allclose(pi, exact, rtol=1e-12)


def test_stationary_large_chain_residual():
    chain = build_chain(ChainSpec("birth_death", n=512, p=0.37))
    pi = stationary_distribution(chain).weights
    assert np.abs(pi @ chain.rows - pi).max() <= 1e-10
    assert pi.min() > 0


#: one partial panel, one full panel, and three full panels plus a partial one
PANEL_SIZES = (STATIONARY_PANEL, STATIONARY_PANEL + 1, 3 * STATIONARY_PANEL + 20)


def doubly_stochastic_chain(N, rng):
    """A dominant directed N-cycle plus three random permutations with
    weights log-spread over [1e-12, 1]: non-reversible, with uniform pi."""
    weights = np.r_[1.0, 10.0 ** rng.uniform(-12, 0, size=3)]
    targets = [np.roll(np.arange(N), -1)] + [rng.permutation(N) for _ in range(3)]
    rows = np.zeros((N, N))
    for w, target in zip(weights, targets):
        rows[np.arange(N), target] += w
    return TransitionMatrix(rows / weights.sum())


@pytest.mark.parametrize("N", PANEL_SIZES)
def test_stationary_panels_graph_walk(N, rng):
    edges = random_connected_graph(N, rng, extra_edges=N)
    chain = build_chain(ChainSpec("graph", edges=edges))
    deg = np.bincount(np.ravel(edges), minlength=N)
    # by hand the walk names no family, so its law comes from the blocked reduction
    pi = stationary_distribution(TransitionMatrix(chain.rows)).weights
    np.testing.assert_allclose(pi, deg / (2 * len(edges)), rtol=1e-12)


@pytest.mark.parametrize("n, extra", [(2, 0), (5, 3), (17, 9), (40, 0), (40, 200), (129, 129)])
def test_degree_law_matches_the_state_reduction(n, extra, rng):
    edges = random_connected_graph(n, rng, extra_edges=extra)
    chain = build_chain(ChainSpec("graph", edges=edges))
    with mock.patch.object(hitting, "_state_reduction", side_effect=AssertionError("reduced")):
        pi = stationary_distribution(chain).weights
    deg = np.bincount(np.ravel(edges), minlength=n)
    assert np.array_equal(pi, deg / (2.0 * len(edges)))  # each weight correctly rounded
    np.testing.assert_allclose(pi, hitting._grounded_factors(chain)[1].weights, rtol=1e-13)
    assert detailed_balance_residual(chain, stationary_distribution(chain)) <= 1e-15


@pytest.mark.parametrize("N", PANEL_SIZES)
def test_stationary_panels_stiff_birth_death(N):
    chain = build_chain(ChainSpec("birth_death", n=N - 1, p=1e-12))
    pi = stationary_distribution(chain).weights
    np.testing.assert_allclose(pi, np.full(N, 1.0 / N), rtol=1e-12)


@pytest.mark.parametrize("N", PANEL_SIZES)
def test_stationary_panels_doubly_stochastic(N, rng):
    chain = doubly_stochastic_chain(N, rng)
    pi = stationary_distribution(chain)
    assert detailed_balance_residual(chain, pi) > 0.1 / N  # genuinely non-reversible
    np.testing.assert_allclose(pi.weights, np.full(N, 1.0 / N), rtol=1e-12)


def unblocked_reduction(rows):
    """The per-state reduction: fold k = N-1 .. 1, one outer product each."""
    A = rows.copy()
    for k in range(A.shape[0] - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    return A


@pytest.mark.parametrize("panel, chunk", [(3, 2), (5, 4), (7, 16)])
def test_state_reduction_keeps_every_folded_row_and_column(panel, chunk, monkeypatch, rng):
    monkeypatch.setattr(hitting, "STATIONARY_PANEL", panel)
    monkeypatch.setattr(hitting, "_GEMM_ROWS", chunk)
    for chain in (
        build_chain(ChainSpec("path", n=40)),
        build_chain(ChainSpec("birth_death", n=37, p=1e-12)),
        build_chain(ChainSpec("graph", edges=random_connected_graph(41, rng, extra_edges=30))),
        doubly_stochastic_chain(43, rng),
    ):
        A, ref = hitting._state_reduction(chain.dense()), unblocked_reduction(chain.rows)
        for k in range(1, chain.size):
            np.testing.assert_allclose(A[k, :k], ref[k, :k], rtol=1e-13)
            np.testing.assert_allclose(A[:k, k], ref[:k, k], rtol=1e-13)


@pytest.mark.parametrize("panel, chunk", [(3, 2), (64, 256)])
def test_state_reduction_keeps_each_pivot_on_the_diagonal(panel, chunk, monkeypatch, rng):
    monkeypatch.setattr(hitting, "STATIONARY_PANEL", panel)
    monkeypatch.setattr(hitting, "_GEMM_ROWS", chunk)
    for chain in (
        build_chain(ChainSpec("star", n=40)),
        build_chain(ChainSpec("graph", edges=random_connected_graph(41, rng, extra_edges=30))),
        doubly_stochastic_chain(43, rng),
    ):
        A = hitting._state_reduction(chain.dense())
        for k in range(1, chain.size):
            assert A[k, k] == A[k, :k].sum() > 0.0


# --- max hitting, symmetry ------------------------------------------------------


def test_max_hitting_examples():
    value, pair = max_hitting_time(build_chain(ChainSpec("path", n=10)))
    assert rel_close(value, 100.0) and pair == (0, 10)
    value, pair = max_hitting_time(build_chain(ChainSpec("complete", n=5)))
    assert rel_close(value, 5.0) and pair == (0, 1)
    value, pair = max_hitting_time(build_chain(ChainSpec("winning_streak", n=3)))
    assert rel_close(value, 6.0) and pair == (1, 3)  # 2^n - 2, below the loose 2^n


def test_hitting_symmetry():
    ok, asym = is_hitting_symmetric(build_chain(ChainSpec("complete", n=4)))
    assert ok and asym <= 1e-10
    ok, _ = is_hitting_symmetric(build_chain(ChainSpec("hypercube", n=3)))
    assert ok
    ok, asym = is_hitting_symmetric(build_chain(ChainSpec("star", n=5)))
    assert not ok
    assert asym == pytest.approx(8.0, rel=1e-9)  # E_0[tau_1] = 9 vs E_1[tau_0] = 1


# --- t_av: double sum and spectrum ----------------------------------------------


def test_kemeny_examples():
    assert kemeny_tav(build_chain(ChainSpec("complete", n=3))).t_av_doublesum == pytest.approx(
        2.25, rel=1e-12
    )
    lazy_two_state = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert kemeny_tav(lazy_two_state).t_av_doublesum == pytest.approx(1.0, rel=1e-12)


def test_spectral_examples():
    s = spectral_tav(build_chain(ChainSpec("complete", n=3)))
    np.testing.assert_allclose(s.eigenvalues, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)
    assert s.t_av_spectral == pytest.approx(2.25, rel=1e-12)

    s = spectral_tav(TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
    np.testing.assert_allclose(s.eigenvalues, [1.0, 0.0], atol=1e-12)
    assert s.t_av_spectral == pytest.approx(1.0, rel=1e-12)

    s = spectral_tav(build_chain(ChainSpec("hypercube", n=2)))  # the 4-cycle
    np.testing.assert_allclose(s.eigenvalues, [1.0, 0.0, 0.0, -1.0], atol=1e-12)
    assert s.t_av_spectral == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec("complete", n=10),
        ChainSpec("path", n=12),
        ChainSpec("hypercube", n=3),
        ChainSpec("star", n=8),
        ChainSpec("birth_death", n=10, p=0.3),
    ],
    ids=lambda s: s.family,
)
def test_spectral_matches_double_sum(spec):
    chain = build_chain(spec)
    ds = kemeny_tav(chain).t_av_doublesum
    sp = spectral_tav(chain).t_av_spectral
    assert abs(ds - sp) <= 1e-8 * ds


def test_spectral_refuses_non_reversible():
    ws = build_chain(ChainSpec("winning_streak", n=5))
    with pytest.raises(ChainSpecError, match="not reversible"):
        spectral_tav(ws)


# --- error paths -----------------------------------------------------------------


def test_reducible_chain_refused():
    rows = np.zeros((4, 4))
    rows[0, 1] = rows[1, 0] = 1.0
    rows[2, 3] = rows[3, 2] = 1.0
    chain = TransitionMatrix(rows)
    with pytest.raises(ReducibleChainError):
        hitting_time_matrix(chain)
    with pytest.raises(ReducibleChainError):
        stationary_distribution(chain)


def test_size_cap_env(monkeypatch):
    monkeypatch.setenv("ACCESS_TIME_MAX_N", "8")
    with pytest.raises(ChainSpecError, match="cap"):
        build_chain(ChainSpec("path", n=10))
    chain = build_chain(ChainSpec("path", n=7))
    hitting_time_matrix(chain)  # exactly at the cap
    monkeypatch.setenv("ACCESS_TIME_MAX_N", "4096")
    build_chain(ChainSpec("path", n=10))


def test_hitting_csv_round_trip(tmp_path):
    chain = build_chain(ChainSpec("winning_streak", n=4))
    M = hitting_time_matrix(chain)
    out = tmp_path / "hit.csv"
    M.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "1", "2", "3", "4"]
    parsed = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    np.testing.assert_array_equal(parsed, M.values)  # %.17g is lossless


# --- one irreducibility check per chain, off-diagonal first-step system ---------


@pytest.mark.parametrize("p", [1e-12, 1e-8, 1e-4])
def test_hitting_matrix_stiff_birth_death(p):
    # a holding probability of 1 - 2p must not cost digits: the system reads
    # the rates p, not 1 - (1 - 2p)
    M = hitting_time_matrix(build_chain(ChainSpec("birth_death", n=50, p=p)))
    np.testing.assert_allclose(
        M.values, birth_death_hitting_formula(50, p, "mirror"), rtol=1e-12, atol=0.0
    )


@pytest.fixture
def strong_component_calls(monkeypatch):
    """Every call of SciPy's strong components, patched in ``scipy.sparse.csgraph``,
    where the chain looks it up on its first use."""
    import scipy.sparse.csgraph as csgraph

    calls, original = [], csgraph.connected_components

    def counting(*args, **kwargs):
        if kwargs.get("connection") == "strong":
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counting)
    return calls


def test_strong_components_computed_once_per_chain(strong_component_calls):
    chain = build_chain(ChainSpec("path", n=8))
    uniform = ProbabilityVector(np.full(9, 1 / 9))

    def solve_all(P):
        stationary_distribution(P)
        hitting_time_matrix(P)
        simulate_rule(P, uniform, uniform, samples=1_000, seed=2)

    solve_all(chain)
    assert strong_component_calls == []  # irreducible by construction: no solve checks it
    assert validate_chain(chain).irreducible  # the diagnostics count its components
    assert len(strong_component_calls) == 1
    hand_built = TransitionMatrix(chain.rows)
    solve_all(hand_built)
    solve_all(hand_built)
    assert validate_chain(hand_built).irreducible
    assert len(strong_component_calls) == 2  # once per hand-built chain, then cached


def test_reducible_chain_refused_by_every_solve():
    rows = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])  # 0 absorbs
    chain = TransitionMatrix(rows)
    assert chain.strong_components == 2
    uniform = ProbabilityVector(np.full(3, 1 / 3))
    for target in range(3):
        with pytest.raises(ReducibleChainError, match="2 strongly connected"):
            hitting_time_to(chain, target)
    with pytest.raises(ReducibleChainError):
        simulate_rule(chain, uniform, uniform, samples=1_000)
    with pytest.raises(ReducibleChainError):
        sample_trajectory(chain, 2, 0, seed=0)


# --- tridiagonal step times and wider bands ----------------------------------


def dense_reference_column(P, target):
    """The first-step system of one target by partial-pivoted LU, an independent
    reference on chains whose rates are not stiff."""
    A = np.negative(P.rows, order="F")
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    A[target, :] = 0.0
    A[:, target] = 0.0
    A[target, target] = 1.0
    b = np.ones(P.size)
    b[target] = 0.0
    return lu_solve(lu_factor(A, overwrite_a=True), b, overwrite_b=True)


@pytest.mark.parametrize("p", [0.5, 0.2, 1e-12])
@pytest.mark.parametrize("n", [3, 40, 300])
def test_birth_death_mirror_lemma_at_every_target(n, p):
    chain = build_chain(ChainSpec("birth_death", n=n, p=p))
    assert on_tridiagonal_route(chain)
    M = hitting_time_matrix(chain)
    # F rounds once, in its division by 2p, and M is within its a priori bound
    F = birth_death_hitting_formula(n, p, "mirror")
    assert np.all(np.abs(M.values - F) <= (M.column_bound + EPS) * F)


@pytest.mark.parametrize("reach", [2, 3])
def test_banded_graph_matches_dense_route(reach):
    N = 40
    edges = [(i, i + 1) for i in range(N - 1)] + [(i, i + reach) for i in range(0, N - reach, 3)]
    chain = build_chain(ChainSpec("graph", edges=edges))
    assert chain.bandwidth == (reach, reach) and not on_tridiagonal_route(chain)
    columns = np.column_stack([hitting_time_to(chain, target) for target in range(N)])
    assert np.all(np.diag(columns) == 0.0)
    for target in range(N):
        np.testing.assert_allclose(columns[:, target], dense_reference_column(chain, target),
                                   rtol=1e-12)
    refuse = mock.Mock(side_effect=AssertionError("per-target solve on a certified chain"))
    with mock.patch.object(hitting, "hitting_time_to", refuse):
        M = hitting_time_matrix(chain)
    assert np.all(M.column_bound <= hitting.CERT_GATE)
    np.testing.assert_allclose(M.values, columns, rtol=1e-12)


def test_banded_chains_never_factor_densely(capsys, tmp_path):
    refuse = mock.Mock(side_effect=AssertionError("dense reduction on a banded chain"))
    with mock.patch.object(hitting, "_rooted_columns", refuse), mock.patch.object(
        hitting, "_state_reduction", refuse
    ):
        assert main(["bounds", "--chain", '{"family":"path","n":512}']) == 0
        assert json.loads(capsys.readouterr().out)["argmax_pair"] == [0, 512]
        out = tmp_path / "sweep.csv"
        code = main(["scale", "--families", "birth_death", "--n", "1024", "--p", "0.3",
                     "--out", str(out)])
        assert code == 0
    assert not refuse.called
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["max_hitting"]) == pytest.approx(1024 * 1025 / 0.6, rel=1e-12)


def assert_within_column_bounds(values, exact, bound):
    """|values[i, j] - E_i[tau_j]| <= bound[j] E_i[tau_j] in exact arithmetic.

    A column with a non-finite bound claims nothing and is skipped.
    """
    N = len(exact)
    for j in range(N):
        if not np.isfinite(bound[j]):
            continue
        b = Fraction(float(bound[j]))
        for i in range(N):
            assert abs(Fraction(float(values[i, j])) - exact[i][j]) <= b * exact[i][j], (i, j)


def test_wide_chains_take_the_certified_one_reduction_route():
    # a graph walk has no family lumping: the star, the complete graph and
    # the hypercube take the lumped route (tests/test_lumped_route.py)
    spec = ChainSpec("graph", edges=random_connected_graph(12, np.random.default_rng(5), 14))
    chain = build_chain(spec)
    assert not on_tridiagonal_route(chain) and chain.family not in hitting.LUMPINGS
    refuse = mock.Mock(side_effect=AssertionError("per-target solve on a certified chain"))
    with mock.patch.object(hitting, "hitting_time_to", refuse), mock.patch.object(
        hitting, "_rooted_columns", refuse
    ), mock.patch.object(hitting, "_state_reduction", wraps=hitting._state_reduction) as reduce:
        M = hitting_time_matrix(chain)
    assert reduce.call_count == 1
    exact = fraction_hitting_matrix(chain.rows)
    assert M.column_bound.shape == (chain.size,)
    assert np.all(M.column_bound <= hitting.CERT_GATE)
    assert_within_column_bounds(M.values, exact, M.column_bound)


def test_refused_columns_fall_back_to_the_per_target_solve():
    # entries reach 2**40, so the rounding of the residual alone refuses
    # 25 of the 40 columns; the rooted reductions get them exactly, and so
    # does the one reduction: the certificate refuses them, not an error
    chain = build_chain(ChainSpec("winning_streak", n=40))
    assert np.array_equal(hitting._grounded_matrix(chain), winning_streak_hitting_formula(40))
    with mock.patch.object(
        hitting, "_rooted_columns", wraps=hitting._rooted_columns
    ) as rooted, mock.patch.object(
        hitting, "_state_reduction", wraps=hitting._state_reduction
    ) as reduce:
        M = hitting_time_matrix(chain)
    (call,) = rooted.call_args_list
    refused = call.args[1]
    assert len(refused) == 25
    assert reduce.call_count == 2  # the one reduction, then one stack of the refused targets
    assert np.all(M.column_bound[refused] > hitting.CERT_GATE)
    assert np.isfinite(M.column_bound).all()
    np.testing.assert_array_equal(M.values, winning_streak_hitting_formula(40))
    for j in refused:
        assert np.array_equal(hitting_time_to(chain, j), M.values[:, j])


@pytest.mark.parametrize("panel, chunk", [(3, 2), (64, 256)])
def test_a_stack_reduces_as_each_of_its_arrays(panel, chunk, monkeypatch, rng):
    monkeypatch.setattr(hitting, "STATIONARY_PANEL", panel)
    monkeypatch.setattr(hitting, "_GEMM_ROWS", chunk)
    chain = build_chain(ChainSpec("graph", edges=random_connected_graph(23, rng, extra_edges=30)))
    stack = np.stack([chain.dense(), doubly_stochastic_chain(23, rng).dense()])
    alone = [hitting._state_reduction(A.copy()) for A in stack]
    reduced = hitting._state_reduction(stack)
    # bit for bit, so a column of a stack is the column of a stack of one
    for A, B in zip(reduced, alone):
        assert np.array_equal(A, B)
    for h, A in zip(hitting._times_to_root(reduced), alone):
        assert np.array_equal(h, hitting._times_to_root(A))


@pytest.mark.parametrize(
    # a dyadic p keeps the diagonal exact, so the oracle solves the same chain
    "spec",
    [ChainSpec("path", n=8), ChainSpec("birth_death", n=6, p=2.0**-40)],
    ids=["path", "birth_death"],
)
def test_tridiagonal_matrix_carries_its_a_priori_bound(spec):
    chain = build_chain(spec)
    M = hitting_time_matrix(chain)
    N = chain.size
    assert np.array_equal(M.column_bound, np.full(N, 3 * N * EPS))
    assert_within_column_bounds(M.values, fraction_hitting_matrix(chain.rows), M.column_bound)
    assert HittingTimeMatrix(values=M.values, labels=M.labels).column_bound is None


def count_package_calls(monkeypatch, *names):
    """Count calls of ``hitting.<name>`` through every binding in the package."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and key.split(".")[0] == "access_time"]
    for name in names:
        original = getattr(hitting, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return counts


def test_bounds_on_a_banded_chain_solves_per_target(monkeypatch, capsys):
    counts = count_package_calls(
        monkeypatch, "hitting_time_matrix", "hitting_time_to", "_require_solvable"
    )
    assert main(["bounds", "--chain", '{"family":"path","n":8}']) == 0
    assert rel_close(json.loads(capsys.readouterr().out)["max_hitting"], 64.0, 1e-12)
    assert counts == {"hitting_time_matrix": 1, "hitting_time_to": 9, "_require_solvable": 10}


def test_bounds_on_the_9_cube_needs_no_per_target_solve(capsys):
    refuse = mock.Mock(side_effect=AssertionError("per-target solve on the 9-cube"))
    with mock.patch.object(hitting, "hitting_time_to", refuse):
        assert main(["bounds", "--chain", '{"family":"hypercube","n":9}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert rel_close(out["max_hitting"], float(cube_antipodal_exact(9)), 1e-12)
    assert out["argmax_pair"] == ["000000000", "111111111"]
