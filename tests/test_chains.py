import numpy as np
import pytest
from scipy.sparse import csr_matrix

from access_time import (
    ChainSpec,
    ChainSpecError,
    DistSpec,
    ProbabilityVector,
    TransitionMatrix,
    access_time,
    build_chain,
    build_distribution,
    hitting_time_matrix,
    hitting_time_to,
    random_connected_graph,
    simulate_rule,
    truncated_moments,
    validate_chain,
)
from access_time import chains
from conftest import dirac
from oracles import binomial_pmf_by_convolution, return_time_period


# --- generators ------------------------------------------------------------


def test_birth_death_rows_half():
    chain = build_chain(ChainSpec("birth_death", n=2, p=0.5))
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    np.testing.assert_array_equal(chain.rows, expected)


def test_birth_death_interior_holding():
    chain = build_chain(ChainSpec("birth_death", n=4, p=0.2))
    assert chain.rows[2, 2] == pytest.approx(0.6)  # 1 - 2p inside
    assert chain.rows[0, 0] == pytest.approx(0.8)  # 1 - p at the ends
    assert chain.rows[4, 4] == pytest.approx(0.8)


def test_path_rows():
    chain = build_chain(ChainSpec("path", n=2))
    expected = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(chain.rows, expected)


@pytest.mark.parametrize("n", [1, 2, 512])
def test_path_rows_match_the_row_loop(n):
    expected = np.zeros((n + 1, n + 1))
    expected[0, 1] = 1.0
    expected[n, n - 1] = 1.0
    for i in range(1, n):
        expected[i, i - 1] = expected[i, i + 1] = 0.5
    assert np.array_equal(build_chain(ChainSpec("path", n=n)).rows, expected)


def test_winning_streak_rows():
    chain = build_chain(ChainSpec("winning_streak", n=3))
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
    np.testing.assert_array_equal(chain.rows, expected)
    assert chain.labels == (1, 2, 3)


def test_complete_and_star_rows():
    k4 = build_chain(ChainSpec("complete", n=3))
    assert np.all(k4.rows[~np.eye(4, dtype=bool)] == 1 / 3)
    assert np.all(np.diag(k4.rows) == 0.0)
    star = build_chain(ChainSpec("star", n=4))
    assert np.all(star.rows[0, 1:] == 0.25)
    assert np.all(star.rows[1:, 0] == 1.0)


def test_hypercube_rows_and_labels():
    cube = build_chain(ChainSpec("hypercube", n=3))
    assert cube.size == 8
    assert cube.labels[5] == "101"
    # neighbours of 000 are 001, 010, 100
    np.testing.assert_array_equal(np.flatnonzero(cube.rows[0]), [1, 2, 4])
    assert cube.rows[0, 1] == pytest.approx(1 / 3)


#: every generator over a grid of sizes, stiff birth-death rates included: the solver
#: skips the strong components of every chain ``build_chain`` makes, so they are checked here
GENERATOR_GRID = [
    ChainSpec("birth_death", n=512, p=0.1),
    ChainSpec("winning_streak", n=40),
    ChainSpec("hypercube", n=9),
    ChainSpec("path", n=512),
    ChainSpec("complete", n=512),
    ChainSpec("star", n=512),
    *(ChainSpec("birth_death", n=n, p=p) for n in (1, 2, 3, 8, 65)
      for p in (0.5, 0.1, 1e-12, 5e-324)),
    *(ChainSpec("winning_streak", n=n) for n in (1, 2, 3, 8)),
    *(ChainSpec("hypercube", n=d) for d in range(1, 9)),
    *(ChainSpec(family, n=n) for family in ("path", "complete", "star") for n in (1, 2, 3, 8, 129)),
]


@pytest.mark.parametrize("spec", GENERATOR_GRID)
def test_rows_stochastic_and_irreducible(spec):
    chain = build_chain(spec)
    assert np.abs(chain.rows.sum(axis=1) - 1.0).max() <= 1e-12
    assert validate_chain(chain).irreducible


def test_random_graph_stochastic_and_irreducible(rng):
    for _ in range(10):
        n = int(rng.integers(2, 41))
        edges = random_connected_graph(n, rng, extra_edges=int(rng.integers(0, n)))
        chain = build_chain(ChainSpec("graph", edges=edges))
        assert np.abs(chain.rows.sum(axis=1) - 1.0).max() <= 1e-12
        assert validate_chain(chain).irreducible


def test_path_is_half_birth_death_except_boundaries():
    n = 11
    path = build_chain(ChainSpec("path", n=n)).rows
    bd = build_chain(ChainSpec("birth_death", n=n, p=0.5)).rows
    np.testing.assert_array_equal(path[1:-1], bd[1:-1])
    assert path[0, 1] == 1.0 and bd[0, 1] == 0.5 and bd[0, 0] == 0.5
    assert path[n, n - 1] == 1.0 and bd[n, n - 1] == 0.5 and bd[n, n] == 0.5


# --- spec validation -------------------------------------------------------


def test_winning_streak_cap():
    build_chain(ChainSpec("winning_streak", n=40))
    with pytest.raises(ChainSpecError, match="capped"):
        ChainSpec("winning_streak", n=41)


@pytest.mark.parametrize("p", [0.0, -0.1, 0.51, 1.0])
def test_birth_death_p_range(p):
    with pytest.raises(ChainSpecError):
        ChainSpec("birth_death", n=5, p=p)


def test_p_rejected_outside_birth_death():
    with pytest.raises(ChainSpecError, match="p parameter"):
        ChainSpec("path", n=5, p=0.3)


def test_unknown_family_and_bad_n():
    with pytest.raises(ChainSpecError):
        ChainSpec("tree", n=3)
    with pytest.raises(ChainSpecError):
        ChainSpec("path", n=0)
    with pytest.raises(ChainSpecError):
        ChainSpec("birth_death", p=0.3)


def test_graph_validation():
    with pytest.raises(ChainSpecError, match="disconnected"):
        build_chain(ChainSpec("graph", edges=((0, 1), (2, 3))))
    with pytest.raises(ChainSpecError, match="self loop"):
        ChainSpec("graph", edges=((0, 0), (0, 1)))
    with pytest.raises(ChainSpecError, match="does not match"):
        ChainSpec("graph", n=5, edges=((0, 1), (1, 2)))
    tri = build_chain(ChainSpec("graph", edges=((0, 1), (1, 2), (0, 2))))
    assert np.allclose(tri.rows, build_chain(ChainSpec("complete", n=2)).rows)


def test_chain_spec_json_round_trip():
    for spec in (
        ChainSpec("birth_death", n=100, p=0.25),
        ChainSpec("graph", edges=((0, 1), (1, 2))),
        ChainSpec("hypercube", n=4),
    ):
        assert ChainSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ChainSpecError, match="unknown chain spec keys"):
        ChainSpec.from_json({"family": "path", "n": 3, "q": 1})


def test_transition_matrix_rejects_bad_rows():
    with pytest.raises(ChainSpecError, match="stochastic"):
        TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ChainSpecError, match="non-negative"):
        TransitionMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ChainSpecError, match="square"):
        TransitionMatrix(np.ones((2, 3)) / 3)


def test_transition_matrix_rejects_nan_entries():
    # NaN compares False both in the sign test and in the row-sum test
    with pytest.raises(ChainSpecError, match="finite"):
        TransitionMatrix(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_immutability():
    chain = build_chain(ChainSpec("path", n=3))
    with pytest.raises(ValueError):
        chain.rows[0, 0] = 1.0
    vec = ProbabilityVector(np.ones(4))
    with pytest.raises(ValueError):
        vec.weights[0] = 2.0


# --- bandwidth -----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [ChainSpec("path", n=1), ChainSpec("path", n=30), ChainSpec("birth_death", n=30, p=0.2)],
    ids=lambda s: f"{s.family}-{s.n}",
)
def test_tridiagonal_families_have_bandwidth_one(spec):
    assert build_chain(spec).bandwidth == (1, 1)


@pytest.mark.parametrize(
    "spec, bandwidth",
    [
        (ChainSpec("star", n=12), (12, 12)),
        (ChainSpec("complete", n=12), (12, 12)),
        (ChainSpec("winning_streak", n=12), (11, 1)),  # every state resets to state 1
        (ChainSpec("hypercube", n=4), (8, 8)),
    ],
    ids=["star", "complete", "winning_streak", "hypercube"],
)
def test_wide_families_are_dense_routed(spec, bandwidth):
    chain = build_chain(spec)
    assert chain.bandwidth == bandwidth
    assert 2 * sum(bandwidth) >= chain.size


def test_bandwidth_of_hand_made_chains():
    graph = build_chain(ChainSpec("graph", edges=[(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]))
    assert graph.bandwidth == (3, 3)
    cycle = np.zeros((4, 4))
    cycle[0, 1] = cycle[1, 2] = cycle[2, 3] = 1.0
    cycle[3, 0] = 0.5
    cycle[3, 3] = 0.5  # holding never widens the band
    assert TransitionMatrix(cycle).bandwidth == (3, 1)
    assert TransitionMatrix(np.ones((1, 1))).bandwidth == (0, 0)


def test_row_starts_search_the_edges_in_their_own_type(monkeypatch):
    chain = build_chain(ChainSpec("complete", n=40))
    queries = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, *args: queries.append(
        (a.dtype, np.asarray(v).dtype)) or search(a, v, *args))
    starts = TransitionMatrix._row_starts.func(chain)  # the build has cached it
    # an int64 query of the int32 edges would first copy every edge to int64
    assert queries == [(np.int32, np.int32)]
    assert np.array_equal(starts, 40 * np.arange(42))  # 40 edges a row


def _count_row_scans(monkeypatch, N):
    """The NumPy non-zero scans of an N x N array from now on, as a list that grows."""
    scans = []
    for name in ("nonzero", "flatnonzero", "count_nonzero"):

        def counting(a, *args, _name=name, _scan=getattr(np, name), **kwargs):
            if np.shape(a) == (N, N):
                scans.append(_name)
            return _scan(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return scans


def test_one_sparsity_pass_serves_scc_and_bandwidth(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return csr_matrix(*args, **kwargs)

    monkeypatch.setattr(chains, "csr_matrix", counting)
    chain = build_chain(ChainSpec("path", n=6))
    scans = _count_row_scans(monkeypatch, chain.size)
    assert chain.strong_components == 1 and chain.bandwidth == (1, 1)
    assert chain.bandwidth == (1, 1) and chain.strong_components == 1
    assert len(built) == 1
    # the diagnostics and the Monte Carlo kernel read the same edge list
    assert validate_chain(chain).period == 2
    simulate_rule(chain, dirac(0, 7), dirac(6, 7), samples=1000, seed=0)
    # the generator emits the edges, so no dense row is scanned or even built
    assert scans == [] and "rows" not in vars(chain)


def test_dense_routes_build_their_arrays_from_the_edges(monkeypatch):
    # a graph walk is neither tridiagonal nor lumped, so every solve below but its
    # stationary law, read off the degrees, is dense
    edges = random_connected_graph(7, np.random.default_rng(3), 6)
    chain = build_chain(ChainSpec("graph", edges=edges))
    built = []
    dense = TransitionMatrix.dense
    monkeypatch.setattr(TransitionMatrix, "dense", lambda self: built.append(self) or dense(self))
    scans = _count_row_scans(monkeypatch, chain.size)
    assert validate_chain(chain).irreducible  # the degree law: no dense array
    M = hitting_time_matrix(chain)  # the one-reduction matrix and its certificate
    h = hitting_time_to(chain, 3)  # the rooted reduction, its array written from the edges
    simulate_rule(chain, dirac(1, 7), dirac(2, 7), samples=1000, seed=0, hitting=M)
    access_time(chain, dirac(1, 7), dirac(2, 7))  # the transport scan's state reduction
    # the matrix's state reduction, the certificate's first-step matrix and the
    # scan's state reduction
    assert built == [chain] * 3
    np.testing.assert_allclose(h, M.values[:, 3], rtol=1e-12)
    # each dense route writes its own working array from the edges: no scan, no cached view
    assert scans == [] and "rows" not in vars(chain)
    TransitionMatrix(chain.rows)  # a hand-built matrix is scanned once, into its edges
    assert scans == ["nonzero"]


def test_step_times_of_tridiagonal_families():
    n = 30
    up, down = build_chain(ChainSpec("path", n=n)).step_times
    k = np.arange(n)
    np.testing.assert_array_equal(up, 2 * k + 1)  # E_k[tau_{k+1}] = 2k + 1
    np.testing.assert_array_equal(down, 2 * (n - 1 - k) + 1)
    p = 0.3
    chain = build_chain(ChainSpec("birth_death", n=n, p=p))
    up, down = chain.step_times
    np.testing.assert_allclose(up, (k + 1) / p, rtol=4 * n * np.finfo(float).eps)
    np.testing.assert_allclose(down, up[::-1], rtol=4 * n * np.finfo(float).eps)
    assert chain.step_times is chain.step_times and not up.flags.writeable
    assert [a.size for a in TransitionMatrix(np.ones((1, 1))).step_times] == [0, 0]


# --- distributions ----------------------------------------------------------


def test_dirac_examples():
    path4 = build_chain(ChainSpec("path", n=4))
    np.testing.assert_array_equal(
        build_distribution(DistSpec("dirac", at=0), path4).weights, [1, 0, 0, 0, 0]
    )
    ws = build_chain(ChainSpec("winning_streak", n=3))
    np.testing.assert_array_equal(
        build_distribution(DistSpec("dirac", at=1), ws).weights, [1, 0, 0]
    )
    cube = build_chain(ChainSpec("hypercube", n=3))
    assert build_distribution(DistSpec("dirac", at="101"), cube).weights[5] == 1.0
    assert build_distribution(DistSpec("dirac", at=5), cube).weights[5] == 1.0


def test_uniform_example():
    path3 = build_chain(ChainSpec("path", n=3))
    np.testing.assert_allclose(
        build_distribution(DistSpec("uniform"), path3).weights, np.full(4, 0.25)
    )


def test_binomial_matches_convolution():
    path2 = build_chain(ChainSpec("path", n=2))
    got = build_distribution(DistSpec("binomial", p=0.2), path2).weights
    np.testing.assert_allclose(got, [0.64, 0.32, 0.04], rtol=1e-14)
    for n, p in [(7, 0.3), (20, 0.55)]:
        chain = build_chain(ChainSpec("path", n=n))
        got = build_distribution(DistSpec("binomial", p=p), chain).weights
        np.testing.assert_allclose(got, binomial_pmf_by_convolution(n, p), rtol=1e-12)


@pytest.mark.parametrize("n", [1100, 4095])
def test_binomial_past_the_float_range_of_its_coefficients(n):
    # comb(1100, 550) is past 1.8e308; Binomial(4095, 1/2) puts 2^-4095 at either end
    chain = build_chain(ChainSpec("path", n=n))
    got = build_distribution(DistSpec("binomial", p=0.5), chain).weights
    # below the normal range (2.2e-308) neither side carries relative precision
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(got, binomial_pmf_by_convolution(n, 0.5), rtol=1e-11, atol=tiny)


def test_binomial_on_shifted_labels():
    ws = build_chain(ChainSpec("winning_streak", n=5))  # labels 1..5, so 4 trials
    got = build_distribution(DistSpec("binomial", p=0.4), ws).weights
    np.testing.assert_allclose(got, binomial_pmf_by_convolution(4, 0.4), rtol=1e-12)


def test_binomial_rejected_on_hypercube():
    cube = build_chain(ChainSpec("hypercube", n=2))
    with pytest.raises(ChainSpecError, match="integer"):
        build_distribution(DistSpec("binomial", p=0.2), cube)


def test_explicit_weights():
    path2 = build_chain(ChainSpec("path", n=2))
    got = build_distribution(DistSpec("explicit", weights=(1, 2, 1)), path2)
    np.testing.assert_allclose(got.weights, [0.25, 0.5, 0.25])
    with pytest.raises(ChainSpecError, match="length"):
        build_distribution(DistSpec("explicit", weights=(1, 2)), path2)
    with pytest.raises(ChainSpecError, match="non-negative"):
        build_distribution(DistSpec("explicit", weights=(1, -1, 1)), path2)
    with pytest.raises(ChainSpecError, match="positive finite sum"):
        build_distribution(DistSpec("explicit", weights=(0, 0, 0)), path2)


def test_stationary_kind():
    k4 = build_chain(ChainSpec("complete", n=3))
    np.testing.assert_allclose(
        build_distribution(DistSpec("stationary"), k4).weights, np.full(4, 0.25), atol=1e-13
    )


def test_dirac_out_of_range():
    path2 = build_chain(ChainSpec("path", n=2))
    with pytest.raises(ChainSpecError):
        build_distribution(DistSpec("dirac", at=7), path2)


def test_dist_spec_validation_and_json():
    with pytest.raises(ChainSpecError):
        DistSpec("binomial", p=1.0)
    with pytest.raises(ChainSpecError):
        DistSpec("dirac")
    with pytest.raises(ChainSpecError):
        DistSpec("gaussian")
    spec = DistSpec("explicit", weights=(0.3, 0.7))
    assert DistSpec.from_json(spec.to_json()) == spec


# --- moment functionals -----------------------------------------------------


def test_moment_examples():
    m = truncated_moments(dirac(3, 6), np.arange(6))  # point mass at 3 on 0..5
    assert m.excess(1) == 2.0
    assert m.excess(3) == 0.0
    uni = truncated_moments(
        ProbabilityVector(np.full(101, 1 / 101)), np.arange(101)
    )
    assert uni.mean == pytest.approx(50.0, rel=1e-12)
    assert uni.second_moment == pytest.approx(100 * 201 / 6, rel=1e-12)
    d2 = truncated_moments(dirac(2, 6), np.arange(6))
    assert d2.pgf2 == 4.0
    assert d2.truncated_pgf2(1) == 0.0


def test_moment_bundle_rejects_noninteger_labels():
    cube = build_chain(ChainSpec("hypercube", n=2))
    with pytest.raises(ChainSpecError, match="integer"):
        truncated_moments(ProbabilityVector(np.full(4, 0.25)), cube.labels)


@pytest.mark.parametrize("n", [5, 50, 500])
def test_moment_bundle_identities(n, rng):
    labels = np.arange(n + 1)
    grid = np.unique(np.linspace(0, n, 26).astype(int))
    for _ in range(100):
        m = truncated_moments(ProbabilityVector(rng.dirichlet(np.ones(n + 1))), labels)
        assert m.truncated_pgf2(n) == m.pgf2
        assert m.excess(n) == 0.0
        assert m.minmax_sq(0) == pytest.approx(m.second_moment, rel=1e-12)
        tp = [m.truncated_pgf2(j) for j in grid]
        ex = [m.excess(j) for j in grid]
        assert all(a <= b + 1e-12 for a, b in zip(tp, tp[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ex, ex[1:]))
        # the square spread is the absolute moment E|Z^2 - j^2|
        j = int(rng.integers(0, n + 1))
        direct = m.weights @ np.abs(m.values.astype(float) ** 2 - float(j) ** 2)
        assert m.minmax_sq(j) == pytest.approx(direct, rel=1e-12)


# --- diagnostics ------------------------------------------------------------


def test_validate_complete():
    d = validate_chain(build_chain(ChainSpec("complete", n=3)))
    assert d.irreducible and d.reversible and d.aperiodic


def test_validate_path_is_periodic():
    d = validate_chain(build_chain(ChainSpec("path", n=2)))
    assert d.irreducible and d.reversible
    assert not d.aperiodic and d.period == 2


@pytest.mark.parametrize(
    "spec, period",
    [
        (ChainSpec("path", n=9), 2),
        (ChainSpec("star", n=6), 2),
        (ChainSpec("hypercube", n=4), 2),
        (ChainSpec("complete", n=7), 1),
        (ChainSpec("winning_streak", n=9), 1),
        (ChainSpec("birth_death", n=9, p=0.2), 1),
        # a tree is bipartite; eight extra edges close an odd cycle
        (ChainSpec("graph", edges=random_connected_graph(20, np.random.default_rng(5))), 2),
        (
            ChainSpec(
                "graph",
                edges=random_connected_graph(20, np.random.default_rng(6), extra_edges=8),
            ),
            1,
        ),
    ],
    ids=lambda v: v.family if isinstance(v, ChainSpec) else None,
)
def test_validate_period(spec, period):
    chain = build_chain(spec)
    assert validate_chain(chain).period == period == return_time_period(chain.rows)


def test_validate_period_of_directed_cycle():
    rows = np.roll(np.eye(6), 1, axis=1)  # i -> i + 1 mod 6
    rows[2, 3] = rows[2, 0] = 0.5  # cycles 0-1-2 and 0-1-2-3-4-5: period 3
    assert validate_chain(TransitionMatrix(rows)).period == 3


def test_validate_disconnected_blocks():
    rows = np.zeros((4, 4))
    rows[0, 1] = rows[1, 0] = 1.0
    rows[2, 3] = rows[3, 2] = 1.0
    d = validate_chain(TransitionMatrix(rows))
    assert not d.irreducible
    assert d.strong_components == 2
    assert d.reversible is None and d.period is None


# --- moment scans over many cut points --------------------------------------


@pytest.mark.parametrize("labels", [np.arange(9), np.arange(1, 31)])
def test_moment_bundle_array_cuts_match_direct_sums(labels, rng):
    m = truncated_moments(ProbabilityVector(rng.dirichlet(np.ones(labels.size))), labels)
    pairs = list(zip(m.values.tolist(), m.weights.tolist()))
    cuts = np.arange(labels.min() - 1, labels.max() + 2)
    expected = {
        "truncated_pgf2": [sum(w * 2.0**z for z, w in pairs if z <= j) for j in cuts],
        "excess": [sum(w * max(z - j, 0) for z, w in pairs) for j in cuts],
        "minmax_sq": [sum(w * (max(z, j) ** 2 - min(z, j) ** 2) for z, w in pairs) for j in cuts],
    }
    for name, direct in expected.items():
        scan = getattr(m, name)
        np.testing.assert_allclose(scan(cuts), direct, rtol=1e-13, atol=1e-300)
        grid = scan(cuts[:10].reshape(2, 5))
        np.testing.assert_allclose(grid, np.reshape(direct[:10], (2, 5)), rtol=1e-13, atol=1e-300)
        one = scan(int(cuts[3]))
        assert type(one) is float
        assert one == pytest.approx(direct[3], rel=1e-13)


@pytest.mark.parametrize("labels", [np.arange(9), np.arange(1, 31), np.arange(300)])
def test_signed_moment_bundle_scans_the_difference(labels, rng):
    mu, nu = (ProbabilityVector(rng.dirichlet(np.ones(labels.size))) for _ in range(2))
    m_mu, m_nu = truncated_moments(mu, labels), truncated_moments(nu, labels)
    signed = chains.MomentBundle(labels, mu.weights - nu.weights)
    cuts = np.arange(labels.min() - 1, labels.max() + 2)
    for name in ("excess", "minmax_sq", "truncated_pgf2"):
        a, b = getattr(m_mu, name)(cuts), getattr(m_nu, name)(cuts)
        floor = 1e-12 * max(np.abs(a).max(), np.abs(b).max())
        np.testing.assert_allclose(getattr(signed, name)(cuts), a - b, rtol=1e-12, atol=floor)
