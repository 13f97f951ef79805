"""The lumped route: walks whose hitting times depend on the distance to the target.

On the complete graph, the star and the hypercube every state at graph
distance k from a target steps to distance k - 1 and to k + 1 with the
same summed rate, so the distance is itself a tridiagonal chain
(``chains.LUMPINGS``).  Their columns and tables must match exact
elimination within the a priori ``column_bound``, every family
partition must be lumpable on the dense rows for every target, and
``scale`` and ``bounds`` on these families must never reach a dense
route.  Their transport scan, read off the class sums of the laws'
difference by distance, must match the exact distance-chain scores
within its printed estimate, and ``compute`` and ``gen`` on them, and
``gen`` on any graph walk, must never reach the state reduction.
"""
import contextlib
import csv
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from access_time import ChainSpec, ProbabilityVector, TransitionMatrix, access, access_time
from access_time import build_chain
from access_time import complete_hitting_formula, hitting, hitting_time_matrix, hitting_time_to
from access_time import random_connected_graph, star_hitting_formula, transport_scan
from access_time.chains import LUMPINGS, _onward
from access_time.hitting import zero_sum
from access_time.cli import main
from conftest import dirac, dirichlet_pair
from oracles import cube_antipodal_exact, fraction_distance_chains, fraction_hitting_matrix
from test_hitting import assert_within_column_bounds

EPS = np.finfo(float).eps

LUMPED_SPECS = [
    *(ChainSpec("star", n=n) for n in (2, 3, 20)),
    *(ChainSpec("complete", n=n) for n in (2, 20)),
    *(ChainSpec("hypercube", n=d) for d in (2, 3, 4, 5)),
]


def _ids(specs):
    return [f"{s.family}-{s.n}" for s in specs]


@contextlib.contextmanager
def dense_routes_refused():
    """The state reduction, grounded or rooted, and any dense working array raise
    inside; yields the mock that records a call of any of them."""
    refuse = mock.Mock(side_effect=AssertionError("dense route on a lumped walk"))
    with mock.patch.object(hitting, "_state_reduction", refuse), mock.patch.object(
        hitting, "_rooted_factors", refuse
    ), mock.patch.object(hitting, "_dense_matrix", refuse), mock.patch.object(
        TransitionMatrix, "dense", refuse
    ):
        yield refuse


@pytest.mark.parametrize("spec", LUMPED_SPECS, ids=_ids(LUMPED_SPECS))
def test_lumped_columns_and_table_match_exact_elimination(spec):
    chain = build_chain(spec)
    assert max(chain.bandwidth) > 1  # not tridiagonal, so the lumped route
    with dense_routes_refused() as refuse:
        M = hitting_time_matrix(chain)
        columns = np.column_stack([hitting_time_to(chain, j) for j in range(chain.size)])
    assert not refuse.called
    exact = fraction_hitting_matrix(chain.rows)
    # one chain per orbit and one per target read the same rates: the same column
    assert np.array_equal(columns, M.values)
    # 4 K eps, K the distances to the target: the distinct exact times of its column
    distances = [len(set(row[j] for row in exact)) for j in range(chain.size)]
    np.testing.assert_array_equal(M.column_bound, 4 * np.array(distances) * EPS)
    assert_within_column_bounds(M.values, exact, M.column_bound)
    assert_within_column_bounds(columns, exact, M.column_bound)


def _graph_distances(rows, target):
    """Breadth-first distances to ``target`` over the pattern of the dense rows."""
    N = len(rows)
    dist = [None] * N
    dist[target], frontier, k = 0, [target], 0
    while frontier:
        k += 1
        frontier = [i for i in range(N) if dist[i] is None
                    and any(rows[i][j] > 0 for j in frontier)]
        for i in frontier:
            dist[i] = k
    return dist


LUMPABLE_SPECS = [
    *(ChainSpec("star", n=n) for n in (1, 2, 3, 7)),
    *(ChainSpec("complete", n=n) for n in (1, 2, 6)),
    *(ChainSpec("hypercube", n=d) for d in (1, 2, 3, 4, 5)),
]


@pytest.mark.parametrize("spec", LUMPABLE_SPECS, ids=_ids(LUMPABLE_SPECS))
def test_family_partitions_are_lumpable_for_every_target(spec):
    chain = build_chain(spec)
    N = chain.size
    rows = [[Fraction(x) for x in row] for row in chain.rows.tolist()]
    distance, orbits = LUMPINGS[spec.family]
    states = np.arange(N)
    table = distance(spec.n, states[:, None], states[None, :])
    assert table.dtype == np.uint8
    orbit_rates = {}
    for j in range(N):
        c = distance(spec.n, states, j)
        assert c.dtype == np.uint8 and c.tolist() == _graph_distances(rows, j)
        assert table[:, j].tolist() == c.tolist()
        K = int(c.max()) + 1
        # the exact summed rate of every state to every distance
        to = [[sum(r for r, k in zip(row, c) if k == d) for d in range(K)] for row in rows]
        lumped = [to[int(np.flatnonzero(c == k)[0])] for k in range(K)]
        for i in range(N):
            assert to[i] == lumped[c[i]], (j, i)  # the same rates as every state at its distance
            assert all(r == 0 for d, r in enumerate(to[i]) if abs(d - int(c[i])) > 1)
        # every target of an orbit has the same distance chain as the orbit's first target
        orbit = max(o for o in orbits if o <= j)
        assert orbit_rates.setdefault(orbit, lumped) == lumped, j


def test_scale_and_bounds_on_lumped_walks_never_reach_a_dense_route(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    expected = {"star": lambda n: star_hitting_formula(n).max(),
                "complete": lambda n: complete_hitting_formula(n).max(),
                "hypercube": lambda d: float(cube_antipodal_exact(d))}
    with dense_routes_refused() as refuse:
        argv = ["scale", "--families", "star,complete,hypercube", "--n", "1,3,8", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        for family, n in (("star", 40), ("complete", 40), ("hypercube", 7)):
            assert main(["bounds", "--chain", json.dumps({"family": family, "n": n})]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["max_hitting"] == pytest.approx(expected[family](n), rel=1e-13)
    assert not refuse.called
    with open(out, newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert len(sweep) == 9
    for row in sweep:
        want = expected[row["family"]](int(row["n"]))
        assert float(row["max_hitting"]) == pytest.approx(want, rel=1e-13)


SCAN_SPECS = [
    *(ChainSpec("star", n=n) for n in (2, 3, 20)),
    *(ChainSpec("complete", n=n) for n in (2, 20)),
    *(ChainSpec("hypercube", n=d) for d in (2, 3, 4, 5, 6)),
]


def _scan_laws(rng, N):
    """Random pairs of laws: dense, sparse, Dirac and the two halves of the states."""
    yield from (dirichlet_pair(rng, N) for _ in range(3))
    sparse = rng.dirichlet(np.ones(N)) * (rng.random(N) < 0.3)
    yield ProbabilityVector(sparse + (sparse.sum() == 0)), ProbabilityVector(np.full(N, 1 / N))
    i, j = rng.choice(N, size=2, replace=False)
    yield dirac(i, N), dirac(j, N)
    half = np.arange(N) < N // 2
    yield ProbabilityVector(half.astype(float)), ProbabilityVector((~half).astype(float))


@pytest.mark.parametrize("spec", SCAN_SPECS, ids=_ids(SCAN_SPECS))
def test_lumped_scan_matches_exact_scores_within_its_estimate(spec):
    chain = build_chain(spec)
    chains = fraction_distance_chains(chain.rows)
    # the tails R_k of the step times from distance k on, as the scan reads them, per target
    orbits = LUMPINGS[spec.family][1]
    tails = [_onward(down) for down in hitting._orbit_steps(chain)]
    read = [[Fraction(r) for r in tails[sum(o <= j for o in orbits) - 1]] for j in range(chain.size)]
    rng = np.random.default_rng(spec.n)
    for mu, nu in _scan_laws(rng, chain.size):
        with dense_routes_refused() as refuse:
            scores, err = transport_scan(chain, mu.weights - nu.weights)
        assert not refuse.called
        d = [Fraction(x) for x in zero_sum(mu.weights - nu.weights).tolist()]
        s = abs(sum(d))
        for score, e, R, (dist, F) in zip(scores.tolist(), err.tolist(), read, chains):
            # the scan's own arithmetic, on the times it read, is within the target's estimate
            assert abs(Fraction(score) - sum(x * (R[0] - R[k]) for x, k in zip(d, dist))) <= e
            # the times' own rounding adds at most the lumped column bound, 4 K eps, relative
            # to the magnitudes R_0 |s| + sum_i |d_i| R_dist(i,j) that meet in the score
            exact = sum(x * F[k] for x, k in zip(d, dist))
            scale = (F[-1] - F[0]) * s + sum(abs(x) * (F[-1] - F[k]) for x, k in zip(d, dist))
            assert abs(Fraction(score) - exact) <= e + 4 * len(F) * Fraction(EPS) * scale


@pytest.mark.parametrize("argv", [
    ["compute", "--chain", '{"family":"complete","n":40}', "--mu", "binomial:0.3",
     "--nu", "dirac:7", "--closed-form"],
    ["compute", "--chain", '{"family":"star","n":40}', "--mu", "uniform", "--nu", "dirac:0",
     "--closed-form"],
    ["compute", "--chain", '{"family":"star","n":40}', "--mu", "stationary", "--nu", "dirac:3",
     "--closed-form"],
    ["compute", "--chain", '{"family":"hypercube","n":7}', "--mu", "dirac:0", "--nu", "uniform"],
    ["compute", "--chain", '{"family":"hypercube","n":6}', "--mu", "stationary",
     "--nu", "dirac:63"],
    *(["gen", "--chain", json.dumps({"family": f, "n": n})]
      for f, n in (("complete", 40), ("star", 40), ("hypercube", 7))),
    ["gen", "--chain", json.dumps(
        {"family": "graph", "edges": random_connected_graph(30, np.random.default_rng(5), 20)})],
], ids=lambda argv: f"{argv[0]}-{json.loads(argv[2])['family']}")
def test_compute_and_gen_never_reach_the_state_reduction(argv, capsys):
    with dense_routes_refused() as refuse:
        assert main(argv) == 0
    assert not refuse.called
    out = json.loads(capsys.readouterr().out)
    if argv[0] == "gen":
        assert out["diagnostics"]["irreducible"] and out["diagnostics"]["reversible"]
    elif "family_report" in out:
        report = out["family_report"]
        assert report["discrepancy"] <= 1e-12 * max(1.0, abs(out["value"]))


def test_a_scan_is_gated_on_its_maximum_not_on_a_far_lower_score(capsys):
    # the source leaf's own score, about -8188, has an estimate of 2.7e-12, past
    # the 2e-12 gate of a value near 2; the maximum's own is 6.7e-16, so the scan
    # stands and the 4096 x 4096 lumped matrix is never built
    argv = ["compute", "--chain", '{"family":"star","n":4095}', "--mu", "dirac:1",
            "--nu", "uniform", "--closed-form"]
    refuse = mock.Mock(side_effect=AssertionError("lumped matrix built"))
    with mock.patch.object(hitting, "_lumped_matrix", refuse):
        assert main(argv) == 0
    assert not refuse.called
    out = json.loads(capsys.readouterr().out)
    report = out["family_report"]
    # a leaf walks to the centre in one step and from there to a uniform leaf
    assert report["exact"] == out["value"] == pytest.approx(2.0 - 1.0 / 4096, rel=1e-15)
    assert report["discrepancy"] == 0.0
    chain = build_chain(ChainSpec("star", n=4095))
    mu, nu = dirac(1, chain.size), ProbabilityVector(np.full(chain.size, 1 / chain.size))
    scores, err = transport_scan(chain, mu.weights - nu.weights)
    assert err[1] > access.SCAN_GATE * 2.0 > err[scores.argmax()]
    result = access_time(chain, mu, nu)
    assert result.route == "scan" and result.error_bound <= 1e-15


def test_a_refused_lumped_scan_falls_back_to_the_lumped_matrix(rng):
    for spec in (ChainSpec("star", n=20), ChainSpec("complete", n=20), ChainSpec("hypercube", n=5)):
        chain = build_chain(spec)
        mu, nu = dirichlet_pair(rng, chain.size)
        with dense_routes_refused() as refuse:
            scanned = access_time(chain, mu, nu)
            with mock.patch.object(access, "SCAN_GATE", 0.0):
                refused = access_time(chain, mu, nu)
        assert not refuse.called
        assert (scanned.route, refused.route) == ("scan", "matrix")
        assert refused.value == pytest.approx(scanned.value, rel=1e-12)
