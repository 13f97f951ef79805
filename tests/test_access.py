import tracemalloc

import numpy as np
import pytest

from access_time import (
    ChainSpec,
    ChainSpecError,
    ProbabilityVector,
    access_time,
    birth_death_hitting_formula,
    build_chain,
    build_distribution,
    closed_form_bd,
    closed_form_complete,
    closed_form_path,
    closed_form_star,
    closed_form_ws,
    family_report,
    general_bounds,
    hitting_time_matrix,
    kemeny_tav,
    max_hitting_time,
    random_connected_graph,
    symmetric_walk_access,
    verify_family,
)
from access_time.chains import DistSpec
from conftest import dirac, dirichlet_pair, small_family_chains
from oracles import brute_access, cube_antipodal_exact


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- the general formula -----------------------------------------------------


def test_identical_distributions_give_zero():
    for chain in small_family_chains().values():
        mu = ProbabilityVector(np.full(chain.size, 1.0 / chain.size))
        assert access_time(chain, mu, mu).value == 0.0


def test_path_corner_to_corner():
    chain = build_chain(ChainSpec("path", n=2))
    r = access_time(chain, dirac(0, 3), dirac(2, 3))
    assert rel_close(r.value, 4.0)
    assert r.argmax_target == 2


def test_complete_dirac_to_uniform_with_brute_oracle():
    chain = build_chain(ChainSpec("complete", n=3))
    mu, nu = dirac(0, 4), ProbabilityVector(np.full(4, 0.25))
    M = hitting_time_matrix(chain)
    r = access_time(chain, mu, nu, hitting=M)
    assert rel_close(r.value, 0.75)
    assert rel_close(r.value, brute_access(M.values, mu.weights, nu.weights))


def test_dirac_reduction_and_linearity(rng):
    for chain in small_family_chains().values():
        M = hitting_time_matrix(chain)
        N = chain.size
        for _ in range(10):
            i, j = rng.integers(0, N, size=2)
            r = access_time(chain, dirac(i, N), dirac(j, N), hitting=M)
            assert rel_close(r.value, M.values[i, j])
        mu = ProbabilityVector(rng.dirichlet(np.ones(N)))
        j = int(rng.integers(0, N))
        r = access_time(chain, mu, dirac(j, N), hitting=M)
        assert rel_close(r.value, float(mu.weights @ M.values[:, j]))


def test_divergence_axioms_sampled(rng):
    for chain in small_family_chains().values():
        M = hitting_time_matrix(chain)
        N = chain.size
        for _ in range(40):
            mu, nu = dirichlet_pair(rng, N)
            rho = ProbabilityVector(rng.dirichlet(np.ones(N)))
            h_mn = access_time(chain, mu, nu, hitting=M).value
            h_mr = access_time(chain, mu, rho, hitting=M).value
            h_rn = access_time(chain, rho, nu, hitting=M).value
            assert h_mn >= -1e-12
            assert h_mn > 0.0  # Dirichlet pairs are never equal
            assert h_mn <= h_mr + h_rn + 1e-8
        # corner cases: disjoint Dirac pair and uniform vs Dirac
        h = access_time(chain, dirac(0, N), dirac(N - 1, N), hitting=M).value
        assert h > 0.0
        uni = ProbabilityVector(np.full(N, 1.0 / N))
        assert access_time(chain, uni, dirac(0, N), hitting=M).value > 0.0


@pytest.mark.parametrize("n", [2, 5, 9])
def test_star_asymmetry_witness(n):
    chain = build_chain(ChainSpec("star", n=n))
    M = hitting_time_matrix(chain)
    N = n + 1
    fwd = access_time(chain, dirac(1, N), dirac(0, N), hitting=M).value
    back = access_time(chain, dirac(0, N), dirac(1, N), hitting=M).value
    assert rel_close(fwd, 1.0)
    assert rel_close(back, 2 * n - 1)


def test_master_bound_random_pairs(rng):
    for chain in small_family_chains().values():
        M = hitting_time_matrix(chain)
        bound, _ = max_hitting_time(chain, hitting=M)
        for _ in range(50):
            mu, nu = dirichlet_pair(rng, chain.size)
            assert access_time(chain, mu, nu, hitting=M).value <= bound + 1e-9


# --- birth-death closed form ---------------------------------------------------


def test_bd_identical_distributions():
    rep = closed_form_bd(5, 0.3, dirac(2, 6), dirac(2, 6))
    assert rep.exact == 0.0 and rep.lower == 0.0 and not rep.erratum_flag


def test_bd_uphill_examples():
    rep = closed_form_bd(3, 0.5, dirac(0, 4), dirac(3, 4))
    assert rel_close(rep.solver_value, 12.0)
    assert rel_close(rep.exact, 12.0)
    assert not rep.erratum_flag
    rep = closed_form_bd(3, 0.25, dirac(0, 4), dirac(3, 4))
    assert rel_close(rep.solver_value, 24.0)
    assert rel_close(rep.exact, 24.0)


def test_bd_downhill_erratum():
    # delta_9 -> delta_1 leans on the downhill branch: the closed form gives
    # 120 = (9+1-1)(9-1)/(2 * 0.3) while the chain's true value is
    # (20-9-1+1)(9-1)/(2 * 0.3) = 440/3
    rep = closed_form_bd(10, 0.3, dirac(9, 11), dirac(1, 11))
    assert rep.erratum_flag
    assert rel_close(rep.exact, 120.0)
    assert rel_close(rep.solver_value, 440.0 / 3.0)
    assert rel_close(rep.mirror_corrected, rep.solver_value)


def test_bd_mirror_symmetric_pair_has_no_discrepancy():
    # for sources and targets with i + j = n + 1 the two downhill variants
    # coincide, so delta_9 -> delta_2 at n = 10 agrees with the solver
    rep = closed_form_bd(10, 0.3, dirac(9, 11), dirac(2, 11))
    assert not rep.erratum_flag
    assert rel_close(rep.exact, rep.solver_value)
    assert rel_close(rep.mirror_corrected, rep.solver_value)


def test_bd_lower_bound_brackets_the_closed_form_not_the_solver():
    # adjacent downhill Dirac pair with i + j > n + 1: the lower bound
    # evaluates to 8/p while the true transport time is 2/p
    n, p = 10, 0.3
    rep = closed_form_bd(n, p, dirac(9, 11), dirac(8, 11))
    assert rel_close(rep.solver_value, 2.0 / p)
    assert rel_close(rep.exact, 8.0 / p)
    assert rel_close(rep.lower, 8.0 / p)
    assert rep.lower <= rep.exact + 1e-12
    assert rep.lower > rep.solver_value  # the defect this package documents
    assert rep.erratum_flag
    assert rel_close(rep.mirror_corrected, rep.solver_value)


def test_bd_upper_bound_always_brackets_the_solver(rng):
    for n, p in [(5, 0.1), (10, 0.25), (30, 0.5)]:
        chain = build_chain(ChainSpec("birth_death", n=n, p=p))
        M = hitting_time_matrix(chain)
        for _ in range(40):
            mu, nu = dirichlet_pair(rng, n + 1)
            rep = closed_form_bd(n, p, mu, nu, hitting=M)
            assert rep.solver_value <= rep.upper + 1e-9
            assert rep.lower <= rep.exact + 1e-9
            if not rep.erratum_flag:
                assert rep.lower <= rep.solver_value + 1e-9
            else:
                assert rel_close(rep.mirror_corrected, rep.solver_value)


# --- winning streak closed form --------------------------------------------------


def test_ws_dirac_example():
    rep = closed_form_ws(3, dirac(1, 3), dirac(2, 3))  # states 2 -> 3
    assert rel_close(rep.exact, 4.0)  # 2^3 - 2^2
    assert rel_close(rep.solver_value, 4.0)


def test_ws_reset_heavy_example():
    # mu at the bottom state, nu uniform on 1..n-1 with half the mass at n
    n = 4
    nu = ProbabilityVector(np.array([1 / 6, 1 / 6, 1 / 6, 1 / 2]))
    rep = closed_form_ws(n, dirac(0, n), nu)
    assert rel_close(rep.exact, 25.0 / 3.0)
    assert rel_close(rep.solver_value, 25.0 / 3.0)
    # the lower bound is tight here: both sides carry the same rounding slack
    assert rep.lower <= rep.solver_value + 1e-12
    assert rep.solver_value <= rep.upper + 1e-12
    assert rel_close(rep.lower, 25.0 / 3.0)
    assert rep.upper == 16.0


def test_ws_identity_and_cap():
    rep = closed_form_ws(5, dirac(2, 5), dirac(2, 5))
    assert rep.exact == 0.0
    with pytest.raises(ChainSpecError, match="capped"):
        closed_form_ws(41, dirac(0, 41), dirac(1, 41))


def test_ws_sandwich_random_pairs(rng):
    n = 20
    chain = build_chain(ChainSpec("winning_streak", n=n))
    M = hitting_time_matrix(chain)
    for _ in range(60):
        mu, nu = dirichlet_pair(rng, n)
        rep = closed_form_ws(n, mu, nu, hitting=M)
        assert rel_close(rep.exact, rep.solver_value)
        assert rep.lower - 1e-9 <= rep.solver_value <= rep.upper + 1e-9


# --- path closed form --------------------------------------------------------------


def test_path_worst_case():
    rep = closed_form_path(10, dirac(0, 11), dirac(10, 11))
    assert rel_close(rep.exact, 100.0)
    assert rel_close(rep.solver_value, 100.0)
    assert rep.upper == 100.0


def test_path_uniform_to_binomial_bounds():
    n = 100
    chain = build_chain(ChainSpec("path", n=n))
    mu = build_distribution(DistSpec("uniform"), chain)
    nu = build_distribution(DistSpec("binomial", p=0.2), chain)
    rep = closed_form_path(n, mu, nu)
    assert rep.lower == pytest.approx(3066.0, rel=1e-12)
    assert rep.upper == 10000.0
    assert rep.lower - 1e-9 <= rep.exact <= rep.upper + 1e-9
    assert rel_close(rep.exact, rep.solver_value)


def test_path_identity_and_sandwich(rng):
    assert closed_form_path(7, dirac(3, 8), dirac(3, 8)).exact == 0.0
    n = 30
    chain = build_chain(ChainSpec("path", n=n))
    M = hitting_time_matrix(chain)
    for _ in range(60):
        mu, nu = dirichlet_pair(rng, n + 1)
        rep = closed_form_path(n, mu, nu, hitting=M)
        assert rel_close(rep.exact, rep.solver_value)
        assert rep.lower - 1e-9 <= rep.solver_value <= rep.upper + 1e-9


# --- complete graph closed form ------------------------------------------------------


def test_complete_examples():
    rep, best = closed_form_complete(3, ProbabilityVector(np.full(4, 0.25)), dirac(2, 4))
    assert rel_close(rep.exact, 2.25)
    assert rel_close(rep.solver_value, 2.25)
    assert best == 2

    nu = ProbabilityVector(np.array([0.1, 0.2, 0.3, 0.4]))
    rep, best = closed_form_complete(3, dirac(3, 4), nu)
    assert best == 3
    assert rel_close(rep.exact, 0.9)  # 3 * 0.3, the runner-up mass


def test_complete_best_dirac_is_brute_force_minimizer(rng):
    n = 7
    chain = build_chain(ChainSpec("complete", n=n))
    M = hitting_time_matrix(chain)
    for _ in range(30):
        nu = ProbabilityVector(rng.dirichlet(np.ones(n + 1)))
        _, best = closed_form_complete(n, dirac(0, n + 1), nu, hitting=M)
        values = [
            access_time(chain, dirac(i, n + 1), nu, hitting=M).value for i in range(n + 1)
        ]
        assert values[best] == pytest.approx(min(values), abs=1e-12)


def test_complete_identity_and_sandwich(rng):
    uni = ProbabilityVector(np.full(5, 0.2))
    rep, _ = closed_form_complete(4, uni, uni)
    assert rep.exact == 0.0 and rep.upper == 0.0
    chain = build_chain(ChainSpec("complete", n=9))
    M = hitting_time_matrix(chain)
    for _ in range(60):
        mu, nu = dirichlet_pair(rng, 10)
        rep, _ = closed_form_complete(9, mu, nu, hitting=M)
        assert abs(rep.exact - rep.solver_value) <= 1e-10 * max(1.0, rep.solver_value)
        assert rep.lower - 1e-9 <= rep.solver_value <= rep.upper + 1e-9


# --- star closed form -----------------------------------------------------------------


def test_star_examples():
    assert rel_close(closed_form_star(3, dirac(1, 4), dirac(0, 4)).exact, 1.0)
    rep = closed_form_star(4, dirac(0, 5), dirac(1, 5))
    assert rel_close(rep.exact, 7.0)  # -1 + 2n
    assert rel_close(rep.solver_value, 7.0)
    assert closed_form_star(4, dirac(2, 5), dirac(2, 5)).exact == 0.0


def test_star_sandwich_random_pairs(rng):
    n = 12
    chain = build_chain(ChainSpec("star", n=n))
    M = hitting_time_matrix(chain)
    for _ in range(60):
        mu, nu = dirichlet_pair(rng, n + 1)
        rep = closed_form_star(n, mu, nu, hitting=M)
        assert rel_close(rep.exact, rep.solver_value)
        assert rep.lower - 1e-9 <= rep.solver_value <= rep.upper + 1e-9


# --- general bounds ----------------------------------------------------------------------


def test_general_bounds_path():
    chain = build_chain(ChainSpec("path", n=10))
    b = general_bounds(chain)
    assert rel_close(b.max_hitting, 100.0)
    assert b.connected_graph_bound == 11 * 10**2
    assert b.max_hitting <= b.connected_graph_bound


def test_general_bounds_complete_and_ws(rng):
    b = general_bounds(build_chain(ChainSpec("complete", n=5)))
    assert rel_close(b.max_hitting, 5.0)
    ws = build_chain(ChainSpec("winning_streak", n=3))
    b = general_bounds(ws)
    assert b.connected_graph_bound is None  # resets make it a directed chain
    M = hitting_time_matrix(ws)
    for _ in range(20):
        mu, nu = dirichlet_pair(rng, 3)
        assert access_time(ws, mu, nu, hitting=M).value <= b.max_hitting + 1e-9 <= 8.0


def test_connected_graph_bound_random_graphs(rng):
    for _ in range(10):
        v = int(rng.integers(2, 41))
        edges = random_connected_graph(v, rng, extra_edges=int(rng.integers(0, 2 * v)))
        chain = build_chain(ChainSpec("graph", edges=edges))
        b = general_bounds(chain)
        assert b.max_hitting <= v * (v - 1) ** 2
        assert b.connected_graph_bound == v * (v - 1) ** 2


def test_hypercube_envelope_matches_distance_chain_oracle():
    for d in range(1, 7):
        chain = build_chain(ChainSpec("hypercube", n=d))
        value, pair = max_hitting_time(chain)
        assert rel_close(value, float(cube_antipodal_exact(d)))
        assert pair == ("0" * d, "1" * d)


# --- symmetric walk specializations --------------------------------------------------------


def test_symmetric_walk_from_pi_complete():
    chain = build_chain(ChainSpec("complete", n=3))
    r = symmetric_walk_access(chain, dirac(0, 4), "from_pi")
    assert rel_close(r.value, 2.25)
    assert r.argmax_target == 0


def test_symmetric_walk_pi_to_pi_is_zero():
    chain = build_chain(ChainSpec("complete", n=6))
    from access_time import stationary_distribution

    pi = stationary_distribution(chain)
    t_av = kemeny_tav(chain).t_av_doublesum
    r = symmetric_walk_access(chain, pi, "from_pi")
    assert abs(r.value) <= 1e-9
    assert r.value <= t_av


def test_symmetric_walk_to_pi_hypercube():
    chain = build_chain(ChainSpec("hypercube", n=2))
    r = symmetric_walk_access(chain, dirac(0, 4), "to_pi")
    assert rel_close(r.value, 1.5)  # 4 - 5/2 on the 4-cycle


def test_symmetric_walk_matches_direct_on_random_dists(rng):
    for spec in (ChainSpec("complete", n=8), ChainSpec("hypercube", n=3)):
        chain = build_chain(spec)
        M = hitting_time_matrix(chain)
        for direction in ("from_pi", "to_pi"):
            for _ in range(20):
                dist = ProbabilityVector(rng.dirichlet(np.ones(chain.size)))
                symmetric_walk_access(chain, dist, direction, hitting=M)  # self-checks


def test_symmetric_walk_refuses_star():
    chain = build_chain(ChainSpec("star", n=4))
    with pytest.raises(ChainSpecError, match="asymmetric"):
        symmetric_walk_access(chain, dirac(1, 5), "from_pi")


def test_symmetric_walk_rejects_bad_direction():
    chain = build_chain(ChainSpec("complete", n=3))
    with pytest.raises(ChainSpecError, match="direction"):
        symmetric_walk_access(chain, dirac(0, 4), "sideways")


# --- verification harness --------------------------------------------------------------------


def test_verify_ws_random_pairs_all_pass(rng):
    spec = ChainSpec("winning_streak", n=20)
    chain = build_chain(spec)
    M = hitting_time_matrix(chain)
    for _ in range(50):
        mu, nu = dirichlet_pair(rng, 20)
        assert verify_family(spec, mu, nu, hitting=M).status == "PASS"


def test_verify_path_random_pairs_all_pass(rng):
    spec = ChainSpec("path", n=50)
    chain = build_chain(spec)
    M = hitting_time_matrix(chain)
    for _ in range(50):
        mu, nu = dirichlet_pair(rng, 51)
        assert verify_family(spec, mu, nu, hitting=M).status == "PASS"


def test_verify_bd_split_verdict(rng):
    spec = ChainSpec("birth_death", n=10, p=0.3)
    chain = build_chain(spec)
    M = hitting_time_matrix(chain)
    res = verify_family(spec, dirac(0, 11), dirac(10, 11), hitting=M)
    assert res.status == "PASS"  # pure uphill transport
    res = verify_family(spec, dirac(9, 11), dirac(1, 11), hitting=M)
    assert res.status == "ERRATUM"
    assert rel_close(res.mirror_corrected, res.solver_value)
    statuses = set()
    for _ in range(60):
        mu, nu = dirichlet_pair(rng, 11)
        r = verify_family(spec, mu, nu, hitting=M)
        statuses.add(r.status)
        assert r.status in ("PASS", "ERRATUM")
    assert "ERRATUM" in statuses  # generic pairs do trip the downhill branch


def test_verify_rejects_family_without_closed_form():
    with pytest.raises(ChainSpecError, match="closed-form"):
        verify_family(ChainSpec("hypercube", n=3), dirac(0, 8), dirac(7, 8))


def test_verify_ws_at_mantissa_scale():
    # delta_1 -> delta_n attains the lower bound exactly at 2^n magnitudes,
    # so the sandwich slack must be scale relative or rounding fails it
    n = 38
    spec = ChainSpec("winning_streak", n=n)
    res = verify_family(spec, dirac(0, n), dirac(n - 1, n))
    assert res.status == "PASS"
    assert res.lower == pytest.approx(2.0**n - 2.0, rel=1e-12)
    assert res.solver_value == pytest.approx(res.lower, rel=1e-9)


# --- birth-death mirror value from moments ------------------------------------


@pytest.mark.parametrize("p", [0.5, 0.2, 1e-12])
@pytest.mark.parametrize("n", [1, 2, 40, 300])
def test_mirror_corrected_matches_table_scan(n, p, rng):
    spec = ChainSpec("birth_death", n=n, p=p)
    table = birth_death_hitting_formula(n, p, "mirror")
    pairs = [dirichlet_pair(rng, n + 1) for _ in range(3)]
    pairs += [(dirac(n, n + 1), dirac(0, n + 1)), (dirac(0, n + 1), dirac(n, n + 1))]
    for mu, nu in pairs:
        expected = ((mu.weights - nu.weights) @ table).max()
        report = family_report(spec, mu, nu, solver_value=0.0)
        assert report.mirror_corrected == pytest.approx(expected, rel=1e-12)


def test_birth_death_report_needs_no_state_by_state_table(rng):
    N = 4096
    mu, nu = dirichlet_pair(rng, N)
    tracemalloc.start()
    try:
        family_report(ChainSpec("birth_death", n=N - 1, p=0.25), mu, nu, solver_value=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8  # one N x N table of doubles is 128 MiB
