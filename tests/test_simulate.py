import tracemalloc

import numpy as np
import pytest
from scipy import stats

from access_time import (
    ChainSpec,
    ChainSpecError,
    ProbabilityVector,
    build_chain,
    hitting_time_matrix,
    sample_trajectory,
    simulate,
    simulate_rule,
    tv_distance,
)
from conftest import dirac
from oracles import scalar_walks


def test_tv_examples():
    p = ProbabilityVector(np.array([0.5, 0.5]))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(dirac(0, 3), dirac(1, 3)) == 1.0
    q = ProbabilityVector(np.array([0.25, 0.75]))
    assert tv_distance(p, q) == 0.25
    with pytest.raises(ChainSpecError, match="dimension"):
        tv_distance(p, dirac(0, 3))


def test_trajectory_start_equals_stop():
    chain = build_chain(ChainSpec("complete", n=3))
    assert sample_trajectory(chain, 2, 2, seed=5) == 0


def test_trajectory_leaf_to_center_is_one_step():
    chain = build_chain(ChainSpec("star", n=4))
    assert all(sample_trajectory(chain, 1, 0, seed=s) == 1 for s in range(200))


def test_trajectory_deterministic_given_seed():
    chain = build_chain(ChainSpec("path", n=6))
    runs = [sample_trajectory(chain, 0, 6, seed=42) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert sample_trajectory(chain, 0, 6, seed=43) >= 6  # needs at least n steps


def test_trajectory_mean_matches_hitting_time():
    chain = build_chain(ChainSpec("complete", n=3))
    lengths = np.array([sample_trajectory(chain, 0, 1, seed=s) for s in range(20_000)])
    stderr = lengths.std(ddof=1) / np.sqrt(lengths.size)
    assert abs(lengths.mean() - 3.0) <= 4.0 * stderr


def test_simulate_rule_complete_graph():
    chain = build_chain(ChainSpec("complete", n=3))
    nu = ProbabilityVector(np.full(4, 0.25))
    report = simulate_rule(chain, dirac(0, 4), nu, samples=50_000, seed=11)
    assert report.theoretical_mean == pytest.approx(2.25, rel=1e-12)
    assert report.consistent
    assert report.tv_to_target <= 0.02
    # the naive rule is strictly slower than the optimal transport value 0.75
    assert report.mean_t > 0.75


def test_simulate_rule_fixed_point_stops_immediately():
    chain = build_chain(ChainSpec("star", n=4))
    report = simulate_rule(chain, dirac(0, 5), dirac(0, 5), samples=2_000, seed=3)
    assert report.mean_t == 0.0 and report.stderr == 0.0
    assert report.lattice_rows == 0 and report.useful_steps == 0
    assert report.theoretical_mean == 0.0
    assert report.consistent
    np.testing.assert_array_equal(report.empirical_law.weights, dirac(0, 5).weights)


def test_simulate_rule_suboptimal_when_mu_equals_nu():
    chain = build_chain(ChainSpec("complete", n=4))
    uni = ProbabilityVector(np.full(5, 0.2))
    report = simulate_rule(chain, uni, uni, samples=20_000, seed=9)
    assert report.theoretical_mean > 0.0  # H(mu, mu) = 0, the rule is not optimal
    assert report.consistent


def test_simulate_rule_reproducible_bit_for_bit():
    chain = build_chain(ChainSpec("birth_death", n=6, p=0.3))
    mu, nu = dirac(0, 7), ProbabilityVector(np.arange(1.0, 8.0))
    a = simulate_rule(chain, mu, nu, samples=5_000, seed=77)
    b = simulate_rule(chain, mu, nu, samples=5_000, seed=77)
    assert a.mean_t == b.mean_t and a.stderr == b.stderr
    assert a.tv_to_target == b.tv_to_target
    np.testing.assert_array_equal(a.empirical_law.weights, b.empirical_law.weights)
    c = simulate_rule(chain, mu, nu, samples=5_000, seed=78)
    assert c.mean_t != a.mean_t


def test_simulate_rule_stopped_law_is_target():
    chain = build_chain(ChainSpec("winning_streak", n=5))
    nu = ProbabilityVector(np.array([0.4, 0.1, 0.1, 0.1, 0.3]))
    report = simulate_rule(chain, dirac(2, 5), nu, samples=50_000, seed=21)
    assert report.tv_to_target <= 0.02
    assert report.consistent


def test_simulate_rule_validation():
    chain = build_chain(ChainSpec("complete", n=3))
    uni = ProbabilityVector(np.full(4, 0.25))
    with pytest.raises(TypeError, match="rule"):  # one rule, so no option names it
        simulate_rule(chain, uni, uni, rule="optimal")
    with pytest.raises(ChainSpecError, match="at least"):
        simulate_rule(chain, uni, uni, samples=10)
    with pytest.raises(ChainSpecError, match="state space"):
        simulate_rule(chain, dirac(0, 3), uni)


@pytest.mark.parametrize("seed", [-1, 2**128, 2**200])
def test_seed_outside_the_philox_key_range_is_refused(seed):
    chain = build_chain(ChainSpec("complete", n=3))
    uni = ProbabilityVector(np.full(4, 0.25))
    with pytest.raises(ChainSpecError, match="seed"):
        simulate_rule(chain, uni, uni, samples=1000, seed=seed)
    with pytest.raises(ChainSpecError, match="seed"):
        sample_trajectory(chain, 0, 1, seed=seed)
    assert sample_trajectory(chain, 0, 1, seed=2**128 - 1) >= 1


def test_sim_report_json_shape():
    chain = build_chain(ChainSpec("complete", n=3))
    uni = ProbabilityVector(np.full(4, 0.25))
    report = simulate_rule(chain, dirac(0, 4), uni, samples=1_000, seed=1)
    payload = report.to_json()
    assert set(payload) == {
        "samples",
        "mean_T",
        "stderr",
        "empirical_law",
        "tv_to_target",
        "theoretical_mean",
    }
    assert payload["samples"] == 1_000
    assert len(payload["empirical_law"]) == 4


def test_simulate_rule_reuses_hitting_matrix():
    chain = build_chain(ChainSpec("path", n=5))
    M = hitting_time_matrix(chain)
    nu = ProbabilityVector(np.full(6, 1 / 6))
    a = simulate_rule(chain, dirac(0, 6), nu, samples=2_000, seed=4, hitting=M)
    b = simulate_rule(chain, dirac(0, 6), nu, samples=2_000, seed=4)
    assert a.theoretical_mean == b.theoretical_mean and a.mean_t == b.mean_t


# --- fixed outputs: one kernel serves sample_trajectory and simulate_rule ----------


@pytest.mark.parametrize(
    "spec, start, stop, lengths",
    [
        (ChainSpec("path", n=6), 0, 6, [54, 22, 16, 20, 60]),
        (ChainSpec("complete", n=5), 0, 3, [4, 9, 3, 6, 2]),
        (ChainSpec("winning_streak", n=6), 0, 5, [139, 22, 54, 21, 60]),
        (ChainSpec("birth_death", n=5, p=0.3), 5, 0, [14, 27, 30, 73, 27]),
        (ChainSpec("star", n=4), 1, 2, [6, 16, 2, 4, 2]),
    ],
)
def test_trajectory_pinned_lengths(spec, start, stop, lengths):
    chain = build_chain(spec)
    seeds = (0, 1, 7, 42, 2**31 - 1)
    assert [sample_trajectory(chain, start, stop, seed=s) for s in seeds] == lengths


@pytest.mark.parametrize(
    "spec, seed, mean_t, stderr, counts",
    [
        (ChainSpec("path", n=5), 3, 9.77, 0.31756333736219977, [333, 308, 344, 345, 338, 332]),
        (ChainSpec("winning_streak", n=4), 11, 4.038, 0.14161852245716827, [471, 524, 487, 518]),
        (
            ChainSpec("birth_death", n=4, p=0.25),
            123456789,
            17.073,
            0.6165264697837166,
            [390, 370, 409, 402, 429],
        ),
    ],
)
def test_simulate_rule_pinned_report(spec, seed, mean_t, stderr, counts):
    chain = build_chain(spec)
    N = chain.size
    mu = ProbabilityVector(np.arange(1, N + 1, dtype=float))
    samples = 2_000
    report = simulate_rule(chain, mu, ProbabilityVector(np.ones(N)), samples=samples, seed=seed)
    assert report.mean_t == mean_t and report.stderr == stderr
    # counts / samples times samples may miss the integer by an ulp
    scaled = report.empirical_law.weights * samples
    np.testing.assert_array_equal(np.rint(scaled).astype(int), counts)
    assert np.abs(scaled - counts).max() <= 1e-9


def test_trajectory_refuses_out_of_range_states():
    chain = build_chain(ChainSpec("path", n=3))
    with pytest.raises(ChainSpecError, match="out of range"):
        sample_trajectory(chain, 0, 4, seed=0)
    with pytest.raises(ChainSpecError, match="out of range"):
        sample_trajectory(chain, -1, 2, seed=0)


# --- the vectorized kernel against the scalar loop -------------------------------------


def assert_matches_scalar_loop(chain, mu, nu, samples, seed):
    report = simulate_rule(chain, mu, nu, samples=samples, seed=seed)
    steps, stopped = scalar_walks(chain.rows, mu.weights, nu.weights, samples, seed)
    assert report.mean_t == float(steps.mean())
    assert report.stderr == float(steps.std(ddof=1) / np.sqrt(samples))
    counts = np.bincount(stopped, minlength=chain.size)
    law = ProbabilityVector(counts.astype(float)).weights
    np.testing.assert_array_equal(report.empirical_law.weights, law)
    np.testing.assert_array_equal(np.rint(report.empirical_law.weights * samples), counts)
    assert report.useful_steps == int(steps.sum()) == round(report.mean_t * samples)
    assert report.lattice_rows == int(steps.max())
    return report


ORACLE_SPECS = [
    ChainSpec("path", n=6),
    ChainSpec("star", n=5),
    ChainSpec("complete", n=4),
    ChainSpec("winning_streak", n=5),
    ChainSpec("birth_death", n=6, p=0.3),
    ChainSpec("hypercube", n=3),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("seed, samples", [(0, 1_000), (2**31 - 1, 5_000), (987654321, 3_001)])
def test_kernel_matches_full_width_loop(spec, seed, samples):
    chain = build_chain(spec)
    N = chain.size
    # nu is uniform, so 1/N of the walks start on their target
    mu = ProbabilityVector(np.arange(1.0, N + 1.0))
    nu = ProbabilityVector(np.ones(N))
    report = assert_matches_scalar_loop(chain, mu, nu, samples, seed)
    assert 0 < report.useful_steps < report.lattice_rows * samples


# --- the out-edge rule and the kernel's law --------------------------------------------


class _TopUniform:
    """A generator that returns its largest uniform, 1 - 2**-53, for one step only."""

    calls = 0

    def random(self, size):
        self.calls += 1
        assert self.calls == 1, "the walk stayed put where the chain has no self-loop"
        return np.full(size, 1.0 - 2.0**-53)


def test_rule_never_takes_a_jump_the_chain_cannot_make():
    chain = build_chain(ChainSpec("complete", n=10))
    row = chain.rows[10]
    # the row's rounded sum leaves the top of [0, 1) to a zero diagonal entry
    assert np.cumsum(row)[-1] == 1.0 - 2.0**-53 and row[10] == 0.0
    steps, longest = simulate._walk(chain, np.array([10]), np.array([9]), _TopUniform())
    assert steps.tolist() == [1] and longest == 1
    assert simulate._draw_law(row, np.array([1.0 - 2.0**-53])).tolist() == [9]


def _first_passage_law(chain, start, target, t_max):
    """P(T = t) for t = 1..t_max: the start row of Q^(t-1) r, Q = P without the target."""
    keep = np.r_[0:target, target + 1 : chain.size]
    Q = chain.rows[np.ix_(keep, keep)]
    r = chain.rows[keep, target]
    row = (keep == start).astype(float)
    law = np.empty(t_max)
    for t in range(t_max):
        law[t] = row @ r
        row = row @ Q
    return law


@pytest.mark.parametrize(
    "spec", [ChainSpec("path", n=4), ChainSpec("birth_death", n=4, p=0.25)], ids=lambda s: s.family
)
def test_kernel_step_counts_follow_the_first_passage_law(spec):
    chain = build_chain(spec)
    samples = 20_000
    rng = np.random.Generator(np.random.Philox(key=2024))
    steps, longest = simulate._walk(
        chain, np.zeros(samples, dtype=np.intp), np.full(samples, 4), rng
    )
    law = _first_passage_law(chain, 0, 4, longest)
    observed = np.bincount(steps, minlength=longest + 1)[1:]
    # a step count the chain cannot produce (odd ones on the path) never occurs
    assert observed[law == 0.0].sum() == 0
    expected = samples * law
    kept = expected >= 5.0  # every other count goes to one tail cell
    f_obs = np.append(observed[kept], samples - observed[kept].sum())
    f_exp = np.append(expected[kept], samples - expected[kept].sum())
    assert stats.chisquare(f_obs, f_exp).pvalue > 1e-4


class _ZeroUniform:
    """A generator whose every uniform is 0, so each walk takes its first out-edge."""

    def random(self, size):
        return np.zeros(size)


def test_dense_step_gathers_a_bounded_table():
    chain = build_chain(ChainSpec("complete", n=400))
    walks = 20_000
    # from state 0 the first out-edge is state 1: every walk stops after one step
    tracemalloc.start()
    try:
        steps, longest = simulate._walk(
            chain, np.zeros(walks, dtype=np.intp), np.ones(walks, dtype=np.intp), _ZeroUniform()
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert longest == 1 and np.all(steps == 1)
    # building the 401-state out-edge table peaks at 7.4 MiB; one gather of
    # all 20,000 walks would add 399 x 20,000 floats, 61 MiB
    assert peak <= 12 * 2**20
