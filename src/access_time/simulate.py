"""Monte Carlo confirmation of transport times via explicit stopping rules.

The access time is an infimum over all stopping rules that carry mu to
nu, so any concrete rule gives a statistical upper bound.  The rule
shipped here is deliberately naive: draw the start X0 from mu and an
independent target J from nu, then walk until J is hit.  Its stopped law
is exactly nu and its mean stopping time sum_j nu_j H(mu, delta_j) is
computable from the solver, which makes the simulation a sharp
consistency check rather than a loose one.

Randomness comes from one Philox stream keyed by the seed, drawn in a
fixed order: a row of ``samples`` uniforms for the starts, one for the
targets, then, on every step, one uniform per walk still moving, in
increasing sample index.  A walk leaves the working set the step it hits
its target, so every uniform drawn for a step moves a walk, and the
trajectories are a pure function of (seed, samples).

A walk at state i with uniform u moves to ``dest[i, #{bins[:, i] <= u}]``,
read off a per-state out-edge table built from the chain's edge list
(``TransitionMatrix._edges`` and ``rate``), with no dense rows:
``dest[i]`` lists the non-zero columns of row i in increasing order,
``bins[:, i]`` the cumulative sums of their rates but the last, padded
with 1.0 to K - 1 entries, K the largest out-degree.  The sums equal
the dense row's cumulative sums at those columns; dropping the last one
sends every u the rounded row sum leaves uncovered to the row's last
out-edge, never to a column the chain cannot reach.  A step costs K - 1
comparisons per moving walk, O(K) rather than O(N).  Laws draw their states by the same
rule: a ``searchsorted`` of u over the cumulative sums but the last of
their non-zero weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainSpecError, ProbabilityVector, TransitionMatrix, check_laws, tv_distance
from .hitting import HittingTimeMatrix, _require_solvable, hitting_time_matrix

MIN_SAMPLES = 1000
#: refuse more walks than this before the first draw: a run holds about 64 bytes
#: per walk, and the bound on samples * E[T] caps nothing when E[T] is near 0
MAX_SAMPLES = 10**7

#: entries of the (K - 1) x m comparison table one step gathers at once:
#: walks are compared in blocks of this many entries, 2 MiB of floats, so a
#: dense chain's step never gathers N x m; chains of at most 10 out-edges
#: compare up to 29,127 walks in one block
_GATHER_ENTRIES = 1 << 18

#: refuse a run whose expected total walk length samples * E[T] exceeds this
#: many steps: a stiff chain (birth_death n=4 at p = 1e-9 needs ~1e10 steps
#: per walk) would otherwise run for days instead of failing
MAX_EXPECTED_STEPS = 1e9


@dataclass(frozen=True)
class SimReport:
    """Aggregate of one simulation run.

    ``theoretical_mean`` is the exact mean stopping time of the simulated
    rule, sum_j nu_j H(mu, delta_j) from the solver; ``mean_t`` should sit
    within a few standard errors of it, and the empirical law of the
    stopped state should be close to nu in total variation.
    ``lattice_rows``, the step count of the longest walk, and
    ``useful_steps``, the sum of all walks' step counts, describe the
    kernel's work and stay out of the JSON report.  Every uniform drawn
    for a step moves a walk, so ``useful_steps`` is also the number of
    step draws.
    """

    samples: int
    mean_t: float
    stderr: float
    empirical_law: ProbabilityVector
    tv_to_target: float
    theoretical_mean: float
    lattice_rows: int = 0  # steps taken by the longest walk
    useful_steps: int = 0  # sum of the step counts

    @property
    def consistent(self) -> bool:
        """Whether mean_t is within 4 standard errors of the exact mean."""
        return abs(self.mean_t - self.theoretical_mean) <= 4.0 * self.stderr

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "mean_T": self.mean_t,
            "stderr": self.stderr,
            "empirical_law": list(self.empirical_law.weights),
            "tv_to_target": self.tv_to_target,
            "theoretical_mean": self.theoretical_mean,
        }


def _out_edges(P: TransitionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Out-edge table ``(dest, bins)`` of each state, read off the chain's edge list.

    ``dest[i, :d_i]`` holds the d_i non-zero columns of row i in increasing
    order and ``bins[:d_i - 1, i]`` their cumulative sums but the last; the
    rest of ``bins[:, i]``, to K - 1 entries for K = max d_i, reads 1.0,
    which no uniform u < 1 reaches.
    """
    src, dst = P._edges
    start = P._row_starts
    degree = np.diff(start)
    K = int(degree.max())
    slot = np.arange(src.size) - start[src]
    dest = np.zeros((P.size, K), dtype=np.intp)
    dest[src, slot] = dst
    cum = np.zeros(dest.shape)
    cum[src, slot] = P.rate
    np.cumsum(cum, axis=1, out=cum)  # the dense row's cumsum at its non-zero columns
    cum[np.arange(K) >= degree[:, None] - 1] = 1.0
    return dest, np.ascontiguousarray(cum[:, :-1].T)


def _draw_law(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States drawn from a law, one per uniform in ``u``, by the out-edge rule of one row."""
    states = np.flatnonzero(weights)
    return states[np.searchsorted(np.cumsum(weights[states])[:-1], u, side="right")]


def _philox(seed: int) -> np.random.Generator:
    """The Philox stream keyed by ``seed``, which must lie in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ChainSpecError(f"seed must be an integer in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _walk(
    P: TransitionMatrix, current: np.ndarray, targets: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Steps until each walk first occupies its target, and the most any walk took.

    Every step draws ``rng.random(m)`` for the m walks still moving, in
    increasing index, and moves each one out-edge; a walk leaves the
    working set the step it hits its target.  The walks are compared in
    blocks of at most ``_GATHER_ENTRIES // (K - 1)``, so a step's gathered
    table stays under ``_GATHER_ENTRIES`` entries; blocking leaves the
    draws, and so the trajectories, as they are.
    """
    dest, bins = _out_edges(P)
    K = dest.shape[1]
    dest = dest.ravel()  # dest[i * K + c] is row i's out-edge c
    block = max(1, _GATHER_ENTRIES // max(1, K - 1))
    steps = np.zeros(current.size, dtype=np.int64)
    idx = np.flatnonzero(current != targets)  # the walks still moving
    cur, tgt = current[idx], targets[idx]
    t = 0
    while idx.size:
        u = rng.random(idx.size)
        t += 1
        for lo in range(0, idx.size, block):
            c = cur[lo : lo + block]  # a view: the block moves in place
            c[:] = dest[c * K + (bins.take(c, axis=1) <= u[lo : lo + block]).sum(axis=0)]
        hit = cur == tgt
        if hit.any():
            steps[idx[hit]] = t
            moving = ~hit
            idx, cur, tgt = idx[moving], cur[moving], tgt[moving]
    return steps, t


def sample_trajectory(P: TransitionMatrix, start: int, stop: int, seed: int) -> int:
    """Steps until the walk started at ``start`` first occupies ``stop``.

    Deterministic given the seed; returns 0 when start == stop (the walk
    is already there at time zero).  The walk draws one uniform per step
    and moves by ``simulate_rule``'s out-edge rule.
    """
    _require_solvable(P)
    N = P.size
    if not (0 <= start < N and 0 <= stop < N):
        raise ChainSpecError(f"states ({start}, {stop}) out of range for {N} states")
    steps, _ = _walk(P, np.array([start]), np.array([stop]), _philox(seed))
    return int(steps[0])


def simulate_rule(
    P: TransitionMatrix,
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    samples: int = 100_000,
    seed: int = 0,
    hitting: HittingTimeMatrix | None = None,
) -> SimReport:
    """Simulate the independent-target rule transporting mu to nu and report its mean.

    Parameters
    ----------
    P : TransitionMatrix
        Irreducible chain.
    mu, nu : ProbabilityVector
        Source and target laws.
    samples : int
        Trajectory count, from ``MIN_SAMPLES`` to ``MAX_SAMPLES``.
    seed : int
        Philox key in [0, 2**128); identical seeds reproduce the report bit
        for bit.
    hitting : HittingTimeMatrix, optional
        Reused solver output for the theoretical mean.

    Returns
    -------
    SimReport

    Raises
    ------
    ChainSpecError
        A sample count outside [``MIN_SAMPLES``, ``MAX_SAMPLES``], laws off
        the state space, a seed outside [0, 2**128), or an expected total of
        ``samples * theoretical_mean`` steps above ``MAX_EXPECTED_STEPS``.
    """
    if samples < MIN_SAMPLES:
        raise ChainSpecError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if samples > MAX_SAMPLES:
        raise ChainSpecError(f"{samples} samples exceed the cap of {MAX_SAMPLES:.0e} walks")
    check_laws(P.size, mu, nu)
    rng = _philox(seed)
    _require_solvable(P)

    M = hitting if hitting is not None else hitting_time_matrix(P)
    theoretical = float(mu.weights @ M.values @ nu.weights)
    if not samples * theoretical <= MAX_EXPECTED_STEPS:  # a NaN mean is refused too
        raise ChainSpecError(
            f"{samples} walks of mean length {theoretical:.3g} exceed "
            f"{MAX_EXPECTED_STEPS:.0e} expected steps"
        )

    current = _draw_law(mu.weights, rng.random(samples))
    targets = _draw_law(nu.weights, rng.random(samples))
    steps, t = _walk(P, current, targets, rng)

    mean_t = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(samples))
    # every walk stopped on its own target
    counts = np.bincount(targets, minlength=P.size).astype(float)
    empirical = ProbabilityVector(counts)
    return SimReport(
        samples=samples,
        mean_t=mean_t,
        stderr=stderr,
        empirical_law=empirical,
        tv_to_target=tv_distance(empirical, nu),
        theoretical_mean=theoretical,
        lattice_rows=t,
        useful_steps=int(steps.sum()),
    )
