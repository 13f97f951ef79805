"""Monte Carlo confirmation of transport times via explicit stopping rules.

The access time is an infimum over all stopping rules that carry mu to
nu, so any concrete rule gives a statistical upper bound.  The rule
shipped here is deliberately naive: draw the start X0 from mu and an
independent target J from nu, then walk until J is hit.  Its stopped law
is exactly nu and its mean stopping time sum_j nu_j H(mu, delta_j) is
computable from the solver, which makes the simulation a sharp
consistency check rather than a loose one.

Randomness is counter based: one Philox stream keyed by the seed feeds a
fixed draw lattice (two initialization rows, then one full-width row per
step), so the trajectory of sample k is a pure function of (seed, k,
sample count) no matter how the work is scheduled.  The walk reads each
step's row raw and turns into uniforms only the entries of the samples
still moving; those alone advance, and a sample leaves the working set
the step it hits its target, so after the row draw the work of a step is
proportional to the walks that have not yet stopped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainSpecError, ProbabilityVector, TransitionMatrix, tv_distance
from .hitting import HittingTimeMatrix, _require_solvable, hitting_time_matrix

MIN_SAMPLES = 1000

#: refuse a run whose expected total walk length samples * E[T] exceeds this
#: many steps: a stiff chain (birth_death n=4 at p = 1e-9 needs ~1e10 steps
#: per walk) would otherwise run for days instead of failing
MAX_EXPECTED_STEPS = 1e9

_U53 = 2.0**-53  # Generator.random's double is (raw >> 11) * 2**-53


@dataclass(frozen=True)
class SimReport:
    """Aggregate of one simulation run.

    ``theoretical_mean`` is the exact mean stopping time of the simulated
    rule, sum_j nu_j H(mu, delta_j) from the solver; ``mean_t`` should sit
    within a few standard errors of it, and the empirical law of the
    stopped state should be close to nu in total variation.
    ``lattice_rows`` and ``useful_steps`` describe the kernel's work and
    stay out of the JSON report: ``useful_steps / (lattice_rows *
    samples)`` is the share of drawn uniforms that moved a walk.
    """

    samples: int
    mean_t: float
    stderr: float
    empirical_law: ProbabilityVector
    tv_to_target: float
    theoretical_mean: float
    lattice_rows: int = 0  # step rows drawn: the longest walk
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


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Cumulative table of a law, or of each row of a transition matrix."""
    C = np.cumsum(weights, axis=-1)
    C[..., -1] = 1.0  # guard the last bin against rounding
    return C


def sample_trajectory(P: TransitionMatrix, start: int, stop: int, seed: int) -> int:
    """Steps until the walk started at ``start`` first occupies ``stop``.

    Deterministic given the seed; returns 0 when start == stop (the walk
    is already there at time zero).
    """
    _require_solvable(P)
    N = P.size
    if not (0 <= start < N and 0 <= stop < N):
        raise ChainSpecError(f"states ({start}, {stop}) out of range for {N} states")
    if start == stop:
        return 0
    rng = np.random.Generator(np.random.Philox(key=seed))
    C = _cumulative(P.rows)
    state = start
    steps = 0
    while state != stop:
        state = int(np.searchsorted(C[state], rng.random(), side="right"))
        steps += 1
    return steps


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
        Trajectory count, at least 1000.
    seed : int
        Philox key; identical seeds reproduce the report bit for bit.
    hitting : HittingTimeMatrix, optional
        Reused solver output for the theoretical mean.

    Returns
    -------
    SimReport

    Raises
    ------
    ChainSpecError
        Fewer than ``MIN_SAMPLES`` samples, laws off the state space, or an
        expected total of ``samples * theoretical_mean`` steps above
        ``MAX_EXPECTED_STEPS``.
    """
    if samples < MIN_SAMPLES:
        raise ChainSpecError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if mu.dim != P.size or nu.dim != P.size:
        raise ChainSpecError("distributions do not match the chain's state space")
    _require_solvable(P)

    M = hitting if hitting is not None else hitting_time_matrix(P)
    theoretical = float(mu.weights @ M.values @ nu.weights)
    if not samples * theoretical <= MAX_EXPECTED_STEPS:  # a NaN mean is refused too
        raise ChainSpecError(
            f"{samples} walks of mean length {theoretical:.3g} exceed "
            f"{MAX_EXPECTED_STEPS:.0e} expected steps"
        )

    bits = np.random.Philox(key=seed)
    rng = np.random.Generator(bits)
    current = np.searchsorted(_cumulative(mu.weights), rng.random(samples), side="right")
    targets = np.searchsorted(_cumulative(nu.weights), rng.random(samples), side="right")
    bins = np.ascontiguousarray(_cumulative(P.rows).T)  # bins[j, i] = C[i, j]

    steps = np.zeros(samples, dtype=np.int64)
    idx = np.flatnonzero(current != targets)  # the samples still moving
    cur, tgt = current[idx], targets[idx]
    t = 0
    while idx.size:
        raw = bits.random_raw(samples)  # the full lattice row keeps the stream fixed
        t += 1
        u = (raw[idx] >> 11) * _U53  # what rng.random(samples)[idx] would hold
        cur = (bins.take(cur, axis=1) <= u).sum(axis=0)  # searchsorted, side right
        hit = cur == tgt
        if hit.any():
            steps[idx[hit]] = t
            moving = ~hit
            idx, cur, tgt = idx[moving], cur[moving], tgt[moving]

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
