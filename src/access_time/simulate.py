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
sample count) no matter how the work is scheduled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainSpecError, ProbabilityVector, TransitionMatrix, tv_distance
from .hitting import HittingTimeMatrix, _require_solvable, hitting_time_matrix

RULES = ("independent_target",)
MIN_SAMPLES = 1000


@dataclass(frozen=True)
class SimReport:
    """Aggregate of one simulation run.

    ``theoretical_mean`` is the exact mean stopping time of the simulated
    rule, sum_j nu_j H(mu, delta_j) from the solver; ``mean_t`` should sit
    within a few standard errors of it, and the empirical law of the
    stopped state should be close to nu in total variation.
    """

    samples: int
    mean_t: float
    stderr: float
    empirical_law: ProbabilityVector
    tv_to_target: float
    theoretical_mean: float

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
    rule: str = "independent_target",
    samples: int = 100_000,
    seed: int = 0,
    hitting: HittingTimeMatrix | None = None,
) -> SimReport:
    """Simulate a stopping rule transporting mu to nu and report its mean.

    Parameters
    ----------
    P : TransitionMatrix
        Irreducible chain.
    mu, nu : ProbabilityVector
        Source and target laws.
    rule : str
        Only ``independent_target`` is implemented: stop at tau_J with
        J drawn from nu independently of the walk.
    samples : int
        Trajectory count, at least 1000.
    seed : int
        Philox key; identical seeds reproduce the report bit for bit.
    hitting : HittingTimeMatrix, optional
        Reused solver output for the theoretical mean.

    Returns
    -------
    SimReport
    """
    if rule not in RULES:
        raise ChainSpecError(f"unknown stopping rule {rule!r}; available: {RULES}")
    if samples < MIN_SAMPLES:
        raise ChainSpecError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if mu.dim != P.size or nu.dim != P.size:
        raise ChainSpecError("distributions do not match the chain's state space")
    _require_solvable(P)

    M = hitting if hitting is not None else hitting_time_matrix(P)
    theoretical = float(mu.weights @ M.values @ nu.weights)

    rng = np.random.Generator(np.random.Philox(key=seed))
    current = np.searchsorted(_cumulative(mu.weights), rng.random(samples), side="right")
    targets = np.searchsorted(_cumulative(nu.weights), rng.random(samples), side="right")
    C = _cumulative(P.rows)

    steps = np.zeros(samples, dtype=np.int64)
    active = current != targets
    while active.any():
        u = rng.random(samples)  # full-width row keeps the lattice fixed
        rows = C[current[active]]
        moved = (rows <= u[active, None]).sum(axis=1)  # searchsorted, side right
        current[active] = moved
        steps[active] += 1
        active = current != targets

    mean_t = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(samples))
    counts = np.bincount(current, minlength=P.size).astype(float)
    empirical = ProbabilityVector(counts)
    return SimReport(
        samples=samples,
        mean_t=mean_t,
        stderr=stderr,
        empirical_law=empirical,
        tv_to_target=tv_distance(empirical, nu),
        theoretical_mean=theoretical,
    )
