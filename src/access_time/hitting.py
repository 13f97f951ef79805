"""Exact mean hitting times, stationary laws, and the average hitting time.

The solver is the arbiter for every closed form in this package: for each
target j the column (E_i[tau_j])_i solves the first-step system

    h_j = 0,    sum_{k != i} p_{i,k} (h_i - h_k) = 1   (i != j),

which reads, like the stationary reduction, only the off-diagonal rates:
the diagonal is the row's off-diagonal sum, never 1 - p_ii, so a chain
that mostly holds in place loses no digits to cancellation.  Each target
is factored densely with partial-pivoted LU once the chain has said it
is irreducible, a verdict it computes once and keeps.  Desk-scale by
design; the state-count ceiling is ``chains.dense_size_cap()``.

A single transport scan needs no matrix.  For d = mu - nu, which sums to
0, the Kemeny-Snell identity reads (d @ M)_j = d.h0 - y_j / pi_j, with
y (I - P) = d, y_0 = 0 and h0 the hitting column to state 0.  The
blocked state reduction behind ``stationary_distribution`` factors the
first-step system grounded at state 0, so ``transport_scan`` gets pi,
h0 and y from one O(N^3) reduction and four triangular solves, with an
estimate of its own rounding error.  ``access.access_time`` keeps that
scan when the estimate passes ``access.SCAN_GATE`` and falls back to
``hitting_time_matrix`` otherwise.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from .chains import (
    ChainSpecError,
    ProbabilityVector,
    ReducibleChainError,
    TransitionMatrix,
    dense_size_cap,
)

REVERSIBLE_TOL = 1e-10
#: entries within this relative band of the maximum count as tied
TIE_REL_TOL = 1e-12

FLOAT_FMT = "%.17g"

#: states folded per panel of the stationary-law reduction
STATIONARY_PANEL = 64
#: rows per chunk of the panel's GEMM update, which bounds its temporary
_GEMM_ROWS = 256


def _require_solvable(P: TransitionMatrix) -> None:
    cap = dense_size_cap()
    if P.size > cap:
        raise ChainSpecError(f"{P.size} states exceeds the dense solver cap {cap}")
    n_comp = P.strong_components
    if n_comp != 1:
        raise ReducibleChainError(f"chain is reducible ({n_comp} strongly connected components)")


@dataclass(frozen=True)
class HittingTimeMatrix:
    """Dense table of E_i[tau_j]; row = source i, column = target j.

    The diagonal is exactly zero (the hitting time of the start state is 0)
    and every off-diagonal entry of an irreducible chain is positive.
    """

    values: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write the full-precision table; header row names the targets."""
        write_table_csv(path, "source", self.labels, self.values)


def write_table_csv(path, corner: str, labels, values: np.ndarray) -> None:
    """Write a labelled square table at full precision, ``corner`` heading the label column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner] + [str(l) for l in labels])
        for i, label in enumerate(labels):
            writer.writerow([str(label)] + [FLOAT_FMT % v for v in values[i]])


def argmax_smallest(scores: np.ndarray) -> tuple[float, int]:
    """Maximum of ``scores`` and the smallest index tied with it.

    Entries within TIE_REL_TOL of the maximum (relative, with a unit floor)
    count as tied, which absorbs the last-ulp scatter of independent solves.
    """
    value = float(scores.max())
    slack = TIE_REL_TOL * max(1.0, abs(value))
    return value, int(np.flatnonzero(scores >= value - slack)[0])


def hitting_time_to(P: TransitionMatrix, target: int) -> np.ndarray:
    """Mean hitting times of one target state from every start.

    Parameters
    ----------
    P : TransitionMatrix
        Irreducible chain.
    target : int
        State index (0-based).

    Returns
    -------
    ndarray
        Column vector h with h[target] = 0 and h[i] = E_i[tau_target].
    """
    _require_solvable(P)
    N = P.size
    if not 0 <= target < N:
        raise ChainSpecError(f"target index {target} out of range for {N} states")
    keep = np.r_[0:target, target + 1 : N]
    # gathered through P.rows.T, A is Fortran-ordered, so LAPACK factors it in place
    A = P.rows.T[np.ix_(keep, keep)].T
    np.negative(A, out=A)
    np.fill_diagonal(A, 0.0)
    # A holds -p_ik, so this adds the kept off-diagonal rates to p_i,target
    np.fill_diagonal(A, P.rows[keep, target] - A.sum(axis=1))
    h = lu_solve(lu_factor(A, overwrite_a=True), np.ones(N - 1))
    out = np.zeros(N)
    out[keep] = h
    return out


def hitting_time_matrix(P: TransitionMatrix) -> HittingTimeMatrix:
    """All-pairs mean hitting times, one LU-factored column solve per target."""
    _require_solvable(P)
    N = P.size
    values = np.empty((N, N))
    for j in range(N):
        values[:, j] = hitting_time_to(P, j)
    return HittingTimeMatrix(values=values, labels=P.labels)


def _state_reduction(P: TransitionMatrix) -> np.ndarray:
    """Blocked Grassmann-Taksar-Heyman reduction of a chain, as one array.

    Fold state k into states 0..k-1 for k = N-1 down to 1: divide column
    k by the pivot s_k = sum_{j<k} a_kj, then add the outer product of
    column k and row k to the leading block.  The returned array keeps,
    for every k, the row of state k as it was folded in ``A[k, :k]``
    (so the pivot is its sum) and the divided column in ``A[:k, k]``.

    States fold in panels of ``STATIONARY_PANEL``.  Inside a panel, each
    state first receives the pending updates of the panel states folded
    before it: its row left of the panel and its column above the panel,
    as two matrix-vector products.  The panel's own block is updated
    per state.  The rest of the leading block then takes the whole
    panel at once, ``A[:lo, :lo] += A[:lo, lo:hi] @ A[lo:hi, :lo]``, as
    a GEMM in row chunks that stop at ``lo``, so no temporary grows to
    N x N and the stored rows of folded states stay as they were.  The
    cost is about 2N^3/3 flops, almost all of them in that GEMM.

    Every pivot is a row sum and every update adds products of
    non-negative numbers, so nothing is ever subtracted.  Blocking only
    reorders the additions.
    """
    _require_solvable(P)
    A = P.rows.copy()
    hi = A.shape[0]
    while hi > 1:
        lo = max(1, hi - STATIONARY_PANEL)
        for k in range(hi - 1, lo - 1, -1):
            A[k, :lo] += A[k, k + 1 : hi] @ A[k + 1 : hi, :lo]
            A[:lo, k] += A[:lo, k + 1 : hi] @ A[k + 1 : hi, k]
            A[:k, k] /= A[k, :k].sum()
            A[lo:k, lo:k] += np.outer(A[lo:k, k], A[k, lo:k])
        for r in range(0, lo, _GEMM_ROWS):
            rows = slice(r, min(r + _GEMM_ROWS, lo))
            A[rows, :lo] += A[rows, lo:hi] @ A[lo:hi, :lo]
        hi = lo
    return A


def _reduced_stationary(A: np.ndarray) -> ProbabilityVector:
    """pi from a reduced array: x_0 = 1, x_k = sum_{i<k} x_i a_ik, normalized."""
    N = A.shape[0]
    x = np.empty(N)
    x[0] = 1.0
    for k in range(1, N):
        x[k] = x[:k] @ A[:k, k]
    return ProbabilityVector(x)


def stationary_distribution(P: TransitionMatrix) -> ProbabilityVector:
    """Invariant law of an irreducible chain via blocked state reduction.

    ``_state_reduction`` folds the states, then the back-substitution
    x_0 = 1, x_k = sum_{i<k} x_i a_ik gives pi up to normalization.  As
    nothing is ever subtracted, each entry of pi keeps a small relative
    error, however stiff the rates, and the residual of pi P = pi stays
    near machine precision.
    """
    return _reduced_stationary(_state_reduction(P))


def transport_scan(P: TransitionMatrix, d: np.ndarray) -> tuple[np.ndarray, float]:
    """The per-target scan d @ M of a zero-sum d, and its absolute error estimate.

    Reads (d @ M)_j = d.h0 - y_j / pi_j (Kemeny-Snell) off one
    ``_state_reduction``, never forming M.  Here y (I - P) = d with
    y_0 = 0, and h0 is the hitting column to state 0.  Grounded at state
    0, the first-step matrix L' of states 1..N-1 (diagonal = off-diagonal
    row sum) factors as L' = U diag(s) Lo, read off the reduced array A:
    unit upper U[i,k] = -a_ik, pivots s_k = sum_{j<k} a_kj, and unit lower
    Lo[k,j] = -a_kj / s_k.  Then h0 = L'^-1 1, and with d split into
    d+ = max(d, 0) and d- = max(-d, 0), y = (d+ - d-) L'^-1.

    The factors are kept in A itself, with row and column 0 in place:
    a zero right-hand side at index 0 between the triangular solves keeps
    state 0 out of the answer.  Every solve adds products of non-negative
    numbers, so the only cancellation is in the final difference, and
    eps times the sum of the magnitudes that meet there bounds its error.
    """
    A = _state_reduction(P)
    pi = _reduced_stationary(A).weights
    N = A.shape[0]
    s = np.ones(N)  # s_0 is never read: index 0 always meets a zero
    for k in range(1, N):
        s[k] = A[k, :k].sum()
        A[k, :k] /= s[k]
    np.negative(A, out=A)
    solve = functools.partial(solve_triangular, A, unit_diagonal=True, check_finite=False)
    r = solve(np.ones(N))
    r[0] = 0.0
    h0 = solve(r / s, lower=True)
    rhs = np.column_stack([np.maximum(d, 0.0), np.maximum(-d, 0.0)])
    rhs[0] = 0.0
    z = solve(rhs, lower=True, trans="T")
    z[0] = 0.0
    ab = solve(z / s[:, None], trans="T") / pi[:, None]
    a, b = ab[:, 0], ab[:, 1]
    hp, hm = rhs[:, 0] @ h0, rhs[:, 1] @ h0
    per_target = (hp - hm) - (a - b)
    err = float(np.finfo(float).eps * ((a + b).max() + hp + hm))
    return per_target, err


def detailed_balance_residual(P: TransitionMatrix, pi: ProbabilityVector) -> float:
    """max_ij |pi_i p_ij - pi_j p_ji|, zero for reversible chains."""
    flow = pi.weights[:, None] * P.rows
    return float(np.abs(flow - flow.T).max())


def max_hitting_time(
    P: TransitionMatrix, hitting: HittingTimeMatrix | None = None
) -> tuple[float, tuple]:
    """Maximal mean hitting time and its (source, target) label pair.

    Ties resolve as in ``argmax_smallest``; the first tied entry in
    row-major order is the lexicographically smallest index pair.
    """
    M = hitting if hitting is not None else hitting_time_matrix(P)
    value, flat = argmax_smallest(M.values.ravel())
    i, j = divmod(flat, M.size)
    return value, (M.labels[i], M.labels[j])


def is_hitting_symmetric(
    P: TransitionMatrix,
    tol: float = 1e-8,
    hitting: HittingTimeMatrix | None = None,
) -> tuple[bool, float]:
    """Whether E_i[tau_j] = E_j[tau_i] for all pairs, with the worst asymmetry.

    Symmetry is judged relative to the maximal hitting time, so the answer
    is scale-free.
    """
    M = hitting if hitting is not None else hitting_time_matrix(P)
    asym = float(np.abs(M.values - M.values.T).max())
    scale = max(1.0, float(M.values.max()))
    return asym <= tol * scale, asym


@dataclass(frozen=True)
class SpectralSummary:
    """Average hitting time t_av by double sum and, for reversible chains,
    by the eigenvalue identity t_av = sum_{i>=2} 1/(1 - lambda_i)."""

    eigenvalues: np.ndarray | None = None
    t_av_spectral: float | None = None
    t_av_doublesum: float | None = None


def kemeny_tav(
    P: TransitionMatrix, hitting: HittingTimeMatrix | None = None
) -> SpectralSummary:
    """t_av = sum_ij pi_i pi_j E_i[tau_j] from the exact hitting matrix.

    By the random target lemma this also equals sum_j pi_j E_i[tau_j] for
    every start i.
    """
    M = hitting if hitting is not None else hitting_time_matrix(P)
    pi = stationary_distribution(P).weights
    return SpectralSummary(t_av_doublesum=float(pi @ M.values @ pi))


def spectral_tav(P: TransitionMatrix) -> SpectralSummary:
    """t_av via the spectrum of the symmetrized chain; reversible chains only.

    Conjugating by diag(sqrt(pi)) turns a reversible P into a symmetric
    matrix with the same eigenvalues, which a symmetric eigensolver handles
    exactly.  Non-reversible chains are refused (the double-sum route is
    always available).
    """
    pi = stationary_distribution(P)
    residual = detailed_balance_residual(P, pi)
    if residual > REVERSIBLE_TOL:
        raise ChainSpecError(
            f"chain is not reversible (detailed balance residual {residual:.3e}); "
            "use the double-sum route"
        )
    root = np.sqrt(pi.weights)
    S = P.rows * (root[:, None] / root[None, :])
    S = (S + S.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(S)[::-1]
    if abs(eigenvalues[0] - 1.0) > 1e-10 or np.abs(eigenvalues).max() > 1.0 + 1e-10:
        raise ReducibleChainError("spectrum is inconsistent with an irreducible stochastic matrix")
    t_av = float(np.sum(1.0 / (1.0 - eigenvalues[1:])))
    eigenvalues = eigenvalues.copy()
    eigenvalues.setflags(write=False)
    return SpectralSummary(eigenvalues=eigenvalues, t_av_spectral=t_av)


# ---------------------------------------------------------------------------
# closed-form hitting lemmas (formula counterparts of the solver)


def path_hitting_formula(n: int) -> np.ndarray:
    """Reflecting path on 0..n: j^2 - i^2 uphill, (i-j)2n - (i^2-j^2) downhill."""
    i = np.arange(n + 1, dtype=float)[:, None]
    j = np.arange(n + 1, dtype=float)[None, :]
    up = j**2 - i**2
    down = (i - j) * 2 * n - (i**2 - j**2)
    return np.where(i < j, up, np.where(i > j, down, 0.0))


def winning_streak_hitting_formula(n: int) -> np.ndarray:
    """Winning streak on 1..n: 2^j - 2^i uphill, 2^j downhill."""
    lab = np.arange(1, n + 1, dtype=float)
    i = lab[:, None]
    j = lab[None, :]
    return np.where(i < j, 2.0**j - 2.0**i, np.where(i > j, 2.0**j, 0.0))


def birth_death_hitting_formula(n: int, p: float, downhill: str = "mirror") -> np.ndarray:
    """Symmetric birth-death on 0..n with holding boundaries.

    Uphill is (i+j+1)(j-i)/(2p).  The downhill branch has two variants:
    ``mirror`` applies the chain's i -> n-i symmetry to the uphill identity
    and gives (2n-i-j+1)(i-j)/(2p), which matches the exact solver;
    ``textbook`` is the classical (i+j-1)(i-j)/(2p) expression, which is
    inconsistent with this boundary convention and kept only so reports
    can quantify the discrepancy.
    """
    if downhill not in ("mirror", "textbook"):
        raise ValueError(f"unknown downhill branch {downhill!r}")
    i = np.arange(n + 1, dtype=float)[:, None]
    j = np.arange(n + 1, dtype=float)[None, :]
    up = (i + j + 1) * (j - i) / (2 * p)
    if downhill == "mirror":
        down = (2 * n - i - j + 1) * (i - j) / (2 * p)
    else:
        down = (i + j - 1) * (i - j) / (2 * p)
    return np.where(i < j, up, np.where(i > j, down, 0.0))


def star_hitting_formula(n: int) -> np.ndarray:
    """n-star with centre 0: leaf to centre 1, centre to leaf 2n-1, leaf to leaf 2n."""
    N = n + 1
    E = np.full((N, N), 2.0 * n)
    E[0, :] = 2.0 * n - 1
    E[:, 0] = 1.0
    np.fill_diagonal(E, 0.0)
    return E


def complete_hitting_formula(n: int) -> np.ndarray:
    """Complete graph on 0..n: every off-diagonal hitting time is n."""
    E = np.full((n + 1, n + 1), float(n))
    np.fill_diagonal(E, 0.0)
    return E
