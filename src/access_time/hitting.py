"""Exact mean hitting times, stationary laws, and the average hitting time.

The solver is the arbiter for every closed form in this package.  Each
chain takes its route off its edge list: a tridiagonal chain (path,
birth-death) reads its hitting columns, stationary law and transport
scan off its step times, in O(N); every other chain takes one dense
state reduction, O(N^3), whose factors serve ``stationary_distribution``,
``transport_scan`` and ``hitting_time_matrix``, or a partial-pivoted LU
per column in ``hitting_time_to``.  Desk-scale by design; the state-count
ceiling is ``chains.dense_size_cap()``.  ``write_csv`` is the package's
one CSV writer.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve, solve_triangular
from scipy.linalg.lapack import dgetrf

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
#: hitting times count as symmetric when every E_i[tau_j] - E_j[tau_i] is
#: within this band of the largest hitting time (relative, with a unit floor)
SYMMETRY_REL_TOL = 1e-8

FLOAT_FMT = "%.17g"

#: states folded per panel of the stationary-law reduction
STATIONARY_PANEL = 64
#: rows per chunk of the panel's GEMM update, which bounds its temporary
_GEMM_ROWS = 256
#: mantissa ratios, each in (1/2, 2), per running product of the
#: detailed-balance law: 2^512 is far inside the float range
_BALANCE_BLOCK = 512
#: a column of the one-reduction hitting matrix whose certificate exceeds
#: this is solved again per target; a decade inside the 1e-9 tolerance of
#: the closed-form checks, where 1e-12 would refuse every column of the
#: complete graph at N = 129 on rounding alone
CERT_GATE = 1e-10

EPS = np.finfo(float).eps


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

    ``column_bound[j]`` bounds the relative error of column j: every
    entry satisfies |values[i, j] - E_i[tau_j]| <= column_bound[j] E_i[tau_j].
    ``hitting_time_matrix`` always sets it, to the first-step residual
    certificate or, on a tridiagonal chain, to the a priori bound of the
    step-time recurrence; it is None only for a table built by hand, and
    no command prints it.
    """

    values: np.ndarray
    labels: tuple
    column_bound: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.column_bound is not None:
            bound = np.asarray(self.column_bound, dtype=float).copy()
            bound.setflags(write=False)
            object.__setattr__(self, "column_bound", bound)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write the table with ``write_csv``; the header row names the targets."""
        rows = ([label, *row.tolist()] for label, row in zip(self.labels, self.values))
        write_csv(path, ("source", *self.labels), rows)


@contextlib.contextmanager
def open_out(path):
    """``path`` opened for writing, line ends untranslated as the csv module needs;
    an OSError opening or writing it is bad input."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ChainSpecError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write a table as RFC 4180 CSV: the one writer of every ``--out`` table.

    A float cell is written as ``FLOAT_FMT``, every digit of the double, so
    it reads back bit for bit; None is an empty cell and anything else is
    ``str`` of it.
    """
    with open_out(path) as fh:
        writer = csv.writer(fh)  # writes None as "" and other cells as str
        writer.writerow(header)
        writer.writerows(
            [FLOAT_FMT % cell if isinstance(cell, float) else cell for cell in row] for row in rows
        )


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

    The column h solves the first-step system

        h_target = 0,    sum_{k != i} p_ik (h_i - h_k) = 1   (i != target),

    which reads only the off-diagonal rates: the diagonal is the row's
    off-diagonal sum, never 1 - p_ii, so a chain that mostly holds in
    place loses no digits to cancellation.

    A tridiagonal chain (``P.bandwidth`` at most (1, 1)) needs no linear
    solve: a walk from i to j crosses every edge between them, so
    E_i[tau_j] is up_i + ... + up_{j-1} below j and down_j + ... +
    down_{i-1} above it, with the step times of ``P.step_times``, read
    once per chain; two cumulative sums, O(N), no subtraction and no
    pivot.  Every other chain is factored densely with partial-pivoted
    LU, in O(N^3).  A refused column raises ``LinAlgError`` naming the
    target and the cause: a singular system where the dense LU meets an
    exactly zero pivot, and hitting times past the float range where the
    column is otherwise not finite.

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
    h = _tridiagonal_column(P, target) if _is_tridiagonal(P) else _dense_column(P, target)
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError(f"hitting times of target {target} exceed the float range")
    return h


def _is_tridiagonal(P: TransitionMatrix) -> bool:
    """Whether P's columns come from its step times: one step moves at most one state."""
    return max(P.bandwidth) <= 1


def _tridiagonal_column(P: TransitionMatrix, target: int) -> np.ndarray:
    """Column ``target`` as a reversed cumulative sum of up below it and one of down above it."""
    up, down = P.step_times
    h = np.zeros(P.size)
    h[:target] = up[:target][::-1].cumsum()[::-1]
    h[target + 1 :] = down[target:].cumsum()
    return h


def _dense_column(P: TransitionMatrix, target: int) -> np.ndarray:
    """The first-step system with the target's row and column pinned to the identity.

    One Fortran-ordered copy of the N x N system, factored in place by
    LAPACK: row and column ``target`` read as the identity with a zero
    right-hand side, so h_target = 0 and the other rows are those of the
    system without the target, with no (N-1) x (N-1) gather.  LAPACK's
    ``getrf`` factors it, the routine behind ``scipy.linalg.lu_factor``
    without its warning; an exactly zero pivot raises ``LinAlgError``, as
    the system is singular.
    """
    A = np.negative(P.rows, order="F")
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))  # the off-diagonal rates of each row, p_i,target too
    A[target, :] = 0.0
    A[:, target] = 0.0
    A[target, target] = 1.0
    lu, piv, info = dgetrf(A, overwrite_a=True)  # info > 0: U has an exactly zero pivot
    if info > 0:
        raise np.linalg.LinAlgError(f"singular first-step system for target {target}")
    b = np.ones(P.size)
    b[target] = 0.0
    return lu_solve((lu, piv), b, overwrite_b=True)


def hitting_time_matrix(P: TransitionMatrix) -> HittingTimeMatrix:
    """All-pairs mean hitting times, each column with a relative error bound.

    A tridiagonal chain is solved one ``hitting_time_to`` column per
    target, O(N^2) in all.  Each step time adds three roundings to a sum
    of positive terms, and the cumulative sum one per term, so every
    entry is within (4N - 7) u of the exact time to first order, with
    u = eps / 2 the unit roundoff; ``column_bound`` states 3 N eps, with
    margin.  Every other chain takes ``_grounded_matrix``, O(N^3) from
    one state reduction, and ``_column_bounds`` certifies each column j
    with a relative error bound b_j.  A column with b_j > ``CERT_GATE``,
    or with a non-finite entry, is solved again by ``hitting_time_to``
    and certified again, so it is exactly the per-target column; its
    bound is kept whether or not it now passes the gate.
    """
    _require_solvable(P)
    N = P.size
    if _is_tridiagonal(P):
        values = np.empty((N, N))
        for j in range(N):
            values[:, j] = hitting_time_to(P, j)
        return HittingTimeMatrix(values, P.labels, column_bound=np.full(N, 3 * N * EPS))
    values = _grounded_matrix(P)
    bound = _column_bounds(P, values, np.arange(N))
    refused = np.flatnonzero(~(bound <= CERT_GATE))  # a NaN bound compares false
    for j in refused:
        values[:, j] = hitting_time_to(P, j)
    if refused.size:
        bound[refused] = _column_bounds(P, values[:, refused], refused)
    return HittingTimeMatrix(values=values, labels=P.labels, column_bound=bound)


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
    """Invariant law of an irreducible chain.

    A tridiagonal chain is reversible, and ``_balance_law`` reads pi off
    its detailed-balance ratios in O(N).  Every other chain goes through
    ``_state_reduction``, then the back-substitution x_0 = 1,
    x_k = sum_{i<k} x_i a_ik gives pi up to normalization.  Neither
    route ever subtracts, so each entry of pi keeps a small relative
    error, however stiff the rates, and the residual of pi P = pi stays
    near machine precision.
    """
    if _is_tridiagonal(P):
        return _balance_law(P)
    return _reduced_stationary(_state_reduction(P))


def _balance_law(P: TransitionMatrix) -> ProbabilityVector:
    """pi of a tridiagonal chain from pi_{k+1} / pi_k = p_{k,k+1} / p_{k+1,k}, in O(N).

    Each rate is split as m 2^e with m in [1/2, 1), so a ratio of
    mantissas lies in (1/2, 2) and the exponents add up as integers.  A
    running product of ``_BALANCE_BLOCK`` mantissa ratios stays inside
    the float range, and every block restarts from a mantissa in
    [1/2, 1), so no partial product overflows or underflows.  Only the
    final scaling, which puts the largest weight in [1/2, 1), can flush
    a weight below 2^-1074 of it to zero.  Up to normalization, weight k
    is a product of at most 2k + 1 correctly rounded operations, so pi
    keeps a relative error of order N eps entrywise.
    """
    _require_solvable(P)
    N = P.size
    ahead, e_ahead = np.frexp(np.diagonal(P.rows, 1))  # p_{k,k+1}
    behind, e_behind = np.frexp(np.diagonal(P.rows, -1))  # p_{k+1,k}
    ratio = ahead / behind
    mantissa = np.ones(N)
    exponent = np.zeros(N, dtype=np.int64)
    np.cumsum(e_ahead - e_behind, out=exponent[1:])
    for lo in range(0, N - 1, _BALANCE_BLOCK):
        hi = min(lo + _BALANCE_BLOCK, N - 1)
        mantissa[lo], shift = np.frexp(mantissa[lo])
        exponent[lo:] += shift
        mantissa[lo + 1 : hi + 1] = mantissa[lo] * np.cumprod(ratio[lo:hi])
    mantissa, shift = np.frexp(mantissa)
    exponent += shift
    return ProbabilityVector(np.ldexp(mantissa, exponent - exponent.max()))


def zero_sum(d: np.ndarray) -> np.ndarray:
    """d less its correctly rounded sum s, spread as s |d_i| / sum |d|.

    So d sums to 0 as far as its entries resolve, zero entries stay zero
    and a d that already sums to exactly 0 comes back as it is.
    """
    s = math.fsum(d.tolist())
    if s == 0.0:
        return d
    magnitude = np.abs(d)
    return d - (s / math.fsum(magnitude.tolist())) * magnitude


def _grounded_factors(P: TransitionMatrix) -> tuple[functools.partial, np.ndarray, np.ndarray]:
    """The first-step matrix grounded at state 0, factored by one state reduction, and pi.

    Grounded at state 0, the first-step matrix L' of states 1..N-1
    (diagonal = off-diagonal row sum) factors as L' = U diag(s) Lo, read
    off the reduced array A of ``_state_reduction``: unit upper
    U[i,k] = -a_ik, pivots s_k = sum_{j<k} a_kj, and unit lower
    Lo[k,j] = -a_kj / s_k.  The factors are kept in A itself, with row
    and column 0 in place: a zero right-hand side at index 0 between the
    triangular solves keeps state 0 out of the answer.  Every entry of
    U^-1 and Lo^-1 is a sum of products of non-negative numbers, so the
    solves never subtract.

    Returns ``(solve, s, pi)``: ``solve(b, lower=..., trans=...)`` is a
    unit triangular solve against U (upper) or Lo (lower), and s[0] = 1
    is never read.
    """
    A = _state_reduction(P)
    pi = _reduced_stationary(A).weights
    N = A.shape[0]
    s = np.ones(N)
    for k in range(1, N):
        s[k] = A[k, :k].sum()
        A[k, :k] /= s[k]
    np.negative(A, out=A)
    solve = functools.partial(solve_triangular, A, unit_diagonal=True, check_finite=False)
    return solve, s, pi


@np.errstate(all="ignore")  # a non-finite result is refused, not warned about
def transport_scan(P: TransitionMatrix, d: np.ndarray) -> tuple[np.ndarray, float]:
    """The per-target scan d @ M of a difference of laws, and its absolute error estimate.

    d goes through ``zero_sum`` first, as on the matrix route, and M is
    never formed.  A tridiagonal chain reads the scan off two cumulative
    sums of d (``_tridiagonal_scan``), in O(N).  Every other chain reads
    (d @ M)_j = d.h0 - y_j / pi_j (Kemeny-Snell) off one
    ``_state_reduction``.  Here y (I - P) = d with y_0 = 0, and h0 is
    the hitting column to state 0; the identity needs sum(d) = 0.  With
    the grounded factors L' = U diag(s) Lo of ``_grounded_factors``,
    h0 = L'^-1 1, and with d split into d+ = max(d, 0) and
    d- = max(-d, 0), y = (d+ - d-) L'^-1.

    Every solve adds products of non-negative numbers, so the only
    cancellation is in the final difference, and eps times the sum of
    the magnitudes that meet there bounds its error.
    """
    d = zero_sum(d)
    if _is_tridiagonal(P):
        return _tridiagonal_scan(P, d)
    solve, s, pi = _grounded_factors(P)
    N = s.shape[0]
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
    err = float(EPS * ((a + b).max() + hp + hm))
    return per_target, err


def _tridiagonal_scan(P: TransitionMatrix, d: np.ndarray) -> tuple[np.ndarray, float]:
    """d @ M of a tridiagonal chain from its step times, in O(N), and its error estimate.

    A walk between i and j crosses every edge between them, so with
    (up, down) = ``P.step_times``, C_k = sum_{i<=k} d_i and
    T_k = sum_{i>k} d_i,

        (d @ M)_j = sum_{k<j} up_k C_k + sum_{k>=j} down_k T_k.

    The same two sums over |d| give, per target, the magnitudes that
    meet in its score; the estimate is 4 eps times the largest.  It
    leaves out the step times' own rounding, up to 3N u relative, so it
    estimates the error rather than bounding it, as on the dense route.
    """
    _require_solvable(P)
    up, down = P.step_times

    def scan(x: np.ndarray) -> np.ndarray:
        head = np.cumsum(x[:-1])  # C_k, k = 0..N-2
        tail = np.cumsum(x[:0:-1])[::-1]  # T_k
        out = np.zeros(x.shape[0])
        np.cumsum(up * head, out=out[1:])
        out[:-1] += np.cumsum((down * tail)[::-1])[::-1]
        return out

    return scan(d), float(4 * EPS * scan(np.abs(d)).max())


@np.errstate(all="ignore")  # a non-finite result is refused, not warned about
def _grounded_matrix(P: TransitionMatrix) -> np.ndarray:
    """All-pairs hitting times from one state reduction, by Kemeny-Snell.

    G = L'^-1, grounded at state 0 and padded with a zero row and column
    0, takes two triangular solves with N right-hand sides on the
    factors of ``_grounded_factors``; then h0 = G 1 and

        M_ij = (G_jj - G_ij) / pi_j + h0_i - h0_j,    M_jj = 0,

    which is E_i[tau_j] written with the group inverse
    (I - 1 pi^T) G (I - 1 pi^T).  It costs O(N^3) in all, with no LU; the
    entries of G keep a small relative error, and the cancellation in M
    is what ``_column_bounds`` certifies.
    """
    solve, s, pi = _grounded_factors(P)
    G = solve(np.eye(s.shape[0]))  # U^-1
    G[0] = 0.0
    G = solve(G / s[:, None], lower=True)
    h0 = G.sum(axis=1)
    M = np.subtract(G.diagonal().copy(), G, out=G)  # G_jj - G_ij
    M /= pi
    M += h0[:, None] - h0
    np.fill_diagonal(M, 0.0)
    return M


@np.errstate(all="ignore")  # a non-finite result is refused, not warned about
def _column_bounds(P: TransitionMatrix, H: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The residual certificate b of each column H[:, c], the column to ``targets[c]``.

    L is the first-step matrix: L_ik = -p_ik off the diagonal and
    L_ii = sum_{k != i} p_ik.  For target j, L_j (L without row and
    column j) is an M-matrix, so L_j^-1 >= 0 and L_j^-1 1 = h, the exact
    column.  A computed column h' with h'_j = 0 and residual
    r = 1 - L_j h' then satisfies |h' - h| = |L_j^-1 r| <= ||r||_inf h
    entrywise.  The residual is read off two GEMMs, L H and |L| |H|, and
    each row adds the rounding of its own residual, at most
    (nnz_i + 2) eps (1 + (|L||H|)_ij) with nnz_i the non-zeros of row i
    of L, read off the edge list: the off-diagonal out-edges of state i
    and the diagonal, their positive sum on an irreducible chain.  So

        b_j = max_{i != j} |1 - (L H)_ij| + (nnz_i + 2) eps (1 + (|L||H|)_ij)

    bounds the relative error of every entry of the column.  A column
    with a non-finite entry gets a NaN or infinite bound.
    """
    L = np.negative(P.rows)
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    b = L @ H
    np.subtract(1.0, b, out=b)
    np.abs(b, out=b)
    rounding = np.abs(L) @ np.abs(H)
    rounding += 1.0
    src, dst = P._edges
    rounding *= (np.bincount(src[src != dst], minlength=P.size)[:, None] + 3) * EPS
    b += rounding
    b[targets, np.arange(targets.size)] = 0.0
    return b.max(axis=0)


def detailed_balance_residual(P: TransitionMatrix, pi: ProbabilityVector) -> float:
    """max_ij |pi_i p_ij - pi_j p_ji|, zero for reversible chains.

    A pair with p_ij = p_ji = 0 adds 0, and (j, i) repeats (i, j), so
    the maximum runs over the pattern p_ij > 0 alone, in O(nnz).
    """
    i, j = P._edges
    w = pi.weights
    return float(np.abs(w[i] * P.rows[i, j] - w[j] * P.rows[j, i]).max(initial=0.0))


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
    P: TransitionMatrix, hitting: HittingTimeMatrix | None = None
) -> tuple[bool, float]:
    """Whether E_i[tau_j] = E_j[tau_i] for all pairs, with the worst asymmetry.

    Symmetry is judged to ``SYMMETRY_REL_TOL`` of the maximal hitting time,
    so the answer is scale-free.
    """
    M = hitting if hitting is not None else hitting_time_matrix(P)
    asym = float(np.abs(M.values - M.values.T).max())
    scale = max(1.0, float(M.values.max()))
    return asym <= SYMMETRY_REL_TOL * scale, asym


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
