"""Exact mean hitting times, stationary laws, and the average hitting time.

The solver is the arbiter for every closed form in this package.  Each
chain takes its route off its edge list, in this order:

1. a tridiagonal chain (path, birth-death) reads its hitting columns,
   stationary law and transport scan off its step times, which come
   from its off-diagonal rates, in O(N), and never builds the dense rows;
2. a walk built from a family of ``chains.LUMPINGS`` (complete graph,
   star, hypercube) reads its hitting columns, its full matrix and its
   transport scan off the tridiagonal chain of the distance to the
   target, whose rates come from one row per distance: O(N + K deg) a
   column with K distances, one such chain per orbit of targets for the
   matrix, and the scan's class sums by distance (``chains.LUMPED_SCANS``)
   in O(N), or O(N log N) on the hypercube;
3. on every other chain, each hitting column is read off the state
   reduction of the dense rows rooted at its target, which subtracts
   nothing: O(N^3) a column, and O(N^3) for the whole matrix, whose
   targets share their folds by recursive halving.  ``transport_scan``
   reduces the rows once and reads the result by triangular solves alone.
   ``stationary_distribution`` reduces them too, except on a walk on an
   undirected graph (``chains.GRAPH_WALK_FAMILIES``, ``graph`` included),
   which reads pi_i = deg_i / sum deg off its degrees, in O(N).

Desk-scale by design; the state-count ceiling is
``chains.dense_size_cap()``.  ``write_csv`` is the package's one CSV
writer.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .chains import (
    GRAPH_WALK_FAMILIES,
    LUMPED_SCANS,
    LUMPINGS,
    ChainSpecError,
    ProbabilityVector,
    ReducibleChainError,
    TransitionMatrix,
    _below,
    _onward,
    check_dense_size,
    frozen,
    step_times,
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
#: a dense hitting matrix of at most this many states is one stack of rooted
#: reductions, one per target; a larger one is halved (``_dense_matrix``)
_LEAF_STATES = 48

EPS = np.finfo(float).eps


def _require_solvable(P: TransitionMatrix) -> None:
    """Refuse a chain past ``chains.dense_size_cap()`` or one that is reducible.

    A chain from ``build_chain`` (one that names its family) returns at
    once: its state count was checked there, and every generator is
    irreducible by construction (``graph`` refuses a disconnected edge
    list as it is built).  A hand-built chain gets the size check and
    SciPy's strong components, computed once per chain.
    """
    if P.spec is not None:
        return
    check_dense_size(P.size)
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
    ``hitting_time_matrix`` always sets it, to the a priori bound of the
    step-time recurrence on a tridiagonal chain or a lumped walk, and to
    the first-step residual certificate, which gates nothing, on every
    other chain; it is None only for a table built by hand, and no
    command prints it.
    """

    values: np.ndarray
    labels: tuple
    column_bound: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozen(self.values))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.column_bound is not None:
            object.__setattr__(self, "column_bound", frozen(self.column_bound))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write the table with ``write_csv``; the header row names the targets."""
        rows = ([label, *row.tolist()] for label, row in zip(self.labels, self.values))
        write_csv(path, ("source", *self.labels), rows)


@contextlib.contextmanager
def open_out(path, mode: str = "w"):
    """``path`` opened for writing, line ends untranslated as the csv module needs;
    an OSError opening or writing it is bad input."""
    try:
        with open(path, mode, newline="") as fh:
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

    No route reads 1 - p_ii or subtracts, so a chain that mostly holds
    in place loses no digits to cancellation.  A tridiagonal chain
    (``P.bandwidth`` at most (1, 1)) needs no linear solve: a walk from
    i to j crosses every edge between them, so
    E_i[tau_j] is up_i + ... + up_{j-1} below j and down_j + ... +
    down_{i-1} above it, with the step times of ``P.step_times``, read
    once per chain; two cumulative sums, O(N), no subtraction and no
    pivot.  A walk built from a family of ``chains.LUMPINGS`` needs none
    either: E_i[tau_j] depends only on the distance of i to j, and the
    distance follows a tridiagonal chain whose step times give the
    column, in O(N + K deg) with K distances.  Every other chain takes
    ``_rooted_column``, in O(N^3).  A column that is not finite, from an
    overflowing time or a pivot that underflows to 0, raises
    ``LinAlgError``: the target's hitting times exceed the float range.

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
    if _is_tridiagonal(P):
        h = _tridiagonal_column(P, target)
    elif P.family in LUMPINGS:
        h = _lumped_column(P, target)
    else:
        h = _rooted_column(P, target)
    _refuse_non_finite(h[:, None], (target,))
    return h


def _refuse_non_finite(columns: np.ndarray, targets) -> None:
    """Raise ``LinAlgError`` naming the first of ``targets`` whose column is not finite."""
    finite = np.isfinite(columns)
    if not finite.all():  # a flat test first: a tridiagonal matrix runs it per column
        target = targets[(~finite.all(axis=0)).argmax()]
        raise np.linalg.LinAlgError(f"hitting times of target {target} exceed the float range")


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


def _distances(P: TransitionMatrix, sources, targets) -> np.ndarray:
    """The graph distance of ``sources`` to ``targets``, broadcast, by P's ``LUMPINGS`` entry."""
    return LUMPINGS[P.family][0](P.spec.n, sources, targets)


def _lumped_column(P: TransitionMatrix, target: int) -> np.ndarray:
    """Column ``target`` of a walk that lumps by distance: its distance chain's times,
    gathered by each state's distance to the target."""
    c = _distances(P, np.arange(P.size), target)
    return _below(_distance_chain_steps(P, c))[c]


def _distance_chain_steps(P: TransitionMatrix, c: np.ndarray) -> np.ndarray:
    """down[k] = E_{k+1}[tau_k] on the chain of the distances ``c`` to a target,
    k = 0..K-2, in O(N + K deg).

    Every state at distance k steps to distance k - 1 or k + 1 with the same
    summed rate, so any one state per distance gives the rates of the
    K-state tridiagonal chain: its out-edges, summed per distance by
    ``math.fsum``, correctly rounded, and its ``step_times``.  The times
    F[k] = E_k[tau_0] to the target are their cumulative sums,
    ``chains._below(down)``, as on a tridiagonal chain: nothing subtracted.
    """
    K = int(c.max()) + 1
    start, (_, dst) = P._row_starts, P._edges
    reps = np.empty(K, dtype=np.intp)
    reps[c] = np.arange(c.size)  # a state at each distance, every one of 0..K-1 held
    ahead, behind = np.zeros(K), np.zeros(K)  # p_{k,k+1} and p_{k,k-1}
    for k, rep in enumerate(reps.tolist()):
        out = slice(start[rep], start[rep + 1])
        to = c[dst[out]].astype(np.intp)
        ahead[k] = math.fsum(P.rate[out][to == k + 1].tolist())
        behind[k] = math.fsum(P.rate[out][to == k - 1].tolist())
    return step_times(ahead[:-1], behind[1:])[1]


def _orbit_steps(P: TransitionMatrix) -> list[np.ndarray]:
    """The distance-chain step times of the first target of each orbit of P's
    ``LUMPINGS`` entry, which every target of the orbit shares."""
    states = np.arange(P.size)
    return [_distance_chain_steps(P, _distances(P, states, t)) for t in LUMPINGS[P.family][1]]


def _lumped_matrix(P: TransitionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs hitting times of a walk that lumps by distance: one distance chain per
    orbit of targets, gathered by the distance of every state to every target of it."""
    N = P.size
    states = np.arange(N, dtype=P._edges[0].dtype)  # i ^ j no wider than the states
    values, bound = np.empty((N, N)), np.empty(N)
    orbits = LUMPINGS[P.family][1]
    for down, lo, hi in zip(_orbit_steps(P), orbits, orbits[1:] + (N,)):
        values[:, lo:hi] = _below(down)[_distances(P, states[:, None], states[lo:hi])]
        bound[lo:hi] = 4 * (down.size + 1) * EPS
    return values, bound


def _rooted_column(P: TransitionMatrix, target: int) -> np.ndarray:
    """The hitting column to ``target``: E_i[tau_0] off the state reduction of the
    chain's array written from the edges with the target moved to state 0."""
    N, (src, dst) = P.size, P._edges
    A = np.zeros((N, N))
    A[_rooted(src, target), _rooted(dst, target)] = P.rate
    h = _times_to_root(_state_reduction(A), np.ones(N))  # relabelled: state i at _rooted(i, target)
    return h[_rooted(np.arange(N), target)]


def _rooted(states: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The label of each of ``states`` once state ``roots`` is moved to 0, broadcast."""
    return np.where(states == roots, 0, states + (states < roots))


@np.errstate(all="ignore")  # a zero pivot gives a non-finite time, which is refused
def _times_to_root(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """E_i[tau_0] off an array, or a stack, reduced by ``_state_reduction``, when a
    step from state i takes c_i steps on average: h = L^-1 U^-1 c in the factors of
    ``_grounded_factors``, read as x_i = c_i + sum_{k>i} a_ik x_k upward, then x_0 = 0
    and h_k = (x_k + sum_{j<k} a_kj h_j) / a_kk downward."""
    N = A.shape[-1]
    h = c.copy()
    for i in range(N - 2, -1, -1):
        h[..., i] += np.einsum("...k,...k", A[..., i, i + 1 :], h[..., i + 1 :])
    h[..., 0] = 0.0
    for k in range(1, N):
        h[..., k] += np.einsum("...j,...j", A[..., k, :k], h[..., :k])
        h[..., k] /= A[..., k, k]
    return h


def hitting_time_matrix(P: TransitionMatrix) -> HittingTimeMatrix:
    """All-pairs mean hitting times, each column with a relative error bound.

    A tridiagonal chain is solved one ``hitting_time_to`` column per
    target, O(N^2) in all, each column written as a contiguous row of the
    transposed table, which ``HittingTimeMatrix`` copies once, to C
    order.  Each step time adds three roundings to a sum of positive
    terms, and the cumulative sum one per term, so every
    entry is within (4N - 7) u of the exact time to first order, with
    u = eps / 2 the unit roundoff; ``column_bound`` states 3 N eps, with
    margin.  A walk of ``chains.LUMPINGS`` takes ``_lumped_matrix``: one
    distance chain per orbit of targets, its times gathered by the
    distance of every state to every target, O(N^2) in all.  Its column
    bound, 4 K eps with K distances, covers the same recurrence on the K
    distances, (4K - 7) u, and the correctly rounded rate sums, each
    carried into the step times as at most two relative roundings per
    step, (2K - 3) u: (6K - 10) u to first order.  Every other chain
    takes ``_dense_matrix``, O(N^3), each column a subtraction-free
    reduction rooted at its target, with the residual certificate of
    ``_column_bounds`` as its bound, which gates nothing.  A column that
    is not finite raises ``LinAlgError`` naming its target.
    """
    _require_solvable(P)
    N = P.size
    if _is_tridiagonal(P):
        columns = np.empty((N, N))
        for j in range(N):
            columns[j] = hitting_time_to(P, j)
        return HittingTimeMatrix(columns.T, P.labels, column_bound=np.full(N, 3 * N * EPS))
    if P.family in LUMPINGS:
        values, bound = _lumped_matrix(P)
        return HittingTimeMatrix(values, P.labels, column_bound=bound)
    values = _dense_matrix(P.dense(), np.ones(N))
    _refuse_non_finite(values, range(N))
    return HittingTimeMatrix(values, P.labels, column_bound=_column_bounds(P, values))


@np.errstate(all="ignore")  # a zero pivot gives a non-finite time, which is refused
def _dense_matrix(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """All-pairs hitting times of the chain of rates ``A`` (diagonal unread) when a
    step from state i takes c_i steps on average, in O(N^3).

    Up to ``_LEAF_STATES`` states, one stack holds the reduction rooted at
    each target, as in ``hitting_time_to``.  More states are halved, and
    each half L in turn is ordered first and the other half F last:
    ``_state_reduction`` folds F out, stopping at L, so A[L, L] is the
    chain watched on L; x_F = U_FF^-1 c_F is the time spent in F, so
    c_L + A[L, F] x_F counts the steps per step of the watched chain, whose
    times H_LL this function gives; then H_FL = L_FF^-1 (x_F 1^T + A[F, L]
    H_LL), with U_FF and L_FF the factors of ``_grounded_factors`` on F.
    Each column is a rooted reduction in another elimination order: only
    the order of non-negative additions changes.
    """
    m = A.shape[0]
    if m <= _LEAF_STATES:
        roots, states = np.arange(m)[:, None], np.arange(m)
        order = np.where(states == 0, roots, states - (states <= roots))  # rooted at roots[r]
        h = _times_to_root(_state_reduction(A[order[:, :, None], order[:, None, :]]), c[order])
        return np.take_along_axis(h, _rooted(states, roots), axis=1).T
    from scipy.linalg.blas import dtrsm

    H = np.empty((m, m))
    halves = (slice(0, m // 2), slice(m // 2, m))
    for live, folded in (halves, halves[::-1]):
        order = np.r_[live, folded]
        k = live.stop - live.start
        B = _state_reduction(A[np.ix_(order, order)], stop=k)
        T = -B[k:, k:]  # U_FF above the diagonal, L_FF on and below it
        np.fill_diagonal(T, B.diagonal()[k:])
        x = dtrsm(1.0, T, c[folded, None], diag=1)
        H[live, live] = _dense_matrix(B[:k, :k], c[live] + B[:k, k:] @ x[:, 0])
        H[folded, live] = dtrsm(1.0, T, x + B[k:, :k] @ H[live, live], lower=1)
    return H


@np.errstate(all="ignore")  # a zero pivot gives a non-finite result, which is refused
def _state_reduction(A: np.ndarray, stop: int = 1) -> np.ndarray:
    """Blocked Grassmann-Taksar-Heyman reduction, in place, of the rates ``A`` of a
    chain, or of a stack of them (``A[b]`` each) with every step over the stack.

    Fold state k into states 0..k-1 for k = N-1 down to ``stop``: divide column
    k by its pivot, the row sum sum_{j<k} a_kj, then add the outer
    product of column k and row k to the leading block.  The returned
    array keeps, for every k, the row of state k as it was folded in
    ``A[k, :k]``, its pivot in ``A[k, k]`` and the divided column in
    ``A[:k, k]``: the factored form of ``_grounded_factors``; off its
    diagonal, ``A[:stop, :stop]`` is the chain watched on 0..stop-1.

    States fold in panels of ``STATIONARY_PANEL``.  Inside a panel, each
    state first receives, on its whole row and column, the pending
    updates of the panel states folded before it, as two matrix-vector
    products, so no outer product is formed.  The rest of the leading
    block then takes the whole panel at once, ``A[:lo, :lo] += A[:lo,
    lo:hi] @ A[lo:hi, :lo]``, as a GEMM in row chunks that stop at ``lo``,
    so no temporary grows to N x N and the stored rows of folded states
    stay as they were.  The cost is about 2N^3/3 flops, almost all of
    them in that GEMM.

    Every pivot is a row sum and every update adds products of
    non-negative numbers, so nothing is ever subtracted.  Blocking only
    reorders the additions.
    """
    hi = A.shape[-1]
    while hi > stop:
        lo = max(stop, hi - STATIONARY_PANEL)
        for k in range(hi - 1, lo - 1, -1):
            row, col = slice(k, k + 1), slice(k + 1, hi)  # state k, kept 2-D; the rest of the panel
            A[..., row, :k] += A[..., row, col] @ A[..., col, :k]
            A[..., :k, row] += A[..., :k, col] @ A[..., col, row]
            A[..., k, k] = A[..., k, :k].sum(axis=-1)
            A[..., :k, k] /= A[..., row, k]
        for r in range(0, lo, _GEMM_ROWS):
            rows = slice(r, min(r + _GEMM_ROWS, lo))
            A[..., rows, :lo] += A[..., rows, lo:hi] @ A[..., lo:hi, :lo]
        hi = lo
    return A


def stationary_distribution(P: TransitionMatrix) -> ProbabilityVector:
    """Invariant law of an irreducible chain.

    A tridiagonal chain is reversible, and ``_balance_law`` reads pi off
    its detailed-balance ratios in O(N).  Any other walk on an undirected
    graph, a family of ``chains.GRAPH_WALK_FAMILIES``, is reversible with
    pi_i = deg_i / sum deg, read off the edge list's row starts in O(N):
    the degrees and their sum are exact, so each weight is correctly
    rounded.  Every other chain reads pi off ``_grounded_factors``, by one
    triangular solve.  No route ever subtracts, so each entry of pi keeps
    a small relative error, however stiff the rates, and the residual of
    pi P = pi stays near machine precision.
    """
    if _is_tridiagonal(P):
        return _balance_law(P)
    if P.family in GRAPH_WALK_FAMILIES:  # a degree is a row's count of edges, all to neighbours
        return ProbabilityVector(np.diff(P._row_starts).astype(float))
    return _grounded_factors(P)[1]


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
    ahead, e_ahead = np.frexp(P.diagonal(1))  # p_{k,k+1}
    behind, e_behind = np.frexp(P.diagonal(-1))  # p_{k+1,k}
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


def _grounded_factors(P: TransitionMatrix) -> tuple[functools.partial, ProbabilityVector]:
    """The first-step matrix grounded at state 0, factored by one state reduction, and pi.

    Negated off its diagonal, the array A of ``_state_reduction`` holds
    the first-step matrix of states 1..N-1 (diagonal = off-diagonal row
    sum) as L' = U L: U unit upper with U[i, k] = -a_ik, and L lower with
    L[k, j] = -a_kj and the pivot L[k, k] = sum_{j<k} a_kj.  Row and
    column 0 stay in place, with L[0, 0] = 1, and a zero right-hand side
    at index 0 between the two solves keeps state 0 out of the answer.
    pi solves x U = e_0 up to normalization: x_0 = 1, x_k = sum_{i<k}
    x_i a_ik.  Every entry of U^-1 and L^-1 is a sum of products of
    non-negative numbers over pivots, so no solve ever subtracts.
    Returns ``(solve, pi)``, with ``solve`` the ``solve_triangular`` of
    that array: ``unit_diagonal=True`` solves with U, ``lower=True`` with L.
    An x past the float range (pi_0 that far below another weight) raises
    ``LinAlgError``.
    """
    from scipy.linalg import solve_triangular

    _require_solvable(P)
    A = _state_reduction(P.dense())
    np.negative(A, out=A)
    np.fill_diagonal(A, -A.diagonal())
    A[0, 0] = 1.0
    solve = functools.partial(solve_triangular, A, check_finite=False)
    x = solve(np.eye(1, A.shape[0])[0], trans="T", unit_diagonal=True)
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("the stationary law's weights exceed the float range")
    return solve, ProbabilityVector(x)


@np.errstate(all="ignore")  # a non-finite result is refused, not warned about
def transport_scan(P: TransitionMatrix, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-target scan d @ M of a difference of laws, and the absolute error
    estimate of each of its scores.

    d goes through ``zero_sum`` first, as on the matrix route, and M is
    never formed.  A tridiagonal chain reads the scan off two cumulative
    sums of d (``_tridiagonal_scan``), in O(N), and a walk of
    ``chains.LUMPINGS`` off the class sums of d by distance
    (``_lumped_scan``), in O(N) or O(N log N).  Every other chain reads
    (d @ M)_j = d.h0 - y_j / pi_j (Kemeny-Snell) off one
    ``_state_reduction``.  Here y (I - P) = d with y_0 = 0, and h0 is
    the hitting column to state 0; the identity needs sum(d) = 0.  With
    the factors L' = U L of ``_grounded_factors``, h0 = L^-1 U^-1 1, and
    with d split into d+ = max(d, 0) and d- = max(-d, 0),
    y = (d+ - d-) L^-1 U^-1.

    Every solve adds products of non-negative numbers, so the only
    cancellation is in the final difference, and eps times the sum of
    the magnitudes that meet there estimates the error of each score.
    The estimate leaves out the rounding of the triangular solves themselves, so it
    is not a bound: on the hypercube at d = 10 to 12, measured while that
    family still took this route, the error reached 2 to 4 times it.
    """
    d = zero_sum(d)
    if _is_tridiagonal(P):
        return _tridiagonal_scan(P, d)
    if P.family in LUMPINGS:
        return _lumped_scan(P, d)
    solve, pi = _grounded_factors(P)
    r = solve(np.ones(pi.dim), unit_diagonal=True)
    r[0] = 0.0
    h0 = solve(r, lower=True)
    rhs = np.column_stack([np.maximum(d, 0.0), np.maximum(-d, 0.0)])
    rhs[0] = 0.0
    z = solve(rhs, lower=True, trans="T")
    z[0] = 0.0
    ab = solve(z, trans="T", unit_diagonal=True) / pi.weights[:, None]
    a, b = ab[:, 0], ab[:, 1]
    hp, hm = rhs[:, 0] @ h0, rhs[:, 1] @ h0
    per_target = (hp - hm) - (a - b)
    return per_target, EPS * ((a + b) + hp + hm)


def _tridiagonal_scan(P: TransitionMatrix, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d @ M of a tridiagonal chain from its step times, in O(N), and its error estimates.

    A walk between i and j crosses every edge between them, so with
    (up, down) = ``P.step_times``, C_k = sum_{i<=k} d_i and
    T_k = sum_{i>k} d_i,

        (d @ M)_j = sum_{k<j} up_k C_k + sum_{k>=j} down_k T_k.

    The same two sums over |d| give, per target, the magnitudes that
    meet in its score, and its estimate is 4 eps times that sum.  It
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

    return scan(d), 4 * EPS * scan(np.abs(d))


def _lumped_scan(P: TransitionMatrix, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d @ M of a walk that lumps by distance, and its error estimates, in O(N), or
    O(N log N) on the hypercube.

    E_i[tau_j] = F[dist(i, j)] with F the distance-chain times of j's
    orbit, K distances.  Write F[k] = R[0] - R[k], where R =
    ``chains._onward(down)`` sums the step times from distance k on, with
    nothing subtracted.  With s = sum d, correctly rounded, and S_k(j) the
    mass of d at distance k from j,

        (d @ M)_j = R[0] (s - d_j) - sum_{k>=1} R[k] S_k(j),

    whose far sums are the family's ``chains.LUMPED_SCANS`` entry.  The
    large times meet only in R[0] (s - d_j), where s is near 0.  Over |d|
    and |s| the same terms give the magnitudes A_j = R[0] (|s| + |d_j|)
    and C_j, the far sums.  To first order the subtraction, the product
    and the final difference round by at most 1.5 eps A_j, and the far
    sums by the entry's rounding count times eps C_j (an estimate, not a
    bound, for the hypercube's butterflies); their sum is the target's
    estimate.  It leaves out R's own rounding, within the 4 K eps relative
    of the lumped matrix's column bound, as the other routes leave out
    their solves' or step times' rounding.
    """
    far, roundings = LUMPED_SCANS[P.family]
    n, orbits = P.spec.n, LUMPINGS[P.family][1]
    tails = [_onward(down) for down in _orbit_steps(P)]
    top = np.repeat([R[0] for R in tails], np.diff(orbits + (P.size,)))  # R[0] per target
    s, magnitude = math.fsum(d.tolist()), np.abs(d)
    per_target = top * (s - d) - far(n, d, tails)
    err = EPS * (1.5 * top * (abs(s) + magnitude) + roundings(n) * far(n, magnitude, tails))
    return per_target, err


@np.errstate(all="ignore")  # a non-finite result is refused, not warned about
def _column_bounds(P: TransitionMatrix, H: np.ndarray) -> np.ndarray:
    """The residual certificate b_j of each column H[:, j] of a full table.

    L is the first-step matrix, L_ik = -p_ik and L_ii = sum_{k != i} p_ik
    (never 1 - p_ii).  For target j, L_j (L without row and column j) is
    an M-matrix, so L_j^-1 >= 0 and L_j^-1 1 = h, the exact column.  A
    computed column h' with h'_j = 0 and residual r = 1 - L_j h' then
    satisfies |h' - h| = |L_j^-1 r| <= ||r||_inf h entrywise.  The
    residual is read off two GEMMs, L H and |L| |H|, and each row adds
    the rounding of its own residual, at most (nnz_i + 2) eps (1 +
    (|L||H|)_ij) with nnz_i the non-zeros of row i of L, read off the
    edge list: the off-diagonal out-edges of state i and the diagonal,
    their positive sum on an irreducible chain.  So

        b_j = max_{i != j} |1 - (L H)_ij| + (nnz_i + 2) eps (1 + (|L||H|)_ij)

    bounds the relative error of every entry of the column.
    """
    L = P.dense()
    np.negative(L, out=L)
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
    np.fill_diagonal(b, 0.0)
    return b.max(axis=0)


def detailed_balance_residual(P: TransitionMatrix, pi: ProbabilityVector) -> float:
    """max_ij |pi_i p_ij - pi_j p_ji|, zero for reversible chains.

    A pair with p_ij = p_ji = 0 adds 0, and (j, i) repeats (i, j), so
    the maximum runs over the edges p_ij > 0 alone.  Each p_ji is found
    by binary search among the row-major edge keys N i + j, or is 0, so
    the scan costs O(nnz log nnz).
    """
    i, j = P._edges
    key = i.astype(np.int64) * P.size + j  # ascending
    back = j.astype(np.int64) * P.size + i
    at = np.minimum(np.searchsorted(key, back), key.size - 1)
    reverse = np.where(key[at] == back, P.rate[at], 0.0)
    w = pi.weights
    return float(np.abs(w[i] * P.rate - w[j] * reverse).max(initial=0.0))


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
    return SpectralSummary(eigenvalues=frozen(eigenvalues), t_av_spectral=t_av)


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
