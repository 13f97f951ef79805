"""Chain generators, probability vectors, and moment functionals.

Everything downstream (hitting-time solver, transport formulas, Monte
Carlo) operates on row-stochastic chains held as edge lists: the
transitions with p_ij > 0 and their rates, with a dense view built only
for the routes that need one.  This module builds the chain families
with known closed-form transport behaviour:

* ``birth_death``: symmetric birth-death on ``0..n`` with birth = death
  probability ``p`` and the leftover mass held in place.  At the two
  boundary states only one move is available, so the holding probability
  there is ``1 - p`` (the unique stochastic completion compatible with
  the uphill identity ``E_k[tau_{k+1}] = (k+1)/p``).
* ``winning_streak``: states ``1..n``; climb one step or reset to 1 with
  probability 1/2 each, with a holding loop at ``n``.
* ``hypercube``: simple walk on ``{0,1}^d`` flipping one uniformly chosen
  coordinate per step (``n`` is the dimension ``d``).
* ``path``: nearest-neighbour walk on ``0..n`` with reflecting endpoints.
* ``complete``: uniform jump to any other state of ``0..n``.
* ``star``: hub-and-leaf walk on ``0..n`` with state 0 the centre.
* ``graph``: simple random walk on an arbitrary connected simple graph.

All constructors are pure and their outputs immutable, so values can be
shared freely across threads.

Each generator emits its chain's row-major edge list
(``TransitionMatrix._edges`` and ``rate``) directly, in O(nnz); a
hand-built dense matrix is scanned for non-zeros once, into the same
form.  Every reader of the chain reads that list: the row-sum check,
the strong components and the period (through a sparse matrix built on
it), the bandwidth, the tridiagonal step times and detailed-balance law,
the detailed-balance residual, the certificate of the hitting matrix and
the Monte Carlo out-edge table.  Only the dense routes form an N x N
array: the state reduction and the first-step matrix write their own
working array from the edges (``TransitionMatrix.dense``), and the
spectral t_av and ``gen --out`` read ``TransitionMatrix.rows``, a
read-only view built on first use.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

ROW_SUM_HARD_TOL = 1e-9

SIZE_CAP_ENV = "ACCESS_TIME_MAX_N"
DEFAULT_SIZE_CAP = 4096

FAMILIES = (
    "birth_death",
    "winning_streak",
    "hypercube",
    "path",
    "complete",
    "star",
    "graph",
)
#: families whose chain is a simple random walk on an undirected graph
GRAPH_WALK_FAMILIES = ("graph", "path", "complete", "star", "hypercube")

DIST_KINDS = ("dirac", "uniform", "binomial", "explicit", "stationary")


class ChainSpecError(ValueError):
    """A chain or distribution specification is invalid."""


class ReducibleChainError(ValueError):
    """The operation needs an irreducible chain and this one is not."""


def _is_int(x) -> bool:
    """An integer that is not a bool, which JSON ``true`` would otherwise pass as 1."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def dense_size_cap() -> int:
    """Largest state count the dense solver path will accept.

    Defaults to 4096; override with the ``ACCESS_TIME_MAX_N`` environment
    variable.
    """
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ChainSpecError(f"{SIZE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ChainSpecError(f"{SIZE_CAP_ENV} must be positive, got {cap}")
    return cap


def check_dense_size(states: int, what: str = "chain") -> None:
    """Refuse more than ``dense_size_cap()`` states: the one state-cap check, run on a
    spec before its chain is built and on a chain before it is solved."""
    cap = dense_size_cap()
    if states > cap:
        bits = states.bit_length()  # a long count is named by its size: no digits to format
        count = states if bits <= 64 else f"at least 2**{bits - 1}"
        raise ChainSpecError(
            f"{what} with {count} states exceeds the dense size cap {cap} "
            f"(override with {SIZE_CAP_ENV})"
        )


def check_laws(states: int, *laws: ProbabilityVector) -> None:
    """Refuse laws off a chain of ``states`` states: the one dimension check of laws."""
    if any(law.dim != states for law in laws):
        dims = "/".join(str(law.dim) for law in laws)
        raise ChainSpecError(f"laws of dim {dims} do not match the state space of {states} states")


def _index_dtype(size: int) -> type:
    """The integer type of state indices on a chain of ``size`` states."""
    return np.int32 if size < 2**31 else np.intp


def frozen(values, dtype=float, copy: bool = True) -> np.ndarray:
    """A read-only C-ordered copy of ``values``, as an array of ``dtype`` (None keeps
    the input's): the one way every value type here stores an array.  With
    ``copy=False`` an array already in that form is itself made read-only, for
    arrays the caller hands over."""
    out = (np.array if copy else np.asarray)(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def step_times(ahead: np.ndarray, behind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step times ``up[k] = E_k[tau_{k+1}]``, ``down[k] = E_{k+1}[tau_k]`` of the
    tridiagonal chain with rates ``ahead[k] = p_{k,k+1}`` and ``behind[k] = p_{k+1,k}``,
    k = 0..N-2, by first steps on the off-diagonal rates:

        up_k = (1 + p_{k,k-1} up_{k-1}) / p_{k,k+1},  up_{-1} = 0,
        down_k = (1 + p_{k+1,k+2} down_{k+1}) / p_{k+1,k},  down_{N-1} = 0.

    Nothing is subtracted.  The loop is sequential because detailed-balance
    products can overflow where step times do not.  Every rate must be
    positive, as on an irreducible chain; an overflow reads inf.
    """
    K = len(ahead)
    ahead = ahead.tolist() + [0.0]  # p_{k,k+1}
    behind = [0.0] + behind.tolist()  # p_{k,k-1}
    up, down = np.empty(K), np.empty(K)
    t = 0.0
    for k in range(K):
        t = up[k] = (1.0 + behind[k] * t) / ahead[k]
    t = 0.0
    for k in range(K - 1, -1, -1):
        t = down[k] = (1.0 + ahead[k + 1] * t) / behind[k + 1]
    return up, down


def abridged(text: str) -> str:
    """``text`` as an error message echoes it: whole up to 40 characters, else its
    first 20 and its length, so a message does not grow with what was typed."""
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


@dataclass(frozen=True)
class ChainSpec:
    """Family name plus the parameters needed to build the chain.

    ``n`` is the family size parameter: the top state for the integer
    families (state spaces ``0..n`` or ``1..n``), the dimension for the
    hypercube, and the vertex count for explicit graphs (derived from the
    edge list).  ``p`` is accepted by ``birth_death`` only and must lie in
    (0, 1/2].  ``edges`` is required by (and exclusive to) ``graph``.
    """

    #: every per-family ceiling on n, with its reason, checked before num_states is formed
    CEILINGS = {
        "winning_streak": (40, "2**n exhausts the 53-bit mantissa beyond it"),
        "hypercube": (62, "2**62 states is the largest power of two a signed 64-bit count holds"),
    }

    family: str
    n: int | None = None
    p: float | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ChainSpecError(f"unknown family {self.family!r}")
        if self.n is not None and not _is_int(self.n):
            raise ChainSpecError(f"n must be an integer, got {self.n!r}")
        if self.family == "graph":
            self._init_graph()
        else:
            if self.edges is not None:
                raise ChainSpecError(f"{self.family} does not take an edge list")
            if self.n is None or self.n < 1:
                raise ChainSpecError(f"{self.family} needs a positive size n")
            object.__setattr__(self, "n", int(self.n))
        if self.family == "birth_death":
            if not _is_real(self.p) or not (0.0 < self.p <= 0.5):
                raise ChainSpecError("birth_death needs p in (0, 1/2]")
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise ChainSpecError(f"{self.family} does not take a p parameter")
        max_n, reason = self.CEILINGS.get(self.family, (self.n, ""))
        if self.n > max_n:
            raise ChainSpecError(f"{self.family} is capped at n = {max_n}: {reason}")

    def _init_graph(self) -> None:
        if not isinstance(self.edges, (tuple, list)) or not self.edges:
            raise ChainSpecError("graph needs a non-empty edge list")
        seen: set[tuple[int, int]] = set()
        for pair in self.edges:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2 or not all(map(_is_int, pair)):
                raise ChainSpecError(f"edge {pair!r} is not a pair of integer vertices")
            u, v = (int(pair[0]), int(pair[1]))
            if u == v:
                raise ChainSpecError(f"self loop at vertex {u}; the graph must be simple")
            if u < 0 or v < 0:
                raise ChainSpecError("vertex indices must be non-negative")
            seen.add((min(u, v), max(u, v)))
        edges = tuple(sorted(seen))
        n_vertices = max(v for e in edges for v in e) + 1
        if self.n is not None and self.n != n_vertices:
            raise ChainSpecError(
                f"n = {self.n} does not match the {n_vertices} vertices implied by the edges"
            )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n", n_vertices)

    @property
    def num_states(self) -> int:
        if self.family in ("winning_streak", "graph"):
            return self.n
        if self.family == "hypercube":
            return 1 << self.n
        return self.n + 1

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.family == "graph":
            out["edges"] = [list(e) for e in self.edges]
        else:
            out["n"] = self.n
        if self.p is not None:
            out["p"] = self.p
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ChainSpec":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ChainSpecError("chain spec must be an object with a 'family' key")
        known = {"family", "n", "p", "edges"}
        extra = set(obj) - known
        if extra:
            raise ChainSpecError(f"unknown chain spec keys: {sorted(extra)}")
        return cls(family=obj["family"], n=obj.get("n"), p=obj.get("p"), edges=obj.get("edges"))


@dataclass(frozen=True, init=False, eq=False)
class TransitionMatrix:
    """Row-stochastic transition matrix with state labels, held as its edge list.

    The truth is ``_edges = (src, dst)`` and ``rate``: the transitions
    with p_ij > 0 in row-major order, so each row's columns ascend, and
    their probabilities.  Nothing else is stored per entry, so a chain
    costs O(nnz) to build, check and read.  Only the dense routes form
    the N x N matrix: ``dense`` writes a fresh working array (the
    first-step matrix, the state reduction) and ``rows`` is a read-only
    view built on its first read and cached (the spectral t_av,
    ``gen --out``).

    ``labels`` carries the natural state names: integers for the integer
    families (``1..n`` for the winning streak) and d-bit strings for the
    hypercube.  Internal storage is always 0-based; ``labels[i]`` is the
    name of row/column ``i``.  ``spec`` is the family the edges were
    generated from (``build_chain`` sets it).  The solver trusts it: it
    reads a lumped walk's hitting times and transport scan off its
    family's ``LUMPINGS`` entry, the stationary law of a graph walk off
    its degrees, and skips the size check and the strong components of a
    chain ``build_chain`` has already checked.  So a chain built by hand
    should not name a family.

    ``TransitionMatrix(rows)`` takes a dense matrix and keeps its non-zero
    entries; ``from_edges`` takes the edge form, as the generators emit
    it.  Either way the rates must be finite and positive and each row
    must sum to 1 within ``ROW_SUM_HARD_TOL``, checked in O(nnz), or
    construction fails; generator output is exact, so a violation means a
    broken input.  Irreducibility is not enforced here (``validate_chain``
    can diagnose a reducible matrix).  Every generated family is
    irreducible by construction, which the test suite checks over a grid
    of sizes, and the solver operations refuse a reducible hand-built
    chain.  The strong-component count behind ``validate_chain`` and that
    refusal is computed once per chain, on first use, from the edge list
    that also gives the chain's ``bandwidth``.
    """

    size: int
    _edges: tuple[np.ndarray, np.ndarray]
    rate: np.ndarray
    labels: tuple
    spec: ChainSpec | None

    def __init__(self, rows, labels=None, spec: ChainSpec | None = None) -> None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ChainSpecError(f"transition matrix must be square, got shape {rows.shape}")
        src, dst = np.nonzero(rows)  # NaN and negative entries too, for the rate checks
        self._set(rows.shape[0], src, dst, rows[src, dst], labels, spec)

    @classmethod
    def from_edges(cls, size: int, src, dst, rate, labels=None, spec=None) -> "TransitionMatrix":
        """The chain of ``size`` states whose entries p_ij > 0 are ``rate`` at
        ``(src, dst)``, given in row-major order.  The arrays are handed over:
        those already of the stored type are kept, read-only, without a copy."""
        chain = cls.__new__(cls)
        chain._set(size, src, dst, rate, labels, spec)
        return chain

    def _set(self, size, src, dst, rate, labels, spec) -> None:
        rate = frozen(rate, copy=False)
        if not np.isfinite(rate).all():
            raise ChainSpecError("transition probabilities must be finite")
        if not (rate > 0).all():  # a dense matrix gives no zero rate, only a negative one
            raise ChainSpecError(
                "transition probabilities must be non-negative" if (rate < 0).any()
                else "an edge list holds positive rates only"
            )
        index = _index_dtype(size)
        src, dst = frozen(src, dtype=index, copy=False), frozen(dst, dtype=index, copy=False)
        labels = tuple(range(size)) if labels is None else tuple(labels)
        if len(labels) != size:
            raise ChainSpecError("label count does not match the state count")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_edges", (src, dst))
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "spec", spec)
        residual = self.row_sum_residual
        if residual > ROW_SUM_HARD_TOL:
            raise ChainSpecError(f"rows are not stochastic, worst residual {residual:.3e}")

    @property
    def family(self) -> str | None:
        return self.spec.family if self.spec is not None else None

    @cached_property
    def rows(self) -> np.ndarray:
        """The dense N x N matrix as a read-only view, built by ``dense`` on first
        read and cached."""
        rows = self.dense()
        rows.setflags(write=False)
        return rows

    def dense(self) -> np.ndarray:
        """A fresh N x N array of the rates, zero off the edges, written in C order
        from the edge list: O(N^2) memory, so only the dense routes build one, as
        their working array."""
        return self._csr.toarray()

    @cached_property
    def row_sum_residual(self) -> float:
        """max_i |sum_j p_ij - 1|, each row's rates summed as one segment in O(nnz)."""
        start = self._row_starts
        held = start[:-1] < start[1:]  # the rows with an edge; an empty row sums to 0
        sums = np.zeros(self.size)
        sums[held] = np.add.reduceat(self.rate, start[:-1][held])
        return float(np.abs(sums - 1.0).max())

    @cached_property
    def _row_starts(self) -> np.ndarray:
        """Row i's edges are ``start[i]:start[i + 1]``, i = 0..N-1."""
        src = self._edges[0]  # a query of its own type: no widened copy of the edges
        return np.searchsorted(src, np.arange(self.size + 1, dtype=_index_dtype(self.size + 1)))

    @cached_property
    def _csr(self) -> "scipy.sparse.csr_matrix":
        """The chain as the CSR matrix ``scipy.sparse`` and its graph routines read,
        over the stored arrays, not a copy of them.  The graph routines read the
        pattern alone (the rates, all positive, are not weights to them)."""
        from scipy.sparse import csr_matrix  # start-up loads no SciPy

        return csr_matrix((self.rate, self._edges[1], self._row_starts), shape=(self.size,) * 2)

    def diagonal(self, offset: int) -> np.ndarray:
        """p_{k, k + offset} for every k with both states on the chain, in O(nnz):
        ``np.diagonal(rows, offset)`` without the dense rows."""
        src, dst = self._edges
        on = dst - src == offset
        out = np.zeros(self.size - abs(offset))
        out[np.minimum(src, dst)[on]] = self.rate[on]
        return out

    @cached_property
    def strong_components(self) -> int:
        """Number of strongly connected components of the transition graph."""
        from scipy.sparse.csgraph import connected_components  # only the checks load csgraph

        n_comp, _ = connected_components(self._csr, connection="strong")
        return int(n_comp)

    @cached_property
    def bandwidth(self) -> tuple[int, int]:
        """Off-diagonal bandwidth (l, u): the farthest one step reaches below
        and above the diagonal, max(i - j) and max(j - i) over p_ij > 0, in O(N):
        the row-major order puts each row's farthest columns at its two ends, and
        every row of a stochastic matrix has an edge."""
        start, dst, rows = self._row_starts, self._edges[1], np.arange(self.size)
        first, last = dst[start[:-1]], dst[start[1:] - 1]
        return int((rows - first).max(initial=0)), int((last - rows).max(initial=0))

    @cached_property
    def step_times(self) -> tuple[np.ndarray, np.ndarray]:
        """``step_times`` of a tridiagonal chain, read once per chain off its two
        off-diagonals; meaningful for an irreducible chain of bandwidth (1, 1)."""
        return tuple(map(frozen, step_times(self.diagonal(1), self.diagonal(-1))))

    def integer_labels(self) -> np.ndarray:
        """Labels as an integer array; rejects bit-string labelled chains."""
        if not all(isinstance(l, (int, np.integer)) for l in self.labels):
            raise ChainSpecError("states of this chain are not integer labelled")
        return np.asarray(self.labels, dtype=np.int64)

    def label_index(self, label) -> int:
        """Index of a state given its label.

        On a bit-string labelled chain (the hypercube) an integer is read as
        the raw index when it is in range, and otherwise as the bit string
        of its decimal digits: ``101`` is state ``"101"``.  The two readings
        never collide, since a d-digit bit string read in decimal is at
        least 2**d for d >= 2.
        """
        try:
            return self.labels.index(label)
        except ValueError:
            pass
        if isinstance(label, (int, np.integer)) and not all(
            isinstance(l, (int, np.integer)) for l in self.labels
        ):
            if 0 <= int(label) < self.size:
                return int(label)
            if str(label) in self.labels:
                return self.labels.index(str(label))
        shown = abridged(str(label))
        raise ChainSpecError(
            f"state {repr(shown) if isinstance(label, str) else shown} is not on this chain"
        )


@dataclass(frozen=True)
class ProbabilityVector:
    """A distribution on the chain's states, renormalized on construction."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ChainSpecError(f"weights must be one-dimensional, got shape {w.shape}")
        if np.any(w < 0):
            raise ChainSpecError("weights must be non-negative")
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise ChainSpecError("weights must have a positive finite sum")
        object.__setattr__(self, "weights", frozen(w / total))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def tv_distance(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Total variation distance between two laws, half the l1 distance."""
    if p.dim != q.dim:
        raise ChainSpecError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return float(np.abs(p.weights - q.weights).sum() / 2.0)


@dataclass(frozen=True)
class DistSpec:
    """Declarative description of a source or target distribution."""

    kind: str
    at: object = None
    p: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in DIST_KINDS:
            raise ChainSpecError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "dirac" and self.at is None:
            raise ChainSpecError("dirac needs an 'at' state")
        if self.kind == "binomial":
            if not _is_real(self.p) or not (0.0 < self.p < 1.0):
                raise ChainSpecError("binomial needs p in (0, 1)")
            object.__setattr__(self, "p", float(self.p))
        if self.kind == "explicit":
            if not isinstance(self.weights, (tuple, list)) or not all(
                map(_is_real, self.weights)
            ):
                raise ChainSpecError("explicit needs a weights list of real numbers")
            object.__setattr__(self, "weights", tuple(float(x) for x in self.weights))

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.at is not None:
            out["at"] = self.at
        if self.p is not None:
            out["p"] = self.p
        if self.weights is not None:
            out["weights"] = list(self.weights)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DistSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ChainSpecError("distribution spec must be an object with a 'kind' key")
        extra = set(obj) - {"kind", "at", "p", "weights"}
        if extra:
            raise ChainSpecError(f"unknown distribution spec keys: {sorted(extra)}")
        return cls(kind=obj["kind"], at=obj.get("at"), p=obj.get("p"), weights=obj.get("weights"))


# ---------------------------------------------------------------------------
# generators


def _banded(N: int, offsets, rates, labels) -> tuple:
    """The edges of rows whose entries sit at ``offsets`` from the diagonal, in
    increasing order, with ``rates`` (a row per state, a column per offset):
    the entries that leave the chain or have a zero rate are dropped."""
    dst = np.arange(N)[:, None] + np.asarray(offsets)
    keep = (dst >= 0) & (dst < N) & (rates > 0)
    return N, np.nonzero(keep)[0], dst[keep], rates[keep], labels


def _birth_death(spec: ChainSpec):
    n, p = spec.n, spec.p
    N = n + 1
    held = np.full(N, 1.0 - (p + p))  # 1 - 2p inside
    held[[0, -1]] = 1.0 - p  # 1 - p at the two ends
    return _banded(N, (-1, 0, 1), np.column_stack([np.full(N, p), held, np.full(N, p)]),
                   tuple(range(N)))


def _winning_streak(spec: ChainSpec):
    n = spec.n
    labels = tuple(range(1, n + 1))
    if n == 1:  # reset and holding loop are the same move
        return 1, [0], [0], [1.0], labels
    k = np.arange(n)  # row k holds state k+1: reset to state 1, and climb or hold at n
    dst = np.column_stack([np.zeros(n, int), np.minimum(k + 1, n - 1)])
    return n, np.repeat(k, 2), dst.ravel(), np.full(2 * n, 0.5), labels


def _hypercube(spec: ChainSpec):
    d = spec.n
    N = 1 << d
    states = np.arange(N)
    dst = np.sort(states[:, None] ^ (1 << np.arange(d)), axis=1)
    labels = tuple(format(s, f"0{d}b") for s in range(N))
    return N, np.repeat(states, d), dst.ravel(), np.full(N * d, 1.0 / d), labels


def _path(spec: ChainSpec):
    n = spec.n
    N = n + 1
    rates = np.full((N, 2), 0.5)
    rates[0, 1] = rates[n, 0] = 1.0  # reflecting ends
    return _banded(N, (-1, 1), rates, tuple(range(N)))


def _complete(spec: ChainSpec):
    n = spec.n
    N = n + 1
    states = np.arange(N, dtype=_index_dtype(N))  # N^2 edges: no wider copy of them
    dst = states[:-1] + (states[:-1] >= states[:, None])  # row i skips column i
    return N, np.repeat(states, n), dst.ravel(), np.full(N * n, 1.0 / n), tuple(range(N))


def _star(spec: ChainSpec):
    n = spec.n
    N = n + 1
    leaves = np.arange(1, N)
    src = np.concatenate([np.zeros(n, int), leaves])
    dst = np.concatenate([leaves, np.zeros(n, int)])
    rate = np.concatenate([np.full(n, 1.0 / n), np.ones(n)])
    return N, src, dst, rate, tuple(range(N))


def _graph(spec: ChainSpec):
    N = spec.n
    u, v = np.array(spec.edges).T
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((np.ones(src.size), (src, dst)), shape=(N, N))
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise ChainSpecError(f"graph is disconnected ({n_comp} components)")
    deg = np.bincount(src, minlength=N)
    return N, src, dst, 1.0 / deg[src], tuple(range(N))


_GENERATORS = {
    "birth_death": _birth_death,
    "winning_streak": _winning_streak,
    "hypercube": _hypercube,
    "path": _path,
    "complete": _complete,
    "star": _star,
    "graph": _graph,
}


def _popcounts(d: int) -> np.ndarray:
    """pop[k], the set bits of each k < 2**d as uint8, by pop[k] = pop[k >> 1] + (k & 1)
    a block [2**b, 2**(b + 1)) at a time: ``np.bitwise_count`` needs NumPy 2."""
    pop = np.zeros(1 << d, dtype=np.uint8)
    for b in range(d):
        k = np.arange(1 << b, 2 << b)
        pop[k] = pop[k >> 1] + (k & 1).astype(np.uint8)
    return pop


#: the families whose hitting times to a target depend only on each state's graph
#: distance to it, so each column is one of the tridiagonal chain that distance
#: follows, a lumping of the walk (Kemeny-Snell, Finite Markov Chains, 6.3).
#: family -> (the distance d(n, i, j) of states i to targets j, broadcast index
#: arrays, as uint8, with n the spec's n; the first target of each orbit, whose
#: targets, up to the next first one, share one distance chain)
LUMPINGS = {
    "complete": (lambda n, i, j: (i != j).view(np.uint8), (0,)),
    # 1 between the centre 0 and a leaf, 2 between two leaves
    "star": (lambda n, i, j: np.add(i != j, (i != j) & (i != 0) & (j != 0), dtype=np.uint8),
             (0, 1)),
    "hypercube": (lambda d, i, j: _popcounts(d)[i ^ j], (0,)),  # the Hamming distance
}


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """sum_i x_i (-1)^popcount(i & w) for every w < 2**d, a fresh array: d levels of
    butterflies, each a sum and a difference of the two halves of every block, O(N d)."""
    y = np.array(x, dtype=float)
    h = 1
    while h < y.size:
        pairs = y.reshape(-1, 2, h)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return y


def _xor_convolution(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_i x_i f(i ^ j) for every j, as WHT^-1(WHT(x) WHT(f)), in O(N log N)."""
    return _walsh_hadamard(_walsh_hadamard(x) * _walsh_hadamard(f)) / x.size


#: the families of ``LUMPINGS`` -> (far, roundings).  ``far(n, x, R)`` is
#: sum_{k>=1} R[o][k] S_k(j) for every target j, where S_k(j) is the mass of x at
#: distance k from j and R[o][k] the time of the distance chain of j's orbit o
#: from its farthest distance down to k (R[o][-1] = 0): nothing on the complete
#: graph and at the star's centre, R_1 x_0 at a leaf, and on the hypercube the
#: XOR convolution of x with R[popcount], R_0 left out.  ``roundings(n)`` eps
#: times far over |x| estimates its rounding error: one rounding a score where
#: only a product is added, d + 2 where the d butterfly levels of each
#: Walsh-Hadamard transform add and subtract.
LUMPED_SCANS = {
    "complete": (lambda n, x, R: 0.0, lambda n: 1),
    "star": (lambda n, x, R: np.r_[0.0, np.full(n, R[1][1] * x[0])], lambda n: 1),
    "hypercube": (lambda d, x, R: _xor_convolution(x, np.r_[0.0, R[0][1:]][_popcounts(d)]),
                  lambda d: d + 2),
}


def build_chain(spec: ChainSpec) -> TransitionMatrix:
    """Build the transition matrix of a chain family from the edges its generator emits.

    Parameters
    ----------
    spec : ChainSpec
        Validated family description.

    Returns
    -------
    TransitionMatrix
        Row-stochastic, irreducible, with the family's natural labels.
    """
    check_dense_size(spec.num_states, spec.family)
    size, src, dst, rate, labels = _GENERATORS[spec.family](spec)
    return TransitionMatrix.from_edges(size, src, dst, rate, labels=labels, spec=spec)


# ---------------------------------------------------------------------------
# distributions


def _binomial_weights(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) weights up to a common factor, 1 at the mode.

    The ratios w_{k+1} / w_k = (m - k) p / ((k + 1)(1 - p)) are multiplied
    outward from the mode floor((m + 1) p), where each is at most 1, so no
    coefficient or power leaves the float range; a weight below 2^-1074 of
    the mode's reads 0.
    """
    k = np.arange(m)
    ratio = (m - k) / (k + 1) * (p / (1 - p))
    mode = min(int((m + 1) * p), m)
    w = np.ones(m + 1)
    np.multiply.accumulate(ratio[mode:], out=w[mode + 1 :])
    np.multiply.accumulate(1.0 / ratio[:mode][::-1], out=w[:mode][::-1])
    return w


def build_distribution(dspec: DistSpec, chain: TransitionMatrix) -> ProbabilityVector:
    """Materialize a distribution spec on a chain's state space.

    ``dirac`` locates states by label (so ``at = 1`` is the bottom state of
    the winning streak); the hypercube accepts either a bit-string label or
    the raw state index.  ``binomial`` needs integer labels and spreads
    Binomial(range, p) across them.  ``stationary`` solves for the
    invariant law of the chain.
    """
    N = chain.size
    if dspec.kind == "dirac":
        w = np.zeros(N)
        w[chain.label_index(dspec.at)] = 1.0
        return ProbabilityVector(w)
    if dspec.kind == "uniform":
        return ProbabilityVector(np.full(N, 1.0 / N))
    if dspec.kind == "binomial":
        values = chain.integer_labels()
        k = values - values.min()
        return ProbabilityVector(_binomial_weights(int(k.max()), dspec.p)[k])
    if dspec.kind == "explicit":
        w = np.asarray(dspec.weights, dtype=float)
        if w.shape[0] != N:
            raise ChainSpecError(f"explicit weights have length {w.shape[0]}, chain has {N} states")
        return ProbabilityVector(w)
    if dspec.kind == "stationary":
        from .hitting import stationary_distribution

        return stationary_distribution(chain)
    raise ChainSpecError(f"unknown distribution kind {dspec.kind!r}")


@dataclass(frozen=True)
class MomentBundle:
    """Moment functionals of an integer-valued distribution.

    The transport closed forms consume exactly these: the mean, the second
    moment, the base-2 probability generating value ``E[2^Z]`` with its
    truncation ``E[2^Z 1{Z <= j}]``, the excess ``E[(Z - j)+]`` and the
    square spread ``E[max(Z, j)^2 - min(Z, j)^2]``.  The last three take
    one cut point j or an array of them.  The (value, weight) pairs are
    kept in increasing order of value, so each cut point reads
    k = #{Z <= j} by binary search and combines cumulative sums of a
    few terms over the support below k or from k on: a scan over every j
    costs O(support + cuts).  ``pgf2`` is the last of the cumulative sums
    behind ``truncated_pgf2``, and the sums from k on end in an exact 0,
    so ``truncated_pgf2(max Z) == pgf2`` and ``excess(max Z) == 0.0``
    hold exactly.  The weights may be a signed measure: every functional
    is linear in them, so the bundle of ``mu - nu`` reads each difference
    ``E_mu f - E_nu f`` in one scan.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if not np.issubdtype(values.dtype, np.integer):
            raise ChainSpecError("moment functionals need integer state labels")
        weights = np.asarray(self.weights, dtype=float)
        if values.shape != weights.shape:
            raise ChainSpecError("labels and weights must align")
        order = np.argsort(values, kind="stable")
        object.__setattr__(self, "values", frozen(values[order], dtype=None))
        object.__setattr__(self, "weights", frozen(weights[order]))

    @property
    def mean(self) -> float:
        return float(self.weights @ self.values)

    @property
    def second_moment(self) -> float:
        return float(self.weights @ (self.values.astype(float) ** 2))

    @property
    def pgf2(self) -> float:
        """E[2^Z]."""
        return float(_below(self.weights * np.exp2(self.values))[-1])

    def truncated_pgf2(self, j):
        """E[2^Z 1{Z <= j}], for one cut point j or an array of them."""
        return self._per_cut(j, lambda k, j: _below(self.weights * np.exp2(self.values))[k])

    def excess(self, j):
        """E[(Z - j)+], for one cut point j or an array of them."""
        w = self.weights
        return self._per_cut(j, lambda k, j: _onward(w * self.values)[k] - j * _onward(w)[k])

    def minmax_sq(self, j):
        """E[max(Z, j)^2 - min(Z, j)^2], E[|Z^2 - j^2|] for j >= 0; one j or an array.

        Z^2 - j^2 counts with a plus sign from k on and a minus sign
        below k, read off the sums below k and the totals.
        """
        w = self.weights
        sq = _below(w * self.values * self.values)
        mass = _below(w)
        return self._per_cut(
            j, lambda k, j: (sq[-1] - 2.0 * sq[k]) + j * (j * (2.0 * mass[k] - mass[-1]))
        )

    def _per_cut(self, j, combine):
        """combine(k, j) at k = #{Z <= j}: a float for a scalar cut point,
        else one value per cut point, in the shape of j."""
        j = np.asarray(j)
        out = combine(np.searchsorted(self.values, j, side="right"), j)
        return float(out) if j.ndim == 0 else out


def _below(terms: np.ndarray) -> np.ndarray:
    """s[k] = sum_{i<k} terms_i for k = 0..len(terms)."""
    out = np.zeros(terms.shape[0] + 1)
    np.cumsum(terms, out=out[1:])
    return out


def _onward(terms: np.ndarray) -> np.ndarray:
    """s[k] = sum_{i>=k} terms_i for k = 0..len(terms); s[-1] is an exact 0."""
    out = np.zeros(terms.shape[0] + 1)
    np.cumsum(terms[::-1], out=out[-2::-1])
    return out


def truncated_moments(dist: ProbabilityVector, labels) -> MomentBundle:
    """Bundle the moment functionals of ``dist`` over integer state labels."""
    return MomentBundle(values=labels, weights=dist.weights)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class ChainDiagnostics:
    """Structural report on a transition matrix; purely informational."""

    row_sum_residual: float
    irreducible: bool
    strong_components: int
    reversible: bool | None
    detailed_balance_residual: float | None
    period: int | None
    aperiodic: bool | None

    def to_json(self) -> dict:
        return asdict(self)


def _chain_period(P: TransitionMatrix) -> int:
    """Period of an irreducible chain: gcd of (level[u] + 1 - level[v]) over edges,
    with BFS levels from state 0, all in O(nnz) on the transition graph."""
    from scipy.sparse.csgraph import dijkstra

    src, dst = P._edges
    level = dijkstra(P._csr, indices=0, unweighted=True).astype(np.int64)
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def validate_chain(P: TransitionMatrix) -> ChainDiagnostics:
    """Diagnose a transition matrix: stochasticity, irreducibility,
    reversibility, periodicity.

    Never raises; hitting times are well defined for periodic chains, so
    the period is informational only.  Reversibility is reported against
    the stationary law and left undefined for reducible chains.
    """
    irreducible = P.strong_components == 1
    reversible = None
    db_residual = None
    period = None
    aperiodic = None
    if irreducible:
        from .hitting import REVERSIBLE_TOL, detailed_balance_residual, stationary_distribution

        pi = stationary_distribution(P)
        db_residual = detailed_balance_residual(P, pi)
        reversible = db_residual <= REVERSIBLE_TOL
        period = _chain_period(P)
        aperiodic = period == 1
    return ChainDiagnostics(
        row_sum_residual=P.row_sum_residual,
        irreducible=irreducible,
        strong_components=P.strong_components,
        reversible=reversible,
        detailed_balance_residual=db_residual,
        period=period,
        aperiodic=aperiodic,
    )


def random_connected_graph(
    n_vertices: int, rng: np.random.Generator, extra_edges: int = 0
) -> tuple[tuple[int, int], ...]:
    """Random connected simple graph: a random attachment tree plus extras.

    Vertex v >= 1 attaches to a uniformly chosen earlier vertex, which
    guarantees connectivity; ``extra_edges`` distinct non-tree edges are
    then added (fewer if the graph saturates).
    """
    if n_vertices < 2:
        raise ChainSpecError("need at least 2 vertices for a connected graph walk")
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n_vertices)}
    max_edges = n_vertices * (n_vertices - 1) // 2
    budget = min(extra_edges, max_edges - len(edges))
    while budget > 0:
        u, v = sorted(int(x) for x in rng.choice(n_vertices, size=2, replace=False))
        if (u, v) not in edges:
            edges.add((u, v))
            budget -= 1
    return tuple(sorted(edges))
