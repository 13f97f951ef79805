"""Chain generators, probability vectors, and moment functionals.

Everything downstream (hitting-time solver, transport formulas, Monte
Carlo) operates on plain row-stochastic matrices.  This module builds the
chain families with known closed-form transport behaviour:

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

Each chain scans its rows for non-zeros once, on first use, into a
row-major edge list (``TransitionMatrix._edges``), and every reader of
the sparsity pattern reads that list: the strong components and the
period (through a sparse matrix built on it), the bandwidth, the
detailed-balance residual, the certificate of the hitting matrix and the
Monte Carlo out-edge table.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

ROW_SUM_HARD_TOL = 1e-9
WINNING_STREAK_MAX_N = 40  # 2**n exhausts the 53-bit mantissa beyond this

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
    variable.  The full hitting matrix at N = 1024 (one BLAS thread):
    hypercube d=10 passes the certificate on every column of the
    one-reduction route and takes about 0.35 s; the complete graph
    n=1023 fails it on every column (bounds 4.7e-10 to 4.8e-10 against
    ``hitting.CERT_GATE`` = 1e-10, from the rounding term alone), so it
    costs the per-target LU loop, about 43 s.
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


@dataclass(frozen=True)
class ChainSpec:
    """Family name plus the parameters needed to build the chain.

    ``n`` is the family size parameter: the top state for the integer
    families (state spaces ``0..n`` or ``1..n``), the dimension for the
    hypercube, and the vertex count for explicit graphs (derived from the
    edge list).  ``p`` is accepted by ``birth_death`` only and must lie in
    (0, 1/2].  ``edges`` is required by (and exclusive to) ``graph``.
    """

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
        if self.family == "winning_streak" and self.n > WINNING_STREAK_MAX_N:
            raise ChainSpecError(
                f"winning_streak is capped at n = {WINNING_STREAK_MAX_N}; "
                f"2**{self.n} is not exactly representable in double precision"
            )

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


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix with state labels.

    ``labels`` carries the natural state names: integers for the integer
    families (``1..n`` for the winning streak) and d-bit strings for the
    hypercube.  Internal storage is always 0-based; ``labels[i]`` is the
    name of row/column ``i``.

    Entries must be finite and non-negative and rows must sum to 1 within
    ``ROW_SUM_HARD_TOL``, or construction fails; generator output is exact,
    so a violation means a broken input.
    Irreducibility is not enforced here (``validate_chain`` can diagnose a
    reducible matrix), but every generated family is irreducible and the
    solver operations refuse reducible chains.  The strong-component count
    behind both is computed once per chain, on first use, from the edge
    list that also gives the chain's ``bandwidth``.
    """

    rows: np.ndarray
    labels: tuple = None  # type: ignore[assignment]
    spec: ChainSpec | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ChainSpecError(f"transition matrix must be square, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ChainSpecError("transition probabilities must be finite")
        if np.any(rows < 0):
            raise ChainSpecError("transition probabilities must be non-negative")
        residual = np.abs(rows.sum(axis=1) - 1.0).max()
        if residual > ROW_SUM_HARD_TOL:
            raise ChainSpecError(f"rows are not stochastic, worst residual {residual:.3e}")
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        labels = self.labels
        if labels is None:
            labels = tuple(range(rows.shape[0]))
        else:
            labels = tuple(labels)
            if len(labels) != rows.shape[0]:
                raise ChainSpecError("label count does not match the state count")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def family(self) -> str | None:
        return self.spec.family if self.spec is not None else None

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The pattern p_ij > 0 as edge arrays (src, dst) in row-major order, so each
        row's columns ascend: the one scan of the rows per chain.  int32 while a
        flat index N i + j fits, that is up to 46,340 states."""
        N = self.size
        flat = np.flatnonzero(self.rows > 0).astype(np.int32 if N * N < 2**31 else np.intp)
        src = flat // N
        return src, flat - src * N

    @property
    def _transition_graph(self) -> csr_matrix:
        """The edges as the sparse matrix ``scipy.sparse.csgraph`` reads, built on use."""
        src, dst = self._edges
        indptr = np.searchsorted(src, np.arange(self.size + 1))
        return csr_matrix((np.ones(dst.size, dtype=bool), dst, indptr), shape=(self.size,) * 2)

    @cached_property
    def strong_components(self) -> int:
        """Number of strongly connected components of the transition graph."""
        n_comp, _ = connected_components(self._transition_graph, connection="strong")
        return int(n_comp)

    @cached_property
    def bandwidth(self) -> tuple[int, int]:
        """Off-diagonal bandwidth (l, u): the farthest one step reaches below
        and above the diagonal, max(i - j) and max(j - i) over p_ij > 0."""
        src, dst = self._edges
        offsets = dst - src
        return -int(offsets.min(initial=0)), int(offsets.max(initial=0))

    @cached_property
    def step_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Step times ``up[k] = E_k[tau_{k+1}]``, ``down[k] = E_{k+1}[tau_k]`` of a
        tridiagonal chain, k = 0..N-2, by first steps on the off-diagonal rates:

            up_k = (1 + p_{k,k-1} up_{k-1}) / p_{k,k+1},  up_{-1} = 0,
            down_k = (1 + p_{k+1,k+2} down_{k+1}) / p_{k+1,k},  down_{N-1} = 0.

        Nothing is subtracted.  The loop is sequential because
        detailed-balance products can overflow where step times do not.
        Meaningful for an irreducible chain of bandwidth (1, 1), whose
        off-diagonal rates are all positive; an overflow reads inf.
        """
        N = self.size
        ahead = np.diagonal(self.rows, 1).tolist() + [0.0]  # p_{k,k+1}
        behind = [0.0] + np.diagonal(self.rows, -1).tolist()  # p_{k,k-1}
        up, down = np.empty(N - 1), np.empty(N - 1)
        t = 0.0
        for k in range(N - 1):
            t = up[k] = (1.0 + behind[k] * t) / ahead[k]
        t = 0.0
        for k in range(N - 2, -1, -1):
            t = down[k] = (1.0 + ahead[k + 1] * t) / behind[k + 1]
        up.setflags(write=False)
        down.setflags(write=False)
        return up, down

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
        raise ChainSpecError(f"state {label!r} is not on this chain")


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
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

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


def _birth_death(spec: ChainSpec):
    n, p = spec.n, spec.p
    N = n + 1
    P = np.zeros((N, N))
    idx = np.arange(N)
    P[idx[:-1], idx[:-1] + 1] = p
    P[idx[1:], idx[1:] - 1] = p
    P[idx, idx] = 1.0 - P.sum(axis=1)  # 1-2p interior, 1-p at the two ends
    return P, tuple(range(N))


def _winning_streak(spec: ChainSpec):
    n = spec.n
    P = np.zeros((n, n))
    for k in range(n):  # row k holds state k+1
        P[k, 0] += 0.5  # reset to state 1
        if k + 1 < n:
            P[k, k + 1] += 0.5
        else:
            P[k, k] += 0.5  # holding loop at state n
    return P, tuple(range(1, n + 1))


def _hypercube(spec: ChainSpec):
    d = spec.n
    N = 1 << d
    P = np.zeros((N, N))
    states = np.arange(N)
    for b in range(d):
        P[states, states ^ (1 << b)] = 1.0 / d
    labels = tuple(format(s, f"0{d}b") for s in range(N))
    return P, labels


def _path(spec: ChainSpec):
    n = spec.n
    N = n + 1
    P = np.zeros((N, N))
    idx = np.arange(1, n)
    P[idx, idx - 1] = P[idx, idx + 1] = 0.5
    P[0, 1] = P[n, n - 1] = 1.0
    return P, tuple(range(N))


def _complete(spec: ChainSpec):
    n = spec.n
    N = n + 1
    P = np.full((N, N), 1.0 / n)
    np.fill_diagonal(P, 0.0)
    return P, tuple(range(N))


def _star(spec: ChainSpec):
    n = spec.n
    N = n + 1
    P = np.zeros((N, N))
    P[0, 1:] = 1.0 / n
    P[1:, 0] = 1.0
    return P, tuple(range(N))


def _graph(spec: ChainSpec):
    N = spec.n
    adj = np.zeros((N, N))
    for u, v in spec.edges:
        adj[u, v] = adj[v, u] = 1.0
    n_comp, _ = connected_components(csr_matrix(adj), directed=False)
    if n_comp != 1:
        raise ChainSpecError(f"graph is disconnected ({n_comp} components)")
    deg = adj.sum(axis=1)
    return adj / deg[:, None], tuple(range(N))


_GENERATORS = {
    "birth_death": _birth_death,
    "winning_streak": _winning_streak,
    "hypercube": _hypercube,
    "path": _path,
    "complete": _complete,
    "star": _star,
    "graph": _graph,
}


def build_chain(spec: ChainSpec) -> TransitionMatrix:
    """Build the transition matrix of a chain family.

    Parameters
    ----------
    spec : ChainSpec
        Validated family description.

    Returns
    -------
    TransitionMatrix
        Row-stochastic, irreducible, with the family's natural labels.
    """
    N = spec.num_states
    cap = dense_size_cap()
    if N > cap:
        raise ChainSpecError(
            f"{spec.family} with {N} states exceeds the dense size cap {cap} "
            f"(override with {SIZE_CAP_ENV})"
        )
    rows, labels = _GENERATORS[spec.family](spec)
    return TransitionMatrix(rows, labels=labels, spec=spec)


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
        values = values[order]
        weights = weights[order]
        values.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

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
    src, dst = P._edges
    level = dijkstra(P._transition_graph, indices=0, unweighted=True).astype(np.int64)
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def validate_chain(P: TransitionMatrix) -> ChainDiagnostics:
    """Diagnose a transition matrix: stochasticity, irreducibility,
    reversibility, periodicity.

    Never raises; hitting times are well defined for periodic chains, so
    the period is informational only.  Reversibility is reported against
    the stationary law and left undefined for reducible chains.
    """
    rows = P.rows
    residual = float(np.abs(rows.sum(axis=1) - 1.0).max())
    irreducible = P.strong_components == 1
    reversible = None
    db_residual = None
    period = None
    aperiodic = None
    if irreducible:
        from .hitting import detailed_balance_residual, stationary_distribution

        pi = stationary_distribution(P)
        db_residual = detailed_balance_residual(P, pi)
        reversible = db_residual <= 1e-10
        period = _chain_period(P)
        aperiodic = period == 1
    return ChainDiagnostics(
        row_sum_residual=residual,
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
