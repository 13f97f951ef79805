"""Independent oracles for the tests.

Expected values are recomputed here through routes the library never
takes: exact fraction-free Gaussian elimination for hitting times and
stationary laws, plain Python scans for transport values, a distance
chain recursion for the hypercube, convolution for binomial weights,
boolean matrix powers for the period and the strong components, loops
over every entry for the bandwidth, the out-edge table read off the dense
rows, a scalar Monte Carlo loop that moves one walk at a time, and each
family's transition matrix filled in as a dense array.
"""
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm

import numpy as np


def _solve_fraction(A, b):
    """Exact solution of A x = b, rationals in and out, by fraction-free (Bareiss)
    elimination: each row is scaled to integers, every division of the
    elimination is exact, and only the back substitution reduces fractions."""
    n = len(b)
    M = []
    for row, rhs in zip(A, b):
        scale = lcm(*(x.denominator for x in row), rhs.denominator)
        M.append([int(x * scale) for x in row] + [int(rhs * scale)])
    prev = 1
    for k in range(n):
        piv = next(r for r in range(k, n) if M[r][k] != 0)
        M[k], M[piv] = M[piv], M[k]
        top, a = M[k], M[k][k]
        for i in range(k + 1, n):
            f, rest = M[i][k], zip(M[i][k + 1 :], top[k + 1 :])
            M[i] = [0] * (k + 1) + [(x * a - f * y) // prev for x, y in rest]
        prev = a
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        x[i] = (M[i][n] - sum(M[i][j] * x[j] for j in range(i + 1, n))) / Fraction(M[i][i])
    return x


def fraction_hitting_matrix(rows):
    """All-pairs mean hitting times by exact elimination of the first-step system."""
    P = [[Fraction(x) for x in row] for row in np.asarray(rows, dtype=float).tolist()]
    N = len(P)
    out = [[Fraction(0)] * N for _ in range(N)]
    for target in range(N):
        idx = [i for i in range(N) if i != target]
        A = [
            [(Fraction(1) if a == b else Fraction(0)) - P[a][b] for b in idx]
            for a in idx
        ]
        sol = _solve_fraction(A, [Fraction(1)] * (N - 1))
        for pos, i in enumerate(idx):
            out[i][target] = sol[pos]
    return out


def fraction_stationary(rows):
    """Invariant law: solve (P^T - I) pi = 0 with a sum-to-one row swapped in."""
    P = [[Fraction(x) for x in row] for row in np.asarray(rows, dtype=float).tolist()]
    N = len(P)
    A = [
        [P[b][a] - (Fraction(1) if a == b else Fraction(0)) for b in range(N)]
        for a in range(N)
    ]
    A[N - 1] = [Fraction(1)] * N
    b = [Fraction(0)] * (N - 1) + [Fraction(1)]
    return _solve_fraction(A, b)


def fraction_distance_chains(rows):
    """Per target j, the graph distance of every state to j and the exact times
    F_k = E_k[tau_0] of the chain of that distance, for a walk whose hitting
    times depend only on the distance to the target.

    The distances are found breadth first over the pattern of the rows; one
    state per distance k gives the Fraction rates of the tridiagonal
    distance chain, p_{k,k+1} and p_{k,k-1}, and its step times down to the
    target, down_k = (1 + p_{k+1,k+2} down_{k+1}) / p_{k+1,k}, sum to F.
    """
    P = [[Fraction(x) for x in row] for row in np.asarray(rows, dtype=float).tolist()]
    N = len(P)
    chains = []
    for target in range(N):
        dist, frontier, k = {target: 0}, [target], 0
        while frontier:
            k += 1
            frontier = [i for i in range(N) if i not in dist and any(P[i][j] for j in frontier)]
            dist.update((i, k) for i in frontier)
        K = max(dist.values()) + 1
        rep = {dist[i]: i for i in range(N)}
        to = [[sum(p for j, p in enumerate(P[rep[k]]) if dist[j] == m) for m in range(K)]
              for k in range(K)]
        down = [Fraction(0)] * K  # down[k] = E_{k+1}[tau_k]; down[K-1] unused
        for k in range(K - 2, -1, -1):
            onward = to[k + 1][k + 2] * down[k + 1] if k + 2 < K else 0
            down[k] = (1 + onward) / to[k + 1][k]
        chains.append(([dist[i] for i in range(N)], [sum(down[:k], Fraction(0)) for k in range(K)]))
    return chains


def brute_access(hitting_values, mu, nu):
    """max_j sum_i (mu_i - nu_i) E_i[tau_j] with plain Python loops."""
    values = np.asarray(hitting_values, dtype=float)
    N = values.shape[0]
    best = None
    for j in range(N):
        s = 0.0
        for i in range(N):
            s += (mu[i] - nu[i]) * values[i, j]
        best = s if best is None else max(best, s)
    return best


def cube_antipodal_exact(d):
    """Antipodal mean hitting time of the d-cube via its distance chain.

    The walk projected onto Hamming distance from the target is a birth
    death chain with up probability (d-k)/d; summing the exact one-step
    uphill times gives the antipodal hitting time, which is also the
    maximal one.
    """
    total = Fraction(0)
    prev = Fraction(0)
    for k in range(d):
        cur = (1 + Fraction(k, d) * prev) / Fraction(d - k, d)
        total += cur
        prev = cur
    return total


def binomial_pmf_by_convolution(m, p):
    """Binomial(m, p) weights as the m-fold convolution of (1-p, p)."""
    pmf = np.array([1.0])
    step = np.array([1.0 - p, p])
    for _ in range(m):
        pmf = np.convolve(pmf, step)
    return pmf


def return_time_period(rows):
    """Period as the gcd of the return times t <= 3N to state 0.

    Boolean matrix powers stand in for the graph: every cycle of length
    l <= N is reached from state 0 and left again in at most N - 1 steps
    each, so closed walks of lengths a + b and a + l + b, both <= 3N,
    return to 0 and their gcd divides l.
    """
    step = (np.asarray(rows) > 0).astype(np.int64)
    N = step.shape[0]
    reach = np.eye(N, dtype=np.int64)
    g = 0
    for t in range(1, 3 * N + 1):
        reach = np.minimum(reach @ step, 1)
        if reach[0, 0]:
            g = gcd(g, t)
    return g


def strong_component_count(rows):
    """Strong components as the classes of mutual reachability, from boolean
    matrix powers of the pattern: reach[i, j] is a walk of 0..N-1 steps."""
    step = (np.asarray(rows) > 0).astype(np.int64)
    N = step.shape[0]
    reach = np.eye(N, dtype=np.int64)
    for _ in range(N):
        reach = np.minimum(reach + reach @ step, 1)
    mutual = (reach * reach.T).astype(bool)
    return len({tuple(np.flatnonzero(row)) for row in mutual})


def pattern_bandwidth(rows):
    """(max(i - j), max(j - i)) over the entries p_ij > 0, and 0, one entry at a time."""
    lower = upper = 0
    for i, row in enumerate(np.asarray(rows).tolist()):
        for j, p in enumerate(row):
            if p > 0:
                lower, upper = max(lower, i - j), max(upper, j - i)
    return lower, upper


def dense_out_edges(weights):
    """Out-edge table ``(dest, bins)`` of each row of ``weights``; a law is one row.

    ``dest[i, :d_i]`` holds the d_i non-zero columns of row i in increasing
    order and ``bins[:d_i - 1, i]`` their cumulative sums but the last; the
    rest of ``bins[:, i]``, to K - 1 entries for K = max d_i, reads 1.0,
    which no uniform u < 1 reaches.
    """
    rows = np.atleast_2d(weights)
    src, dst = np.nonzero(rows)  # row-major, so each row's columns ascend
    degree = np.bincount(src, minlength=rows.shape[0])
    K = int(degree.max())
    slot = np.arange(src.size) - np.repeat(np.cumsum(degree) - degree, degree)
    dest = np.zeros((rows.shape[0], K), dtype=np.intp)
    dest[src, slot] = dst
    cum = np.zeros(dest.shape)
    cum[src, slot] = rows[src, dst]
    np.cumsum(cum, axis=1, out=cum)  # the dense row's cumsum at its non-zero columns
    cum[np.arange(K) >= degree[:, None] - 1] = 1.0
    return dest, np.ascontiguousarray(cum[:, :-1].T)


def _support(weights):
    """A row's non-zero columns and their cumulative sums, as lists."""
    cols = np.flatnonzero(weights)
    return cols.tolist(), np.cumsum(weights[cols]).tolist()


def _pick(edges, u):
    """The state u picks: a search, side right, of u among the row's cumulative sums.

    A u at or past the rounded row sum takes the row's last non-zero
    column, never a column the row cannot reach.
    """
    cols, cum = edges
    return cols[min(bisect_right(cum, u), len(cols) - 1)]


def scalar_walks(transition_rows, mu, nu, samples, seed):
    """Step counts and stopped states of the independent-target rule, one walk at a time.

    The starts and the targets each take a row of ``samples`` uniforms; then
    every step draws one ``Generator.random()`` per walk still moving, in
    increasing sample index, and moves that walk alone.  The vectorized
    kernel must reproduce both arrays exactly.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = [_support(row) for row in np.asarray(transition_rows, dtype=float)]
    start, target = _support(np.asarray(mu)), _support(np.asarray(nu))
    current = [_pick(start, u) for u in rng.random(samples).tolist()]
    targets = [_pick(target, u) for u in rng.random(samples).tolist()]
    steps = [0] * samples
    moving = [k for k in range(samples) if current[k] != targets[k]]
    while moving:
        for k in moving:
            current[k] = _pick(rows[current[k]], rng.random())
            steps[k] += 1
        moving = [k for k in moving if current[k] != targets[k]]
    return np.array(steps, dtype=np.int64), np.array(current)


def dense_family_rows(spec):
    """The transition matrix of a family spec, filled in as an N x N array."""
    n = spec.n
    if spec.family == "hypercube":
        N = 1 << n
        P = np.zeros((N, N))
        for b in range(n):
            P[np.arange(N), np.arange(N) ^ (1 << b)] = 1.0 / n
        return P
    if spec.family == "winning_streak":
        P = np.zeros((n, n))
        for k in range(n):  # row k holds state k+1
            P[k, 0] += 0.5
            P[k, min(k + 1, n - 1)] += 0.5
        return P
    if spec.family == "graph":
        adj = np.zeros((n, n))
        for u, v in spec.edges:
            adj[u, v] = adj[v, u] = 1.0
        return adj / adj.sum(axis=1)[:, None]
    N = n + 1
    P = np.zeros((N, N))
    for i in range(N):
        if spec.family == "path":
            P[i, [j for j in (i - 1, i + 1) if 0 <= j < N]] = 1.0 if i in (0, n) else 0.5
        elif spec.family == "birth_death":
            P[i, [j for j in (i - 1, i + 1) if 0 <= j < N]] = spec.p
            P[i, i] = 1.0 - P[i].sum()
        elif spec.family == "complete":
            P[i] = 1.0 / n
            P[i, i] = 0.0
        elif spec.family == "star":  # centre 0
            if i == 0:
                P[0, 1:] = 1.0 / n
            else:
                P[i, 0] = 1.0
    return P
