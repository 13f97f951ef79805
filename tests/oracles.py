"""Independent oracles for the tests.

Expected values are recomputed here through routes the library never
takes: exact rational Gaussian elimination for hitting times and
stationary laws, plain Python scans for transport values, a distance
chain recursion for the hypercube, convolution for binomial weights,
boolean matrix powers for the period, and the full-width Monte Carlo loop
that advances every sample on every step.
"""
from fractions import Fraction
from math import gcd

import numpy as np


def _solve_fraction(A, b):
    """Gauss-Jordan with exact rationals."""
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


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


def _cumulative(weights):
    C = np.cumsum(weights, axis=-1)
    C[..., -1] = 1.0
    return C


def full_width_walks(transition_rows, mu, nu, samples, seed):
    """Step counts and stopped states of the independent-target rule, the slow way.

    Every step draws the full lattice row with ``Generator.random`` and
    masks the whole sample width, until the slowest walk ends; the
    compacted kernel must reproduce both arrays exactly.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    current = np.searchsorted(_cumulative(mu), rng.random(samples), side="right")
    targets = np.searchsorted(_cumulative(nu), rng.random(samples), side="right")
    C = _cumulative(np.asarray(transition_rows, dtype=float))

    steps = np.zeros(samples, dtype=np.int64)
    active = current != targets
    while active.any():
        u = rng.random(samples)  # full-width row keeps the lattice fixed
        rows = C[current[active]]
        moved = (rows <= u[active, None]).sum(axis=1)  # searchsorted, side right
        current[active] = moved
        steps[active] += 1
        active = current != targets
    return steps, current
