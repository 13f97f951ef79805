"""Optimal transport (access) times between distributions on a chain.

The access time from mu to nu is the smallest mean stopping time among
all stopping rules whose stopped law is nu when the chain starts in mu.
It reduces to mean hitting times through

    H(mu, nu) = max_j sum_i (mu_i - nu_i) E_i[tau_j],

which this module evaluates exactly from the solver (the transport scan,
gated on its error estimate, or the hitting matrix), alongside the
per-family closed forms and bounds, the symmetric-walk specializations
through t_av, and formula-versus-solver verification reports.

The closed forms are one table, ``CLOSED_FORMS``: per family a function of
(spec, mu, nu) that returns the exact value, a lower and an upper bound,
and the family's extra report fields.  ``family_report`` is the single
wrapper that checks the pair, gets the solver value and measures the
discrepancy; the ``closed_form_*`` functions are its per-family shorthands.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .chains import (
    ChainSpec,
    ChainSpecError,
    GRAPH_WALK_FAMILIES,
    MomentBundle,
    ProbabilityVector,
    TransitionMatrix,
    build_chain,
    check_laws,
    frozen,
    tv_distance,
)
from .hitting import (
    HittingTimeMatrix,
    argmax_smallest,
    hitting_time_matrix,
    is_hitting_symmetric,
    kemeny_tav,
    max_hitting_time,
    stationary_distribution,
    transport_scan,
    zero_sum,
)

#: a closed form counts as agreeing with the solver inside this relative band
ERRATUM_REL_TOL = 1e-8
#: the transport scan stands when the error estimate of its maximum is within
#: this band of the value (relative, with a unit floor); otherwise the hitting
#: matrix answers
SCAN_GATE = 1e-12


@dataclass(frozen=True)
class AccessResult:
    """Access time with the maximizing target and the full target scan.

    ``per_target[j] = sum_i (mu_i - nu_i) E_i[tau_j]`` and ``value`` is its
    maximum; ``argmax_target`` is the smallest state index attaining it.
    ``route`` names the solver that answered: ``"scan"``
    (``hitting.transport_scan``, ``error_bound`` the absolute error
    estimate of ``value``) or ``"matrix"`` (the hitting matrix,
    ``error_bound`` None).
    """

    value: float
    argmax_target: int
    per_target: np.ndarray
    route: str = "matrix"
    error_bound: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_target", frozen(self.per_target))

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "argmax_target": self.argmax_target,
            "per_target": list(self.per_target),
        }


@dataclass(frozen=True)
class FamilyReport:
    """Closed-form transport value with its bounds and the solver cross-check.

    ``erratum_flag`` and ``mirror_corrected`` are birth-death only: the
    classical downhill hitting branch disagrees with the holding-boundary
    chain, so whenever the closed form drifts from the solver the report
    flags it and carries the value recomputed from the mirror-corrected
    branch (which tracks the solver to rounding error).  ``best_dirac`` is
    complete-graph only: the Dirac source with the least access time to nu.
    """

    family: str
    exact: float
    lower: float
    upper: float
    solver_value: float
    discrepancy: float
    erratum_flag: bool = False
    mirror_corrected: float | None = None
    best_dirac: int | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        if self.family != "birth_death":
            del out["erratum_flag"], out["mirror_corrected"]
        if self.family != "complete":
            del out["best_dirac"]
        return out


def access_time(
    P: TransitionMatrix,
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    hitting: HittingTimeMatrix | None = None,
) -> AccessResult:
    """Exact access time H(mu, nu) of an irreducible chain.

    Parameters
    ----------
    P : TransitionMatrix
        Irreducible chain.
    mu, nu : ProbabilityVector
        Source and target laws on P's state space.
    hitting : HittingTimeMatrix, optional
        Precomputed solver output, reused across many (mu, nu) pairs.
        Without it the pair is read off ``transport_scan``, unless the
        error estimate of its maximum, max(e_j*, max_j (s_j + e_j) - s_j*)
        with s_j the scores, e_j their estimates and j* the argmax, fails
        ``SCAN_GATE``; then the matrix is built.  Both routes evaluate
        mu - nu projected by ``zero_sum``.

    Returns
    -------
    AccessResult
        Value, maximizing target index, per-target scores and the route.
    """
    check_laws(P.size, mu, nu)
    d = mu.weights - nu.weights
    if hitting is None:
        scores, err = transport_scan(P, d)
        if np.isfinite(scores).all() and np.isfinite(err).all():
            value, argmax = argmax_smallest(scores)
            bound = max(float(err[scores.argmax()]), float((scores + err).max()) - value)
            if bound <= SCAN_GATE * max(1.0, abs(value)):
                return AccessResult(value, argmax, scores, route="scan", error_bound=bound)
        hitting = hitting_time_matrix(P)
    scores = zero_sum(d) @ hitting.values
    value, argmax = argmax_smallest(scores)
    return AccessResult(value=value, argmax_target=argmax, per_target=scores)


# ---------------------------------------------------------------------------
# family closed forms


def _bd_form(spec: ChainSpec, mu: ProbabilityVector, nu: ProbabilityVector) -> dict:
    """Symmetric birth-death transport time from moments of d = mu - nu.

    exact = (-E_d Z + max_j E_d|Z^2 - j^2|) / 2p

    with lower bound (E_d Z^2 - E_d Z)+ / 2p and upper bound (2n^2 + n) / 2p.
    The downhill inconsistency described on FamilyReport applies: mu-to-nu
    transports that lean on downhill moves can drift from the solver, in
    which case ``erratum_flag`` is set.  Note that the lower bound inherits
    the same defect, so it bounds ``exact`` but not necessarily
    ``solver_value``.  The mirror branch reads, for every i and j,
    2p E_i[tau_j] = (j^2 + j) - (i^2 + i) + 2(n+1)(i - j)+, so with
    sum d = 0

    mirror_corrected = (-E_d Z^2 - E_d Z + 2(n+1) max_j E_d(Z-j)+) / 2p.
    """
    n, p = spec.n, spec.p
    cuts = np.arange(n + 1)
    m = MomentBundle(cuts, mu.weights - nu.weights)
    return {
        "exact": (float(m.minmax_sq(cuts).max()) - m.mean) / (2 * p),
        "lower": max(0.0, m.second_moment - m.mean) / (2 * p),
        "upper": (2 * n * n + n) / (2 * p),
        "mirror_corrected": (2 * (n + 1) * float(m.excess(cuts).max()) - m.second_moment - m.mean)
        / (2 * p),
    }


def _ws_form(spec: ChainSpec, mu: ProbabilityVector, nu: ProbabilityVector) -> dict:
    """Winning streak transport time from truncated base-2 pgf values of d = mu - nu.

    exact = max_j -E_d[2^Z 1{Z <= j}], bounded below by (-E_d 2^Z)+ and
    above by 2^n.
    """
    n = spec.n
    cuts = np.arange(1, n + 1)
    m = MomentBundle(cuts, mu.weights - nu.weights)
    return {
        # 0.0 - min rather than max of the negation, so mu == nu reads 0.0, not -0.0
        "exact": 0.0 - float(m.truncated_pgf2(cuts).min()),
        "lower": max(0.0, -m.pgf2),
        "upper": float(2**n),
    }


def _path_form(spec: ChainSpec, mu: ProbabilityVector, nu: ProbabilityVector) -> dict:
    """Reflecting path transport time from moments of d = mu - nu.

    exact = -E_d Z^2 + 2n max_j E_d(Z-j)+, bounded below by
    (-E_d Z^2 + 2n E_d Z)+ and above by n^2.
    """
    n = spec.n
    cuts = np.arange(n + 1)
    m = MomentBundle(cuts, mu.weights - nu.weights)
    return {
        "exact": 2 * n * float(m.excess(cuts).max()) - m.second_moment,
        "lower": max(0.0, 2 * n * m.mean - m.second_moment),
        "upper": float(n * n),
    }


def _complete_form(spec: ChainSpec, mu: ProbabilityVector, nu: ProbabilityVector) -> dict:
    """Complete-graph transport time n max_j (nu_j - mu_j), plus the best
    Dirac source.

    The Dirac mass minimizing H(delta_i, nu) sits at the mode of nu
    (smallest index on ties); the report's upper bound is n TV(mu, nu).
    """
    exact = float(spec.n * (nu.weights - mu.weights).max())
    return {
        "exact": exact,
        "lower": max(0.0, exact),
        "upper": float(spec.n) * tv_distance(mu, nu),
        "best_dirac": argmax_smallest(nu.weights)[1],
    }


def _star_form(spec: ChainSpec, mu: ProbabilityVector, nu: ProbabilityVector) -> dict:
    """n-star transport time nu_0 - mu_0 + 2n (max_{j>=1} (nu_j - mu_j))+.

    Upper bound (2n + 1) TV(mu, nu); the lower bound is the exact value
    itself (the leaf-wise bound is tight at the maximizing leaf).
    """
    n = spec.n
    diff = nu.weights - mu.weights
    exact = float(diff[0] + 2 * n * max(0.0, diff[1:].max()))
    return {"exact": exact, "lower": exact, "upper": (2 * n + 1) * tv_distance(mu, nu)}


#: family -> form(spec, mu, nu), returning ``exact``, ``lower``, ``upper`` and
#: the family's extra FamilyReport fields
CLOSED_FORMS = {
    "birth_death": _bd_form,
    "winning_streak": _ws_form,
    "path": _path_form,
    "complete": _complete_form,
    "star": _star_form,
}


def family_report(
    spec: ChainSpec,
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    hitting: HittingTimeMatrix | None = None,
    solver_value: float | None = None,
) -> FamilyReport:
    """The family's closed form and bounds, checked against the exact solver.

    The solver value is ``solver_value`` when given, else the transport
    scan of ``hitting``; the chain is built and ``access_time`` solves it
    only when neither is passed.  Raises for families without a closed form.
    """
    form = CLOSED_FORMS.get(spec.family)
    if form is None:
        raise ChainSpecError(f"family {spec.family!r} has no closed-form transport formula")
    check_laws(spec.num_states, mu, nu)
    if solver_value is None and hitting is None:
        solver_value = access_time(build_chain(spec), mu, nu).value
    elif solver_value is None:
        solver_value = (zero_sum(mu.weights - nu.weights) @ hitting.values).max()
    solver = float(solver_value)
    fields = form(spec, mu, nu)
    discrepancy = abs(fields["exact"] - solver)
    return FamilyReport(
        family=spec.family,
        solver_value=solver,
        discrepancy=discrepancy,
        erratum_flag=spec.family == "birth_death"
        and discrepancy > ERRATUM_REL_TOL * max(1.0, abs(solver)),
        **fields,
    )


def closed_form_bd(n, p, mu, nu, hitting=None, solver_value=None) -> FamilyReport:
    """Birth-death report; see ``_bd_form`` for the formulas."""
    return family_report(ChainSpec("birth_death", n=n, p=p), mu, nu, hitting, solver_value)


def closed_form_ws(n, mu, nu, hitting=None, solver_value=None) -> FamilyReport:
    """Winning-streak report; see ``_ws_form`` for the formulas."""
    return family_report(ChainSpec("winning_streak", n=n), mu, nu, hitting, solver_value)


def closed_form_path(n, mu, nu, hitting=None, solver_value=None) -> FamilyReport:
    """Reflecting-path report; see ``_path_form`` for the formulas."""
    return family_report(ChainSpec("path", n=n), mu, nu, hitting, solver_value)


def closed_form_complete(n, mu, nu, hitting=None, solver_value=None) -> tuple[FamilyReport, int]:
    """Complete-graph report and its best Dirac source; see ``_complete_form``."""
    report = family_report(ChainSpec("complete", n=n), mu, nu, hitting, solver_value)
    return report, report.best_dirac


def closed_form_star(n, mu, nu, hitting=None, solver_value=None) -> FamilyReport:
    """Star report; see ``_star_form`` for the formulas."""
    return family_report(ChainSpec("star", n=n), mu, nu, hitting, solver_value)


# ---------------------------------------------------------------------------
# bounds and specializations


@dataclass(frozen=True)
class GeneralBounds:
    """Structure-free transport bounds for a chain.

    ``max_hitting`` bounds H(mu, nu) for every (mu, nu); for walks on
    graphs the cubic vertex-count bound |V|(|V|-1)^2 is attached as well.
    """

    max_hitting: float
    argmax_pair: tuple
    connected_graph_bound: float | None

    def to_json(self) -> dict:
        return asdict(self)


def general_bounds(
    P: TransitionMatrix, hitting: HittingTimeMatrix | None = None
) -> GeneralBounds:
    """Master bound max_ij E_i[tau_j], plus |V|(|V|-1)^2 for graph walks."""
    M = hitting if hitting is not None else hitting_time_matrix(P)
    value, pair = max_hitting_time(P, hitting=M)
    graph_bound = None
    if P.family in GRAPH_WALK_FAMILIES:
        N = P.size
        graph_bound = float(N * (N - 1) ** 2)
    return GeneralBounds(max_hitting=value, argmax_pair=pair, connected_graph_bound=graph_bound)


def symmetric_walk_access(
    P: TransitionMatrix,
    dist: ProbabilityVector,
    direction: str,
    hitting: HittingTimeMatrix | None = None,
) -> AccessResult:
    """Access time to or from the stationary law on a hitting-symmetric walk.

    For walks with E_i[tau_j] = E_j[tau_i] (complete graphs, the hypercube
    and other vertex-transitive walks):

        from_pi: H(pi, nu) = t_av - min_j sum_i nu_i E_i[tau_j]
        to_pi:   H(mu, pi) = max_j sum_i mu_i E_i[tau_j] - t_av

    Both are cross-checked against the direct evaluation and must agree to
    1e-8 relative; chains failing the symmetry test are refused.
    """
    if direction not in ("from_pi", "to_pi"):
        raise ChainSpecError(f"direction must be from_pi or to_pi, got {direction!r}")
    check_laws(P.size, dist)
    M = hitting if hitting is not None else hitting_time_matrix(P)
    symmetric, asym = is_hitting_symmetric(P, hitting=M)
    if not symmetric:
        raise ChainSpecError(
            f"hitting times are asymmetric (worst gap {asym:.3e}); "
            "the t_av specialization does not apply"
        )
    pi = stationary_distribution(P)
    t_av = kemeny_tav(P, hitting=M).t_av_doublesum
    weighted = dist.weights @ M.values  # sum_i dist_i E_i[tau_j] per target j
    if direction == "from_pi":
        per_target = t_av - weighted
        reference = access_time(P, pi, dist, hitting=M)
    else:
        per_target = weighted - t_av
        reference = access_time(P, dist, pi, hitting=M)
    value, argmax = argmax_smallest(per_target)
    if abs(value - reference.value) > 1e-8 * max(1.0, abs(reference.value)):
        raise RuntimeError(
            f"t_av specialization ({value}) and direct evaluation ({reference.value}) disagree"
        )
    return AccessResult(value=value, argmax_target=argmax, per_target=per_target)


# ---------------------------------------------------------------------------
# verification harness


@dataclass(frozen=True, kw_only=True)
class VerifyResult(FamilyReport):
    """One formula-versus-solver comparison: the family report, the chain's
    ``n`` and ``p``, and the verdict.

    ``status`` is PASS when the closed form matches the solver and the
    bound sandwich holds around the solver value (``sandwich_ok``), ERRATUM
    when the known birth-death downhill defect explains the gap (the
    mirror-corrected value then matches the solver), and FAIL otherwise.
    """

    n: int
    p: float | None
    status: str
    sandwich_ok: bool


def verify_family(
    spec: ChainSpec,
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    tol: float = 1e-9,
    hitting: HittingTimeMatrix | None = None,
) -> VerifyResult:
    """Compare a family closed form, its bounds, and the exact solver.

    PASS needs |exact - solver| <= tol max(1, |solver|) and the bound
    sandwich lower <= solver <= upper with the same scale-relative slack
    (bounds are often attained exactly, e.g. the streak chain at 2^n
    magnitudes, where an absolute whisker would drown in rounding).  For
    birth-death, a downhill discrepancy is the documented ERRATUM outcome
    rather than a failure, provided the mirror-corrected value matches the
    solver and the upper bound still brackets it.  On such pairs the
    closed form can even go negative, so no lower-bound clause applies.
    """
    report = family_report(spec, mu, nu, hitting=hitting)
    solver = report.solver_value
    slack = tol * max(1.0, abs(solver))
    formula_ok = report.discrepancy <= slack
    sandwich_ok = (report.lower - slack <= solver) and (solver <= report.upper + slack)
    if formula_ok and sandwich_ok:
        status = "PASS"
    elif (
        spec.family == "birth_death"
        and abs(report.mirror_corrected - solver) <= slack
        and solver <= report.upper + slack
    ):
        status = "ERRATUM"
    else:
        status = "FAIL"
    return VerifyResult(
        **vars(report), n=spec.n, p=spec.p, status=status, sandwich_ok=sandwich_ok
    )
