"""Command-line front end.

Subcommands: ``gen``, ``compute``, ``verify``, ``bounds``, ``scale``,
``simulate``.  Chains arrive as JSON specs, distributions as the compact
grammar ``dirac:K | uniform | binomial:P | stationary | file:PATH``.
JSON reports go through ``_emit_json``, to stdout or, for ``simulate``, to
``--out``; tables go to ``--out`` through ``hitting.write_csv``.

Exit codes: 0 success, 1 verification or consistency failure, 2 input
validation or an ``--out`` path that cannot be written, 3 numerical trouble
(reducible chain, hitting times past the float range).
"""
from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import sys
import time
from typing import NamedTuple

import numpy as np

from .access import CLOSED_FORMS, access_time, family_report, general_bounds, verify_family
from .chains import (
    ChainSpec,
    ChainSpecError,
    DistSpec,
    ProbabilityVector,
    ReducibleChainError,
    abridged,
    build_chain,
    build_distribution,
    check_dense_size,
    validate_chain,
)
from .hitting import hitting_time_matrix, hitting_time_to, open_out, write_csv
from .simulate import simulate_rule

SCALE_SCENARIOS = ("worst_dirac", "random_pair", "paper_example")

#: the rows ``verify`` and each scale scenario run: a test of a row's spec, and the
#: reason a row that fails it is refused
SWEEP_ROWS = {
    "verify": (lambda s: s.family in CLOSED_FORMS, "it has no closed form to verify"),
    "worst_dirac": (lambda s: True, ""),
    "random_pair": (lambda s: s.family != "birth_death", "its closed-form lower bound inherits "
                    "the downhill branch defect and can sit above the solver value (see README)"),
    "paper_example": (lambda s: s.family == "path" or s.family == "winning_streak" and s.n >= 2,
                      "only path and winning_streak n >= 2 have one"),
}


class SweepRow(NamedTuple):
    """One row of a ``scale`` sweep; the field names are the ``--out`` CSV header."""

    family: str
    n: int
    p: float | None
    scenario: str
    H: float
    bound_lower: float
    bound_upper: float
    max_hitting: float
    wall_time_ms: float


VERIFY_COLUMNS = (
    "family",
    "n",
    "p",
    "trial",
    "status",
    "exact",
    "solver_value",
    "lower",
    "upper",
    "discrepancy",
    "mirror_corrected",
)


def parse_dist_shorthand(text: str) -> DistSpec:
    """Parse ``dirac:K``, ``uniform``, ``binomial:P``, ``stationary``, ``file:PATH``."""
    if text == "uniform":
        return DistSpec(kind="uniform")
    if text == "stationary":
        return DistSpec(kind="stationary")
    if text.startswith("dirac:"):
        raw = text.split(":", 1)[1]
        try:
            at: object = int(raw)
        except ValueError:
            at = raw  # hypercube bit-string label
        if str(at) != raw:
            at = raw  # leading zeros: a bit string such as 0011, not the integer 11
        return DistSpec(kind="dirac", at=at)
    if text.startswith("binomial:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ChainSpecError(f"bad binomial parameter in {abridged(text)!r}") from exc
        return DistSpec(kind="binomial", p=p)
    if text.startswith("file:"):
        path = text.split(":", 1)[1]
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer too long
            reason = getattr(exc, "strerror", None) or exc  # an OSError names the path again
            raise ChainSpecError(
                f"cannot read distribution file {abridged(path)!r}: {reason}"
            ) from exc
        return DistSpec.from_json(obj)
    raise ChainSpecError(
        f"bad distribution {abridged(text)!r}; expected dirac:K, uniform, binomial:P, "
        "stationary, file:PATH"
    )


def _parse_chain(text: str) -> ChainSpec:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ChainSpecError(f"chain spec is not valid JSON: {exc}") from exc
    return ChainSpec.from_json(obj)


def _parse_n_list(text: str) -> list[range]:
    """``10`` or ``2..20`` or comma-separated mixes of both, one range per part and
    none of them expanded."""
    shown = abridged(text)
    try:
        out = []
        for part in text.split(","):
            lo, dots, hi = part.partition("..")
            out.append(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError as exc:  # also a number past Python's 4,300-digit limit
        raise ChainSpecError(f"bad n list {shown!r}") from exc
    if not any(out) or any(r and r.start < 1 for r in out):
        raise ChainSpecError(f"bad n list {shown!r}")
    return out


def _emit_json(obj: dict, out: str | None = None) -> None:
    """Print a JSON report, or write it to the file ``out``."""
    text = json.dumps(obj, indent=2)
    if out:
        with open_out(out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    spec = _parse_chain(args.chain)
    chain = build_chain(spec)
    diag = validate_chain(chain)
    report = {
        "spec": spec.to_json(),
        "size": chain.size,
        "labels": [str(l) for l in chain.labels],
        "diagnostics": diag.to_json(),
    }
    if args.out:
        rows = ([label, *row.tolist()] for label, row in zip(chain.labels, chain.rows))
        write_csv(args.out, ("state", *chain.labels), rows)
        report["out"] = args.out
    _emit_json(report)
    return 0


def _chain_and_laws(args) -> tuple:
    """The ``--chain`` spec, its chain, and the ``--mu`` and ``--nu`` laws on it."""
    spec = _parse_chain(args.chain)
    chain = build_chain(spec)
    mu, nu = (build_distribution(parse_dist_shorthand(text), chain) for text in (args.mu, args.nu))
    return spec, chain, mu, nu


def cmd_compute(args) -> int:
    spec, chain, mu, nu = _chain_and_laws(args)
    result = access_time(chain, mu, nu)
    payload = result.to_json()
    if args.closed_form:
        payload["family_report"] = family_report(spec, mu, nu, solver_value=result.value).to_json()
    _emit_json(payload)
    return 0


def cmd_bounds(args) -> int:
    spec = _parse_chain(args.chain)
    chain = build_chain(spec)
    M = hitting_time_matrix(chain)
    bounds = general_bounds(chain, hitting=M)
    payload = bounds.to_json()
    if args.out:
        M.to_csv(args.out)
        payload["out"] = args.out
    _emit_json(payload)
    return 0


def _family_spec(family: str, n: int, p: float) -> ChainSpec:
    """Size-n spec of a family; only birth_death takes the --p value."""
    return ChainSpec(family, n=n, p=p if family == "birth_death" else None)


def _row_specs(families, ns, p, out, sweep) -> list[ChainSpec]:
    """The spec of every row, family by family, built and checked in order before the
    first solve: the first row over the dense size cap (a range stops there, as a family
    has at least n states) or outside ``SWEEP_ROWS[sweep]``, or an ``out`` that cannot be
    opened to append (which creates a missing file empty), is refused here."""
    runs, reason = SWEEP_ROWS[sweep]
    specs = []
    for family in families:
        for n in itertools.chain.from_iterable(ns):
            spec = _family_spec(family, n, p)
            check_dense_size(spec.num_states, family)
            if not runs(spec):
                raise ChainSpecError(f"{family} n={n} is refused by {sweep}: {reason}")
            specs.append(spec)
    if out:
        with open_out(out, "a"):
            pass
    return specs


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of ``--seed``, a non-negative integer."""
    if seed < 0:
        raise ChainSpecError(f"--seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _random_pair(rng: np.random.Generator, N: int) -> tuple[ProbabilityVector, ProbabilityVector]:
    return (
        ProbabilityVector(rng.dirichlet(np.ones(N))),
        ProbabilityVector(rng.dirichlet(np.ones(N))),
    )


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ChainSpecError(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 <= args.tol < np.inf:  # NaN fails every comparison
        raise ChainSpecError(f"--tol must be finite and non-negative, got {args.tol}")
    ns = _parse_n_list(args.n)
    rng = _seeded_rng(args.seed)
    specs = _row_specs([args.family], ns, args.p, args.out, "verify")
    counts = {"PASS": 0, "ERRATUM": 0, "FAIL": 0}

    def trial_rows():
        """Each trial's CSV row, solved as it is read, so no row outlives its write."""
        for spec in specs:
            chain = build_chain(spec)
            M = hitting_time_matrix(chain)
            for trial in range(args.trials):
                mu, nu = _random_pair(rng, chain.size)
                res = verify_family(spec, mu, nu, tol=args.tol, hitting=M)
                counts[res.status] += 1
                row = {"trial": trial, **vars(res)}
                yield [row[c] for c in VERIFY_COLUMNS]

    if args.out:
        write_csv(args.out, VERIFY_COLUMNS, trial_rows())
    else:
        collections.deque(trial_rows(), maxlen=0)  # run every trial, keep no row
    print(
        f"{args.family}: {counts['PASS']} PASS, {counts['ERRATUM']} ERRATUM, "
        f"{counts['FAIL']} FAIL over n in {specs[0].n}..{specs[-1].n} x {args.trials} trials"
    )
    return 0 if counts["FAIL"] == 0 else 1


def _extremal_pair(family: str, N: int) -> tuple[int, int]:
    """State indices (i, j) with E_i[tau_j] the maximal hitting time of a scale family:
    two leaves of the star (its centre and leaf at n = 1), else the ends, which are
    antipodes on the hypercube and one of many pairs on the complete graph."""
    return (N - 2, N - 1) if family == "star" else (0, N - 1)


def _scale_distributions(spec: ChainSpec, chain, scenario: str, rng):
    """The (mu, nu) pair for one sweep row, or None for worst_dirac."""
    N = chain.size
    if scenario == "random_pair":
        return _random_pair(rng, N)
    if scenario == "paper_example":
        if spec.family == "winning_streak":
            nu = np.full(N, 1.0 / (2 * (spec.n - 1)))
            nu[-1] = 0.5
            return build_distribution(DistSpec(kind="dirac", at=1), chain), ProbabilityVector(nu)
        mu = build_distribution(DistSpec(kind="uniform"), chain)  # path: _row_specs refused others
        nu = build_distribution(DistSpec(kind="binomial", p=0.2), chain)
        return mu, nu
    return None


def _sweep_row(spec: ChainSpec, scenario: str, rng) -> SweepRow:
    t0 = time.perf_counter()
    chain = build_chain(spec)
    pair = _scale_distributions(spec, chain, scenario, rng)
    i, j = _extremal_pair(spec.family, chain.size)
    max_hit = float(hitting_time_to(chain, j)[i])
    if pair is None:  # worst_dirac: the access time of two Dirac laws is E_i[tau_j]
        mu_v, nu_v = (build_distribution(DistSpec(kind="dirac", at=chain.labels[k]), chain)
                      for k in (i, j))
        H = max_hit
    else:
        mu_v, nu_v = pair
        H = access_time(chain, mu_v, nu_v).value

    if spec.family in CLOSED_FORMS:
        report = family_report(spec, mu_v, nu_v, solver_value=H)
        lower, upper = report.lower, report.upper
    else:
        lower, upper = 0.0, max_hit
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SweepRow(spec.family, spec.n, spec.p, scenario, H, lower, upper, max_hit, wall_ms)


def cmd_scale(args) -> int:
    families = [f.strip() for f in args.families.split(",")]
    ns = _parse_n_list(args.n)
    if args.scenario not in SCALE_SCENARIOS:
        raise ChainSpecError(f"scenario must be one of {SCALE_SCENARIOS}")
    rng = _seeded_rng(args.seed)
    specs = _row_specs(families, ns, args.p, args.out, args.scenario)
    rows = [_sweep_row(spec, args.scenario, rng) for spec in specs]
    if args.out:
        write_csv(args.out, SweepRow._fields, rows)
    summary = []
    for family in families:
        frows = [r for r in rows if r.family == family]
        ns_f = np.array([r.n for r in frows], dtype=float)
        hs = np.array([r.H for r in frows], dtype=float)
        entry: dict = {"family": family, "scenario": args.scenario, "rows": len(frows)}
        positive = np.all(hs > 0)
        fit = positive and np.unique(ns_f).size >= 2  # a line needs two distinct sizes
        if family == "winning_streak":
            # exponential family: fit log2 H against n and report the ratio to 2^n
            if fit:
                entry["log2_slope"] = float(np.polyfit(ns_f, np.log2(hs), 1)[0])
            if positive:
                entry["ratio_to_pow2_min"] = float((hs / 2.0**ns_f).min())
                entry["ratio_to_pow2_max"] = float((hs / 2.0**ns_f).max())
        elif fit:
            entry["exponent"] = float(np.polyfit(np.log(ns_f), np.log(hs), 1)[0])
        summary.append(entry)
    _emit_json({"rows": len(rows), "summary": summary})
    return 0


def cmd_simulate(args) -> int:
    _, chain, mu, nu = _chain_and_laws(args)
    report = simulate_rule(chain, mu, nu, samples=args.samples, seed=args.seed)
    _emit_json(report.to_json(), args.out)
    return 0 if report.consistent else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="access-time",
        description="Optimal transport times of finite Markov chains via exact hitting times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chain(p):
        p.add_argument("--chain", required=True, help="chain spec JSON")

    p = sub.add_parser("gen", help="build a chain, print diagnostics, optionally dump the matrix")
    add_chain(p)
    p.add_argument("--out", help="write the transition matrix CSV here")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("compute", help="access time H(mu, nu)")
    add_chain(p)
    p.add_argument("--mu", required=True, help="source distribution")
    p.add_argument("--nu", required=True, help="target distribution")
    p.add_argument("--closed-form", action="store_true", help="also emit the family report")
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("verify", help="closed form vs solver over random pairs")
    p.add_argument("--family", required=True)
    p.add_argument("--n", required=True, help="size or range, e.g. 10 or 2..20")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.25, help="birth probability (birth_death only)")
    p.add_argument("--out", help="per-trial CSV")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bounds", help="max hitting time and structural bounds")
    add_chain(p)
    p.add_argument("--out", help="write the full hitting-time matrix CSV here")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("scale", help="growth sweeps over n")
    p.add_argument("--families", required=True, help="comma-separated family names")
    p.add_argument("--n", required=True, help="sizes, e.g. 16,32,64,128")
    p.add_argument("--scenario", default="worst_dirac", help="|".join(SCALE_SCENARIOS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.25, help="birth probability (birth_death only)")
    p.add_argument("--out", help="SweepRow CSV")
    p.set_defaults(handler=cmd_scale)

    p = sub.add_parser("simulate", help="Monte Carlo stopping-rule run")
    add_chain(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ChainSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReducibleChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
