"""Seeded request streams for the benchmark workloads, and the answer each
request must give.

A workload is an endless series of rounds.  Every round holds the same
slots, that is the same (command, chain family, size) triples, so every run
and every seed sees the same mix of request costs and the latency
percentiles land on the same kind of request.  The seed picks the rest: the
order of each round, the source and target laws, the random seeds handed to
``verify`` and ``simulate``, and birth-death rates where the rate does not
change the cost.  Only the standard library's ``random`` is used, so one seed
gives a byte-identical argv stream on every machine.

The answers are known without the package's solver: classical closed forms
for the maximal hitting times, the hypercube's distance-chain recursion, the
closed-form hitting tables of the small chains, and the package's own
closed-form reports, which it cross-checks against its solver.
"""
from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("all_pairs", "large_n", "pair_reuse", "monte_carlo")

#: working directory, relative to the repository root, for CSV answers
WORK_DIR = "perfbench/.work"
SWEEP_CSV = WORK_DIR + "/sweep.csv"

#: relative agreement required between a reported value and the known answer
VALUE_REL_TOL = 1e-9
#: ``gen`` must report rows that sum to one this closely
ROW_SUM_TOL = 1e-12
#: a simulated mean further than this many standard errors from the exact
#: mean is a wrong answer, not an expected statistical miss
SIM_WRONG_SIGMAS = 6.0
#: birth-death rates below this lose digits to the ``I - P`` cancellation the
#: ROADMAP documents; ``verify`` failures there are counted, not flagged wrong
KNOWN_DEFECT_MAX_P = 1e-3

OK, FAIL, MISS = "ok", "fail", "miss"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its answer is checked against."""

    argv: tuple
    check: str
    #: requests of one slot cost the same; the harness pools their timings
    slot: str
    expect: float | None = None
    out: str | None = None
    known_defect: bool = False


# ---------------------------------------------------------------------------
# known answers


def cube_antipodal(d: int) -> Fraction:
    """Antipodal mean hitting time of the d-cube, summed along its distance chain."""
    total = prev = Fraction(0)
    for k in range(d):
        prev = (1 + Fraction(k, d) * prev) / Fraction(d - k, d)
        total += prev
    return total


def max_hitting(family: str, n: int, p: float | None = None) -> float:
    """Largest mean hitting time of a chain family (the hypercube's n is d)."""
    if family == "path":
        return float(n * n)
    if family == "complete":
        return float(n)
    if family == "star":
        return 2.0 * n
    if family == "winning_streak":
        return 2.0**n - 2.0
    if family == "birth_death":
        return n * (n + 1) / (2.0 * p)
    if family == "hypercube":
        return float(cube_antipodal(n))
    raise ValueError(f"no known maximum for {family!r}")


def hitting_table(family: str, n: int, p: float | None = None) -> tuple[list, list]:
    """Closed-form table E_i[tau_j] of a small chain, with its state labels."""
    labels = list(range(1, n + 1)) if family == "winning_streak" else list(range(n + 1))

    def entry(i, j):
        if i == j:
            return 0.0
        if family == "path":
            return float(j * j - i * i) if i < j else float((i - j) * 2 * n - (i * i - j * j))
        if family == "complete":
            return float(n)
        if family == "star":
            if j == 0:
                return 1.0
            return 2.0 * n - 1 if i == 0 else 2.0 * n
        if family == "winning_streak":
            return 2.0**j - 2.0**i if i < j else 2.0**j
        if family == "birth_death":
            if i < j:
                return (i + j + 1) * (j - i) / (2 * p)
            return (2 * n - i - j + 1) * (i - j) / (2 * p)
        raise ValueError(f"no hitting table for {family!r}")

    return [[entry(i, j) for j in labels] for i in labels], labels


def law(text: str, labels: list) -> list:
    """Weights of ``dirac:K`` or ``uniform`` on the given labels."""
    if text == "uniform":
        return [1.0 / len(labels)] * len(labels)
    at = int(text.split(":", 1)[1])
    return [1.0 if label == at else 0.0 for label in labels]


def rule_mean(family: str, n: int, p, mu: str, nu: str) -> float:
    """Exact mean stopping time sum_ij mu_i E_i[tau_j] nu_j of ``simulate``'s rule."""
    table, labels = hitting_table(family, n, p)
    m, v = law(mu, labels), law(nu, labels)
    return sum(m[i] * table[i][j] * v[j] for i in range(len(labels)) for j in range(len(labels)))


# ---------------------------------------------------------------------------
# workloads


def _chain_json(family: str, n: int, p: float | None = None) -> str:
    spec = {"family": family, "n": n}
    if p is not None:
        spec["p"] = p
    return json.dumps(spec)


def _size_param(family: str, states: int) -> int:
    """The spec's ``n`` for about ``states`` states (the hypercube's dimension)."""
    if family == "hypercube":
        return round(math.log2(states))
    if family == "winning_streak":
        return states
    return states - 1


def _random_law(rng: random.Random, family: str, n: int) -> str:
    kind = rng.choice(("dirac", "uniform", "binomial"))
    if kind == "uniform":
        return "uniform"
    if kind == "binomial":
        return f"binomial:{rng.uniform(0.05, 0.95):.6f}"
    low = 1 if family == "winning_streak" else 0
    return f"dirac:{rng.randint(low, n)}"


#: (command, family, states).  The two path slots at N = 257 make 2 of 13, so
#: the 90th percentile sits inside them; the median sits inside the four
#: N = 65 requests of equal cost.  A short round gives every slot ten or more
#: timings per run.
ALL_PAIRS_SLOTS = (
    ("bounds", "path", 17), ("compute", "winning_streak", 17), ("bounds", "hypercube", 16),
    ("compute", "complete", 33), ("bounds", "star", 33),
    ("compute", "path", 65), ("compute", "path", 65),
    ("bounds", "hypercube", 64), ("bounds", "hypercube", 64),
    ("bounds", "complete", 129), ("compute", "star", 129),
    ("bounds", "path", 257), ("compute", "path", 257),
)


def _all_pairs(rng: random.Random) -> list[Request]:
    batch = []
    for command, family, states in ALL_PAIRS_SLOTS:
        n = _size_param(family, states)
        chain = _chain_json(family, n)
        slot = f"{command}/{family}/{states}"
        if command == "bounds":
            batch.append(Request(("bounds", "--chain", chain), "bounds", slot, max_hitting(family, n)))
        else:
            mu, nu = _random_law(rng, family, n), _random_law(rng, family, n)
            argv = ("compute", "--chain", chain, "--mu", mu, "--nu", nu, "--closed-form")
            batch.append(Request(argv, "compute", slot))
    return batch


LARGE_N_SCALE_FAMILIES = ("path", "birth_death", "star", "complete", "hypercube")
LARGE_N_STATES = (129, 257, 513, 1025)
#: ``scale`` slots sent more than once per round: the median falls well inside
#: the path N = 513 group and the 90th percentile inside the birth-death
#: N = 1025 group, so neighbours of similar cost cannot move either
LARGE_N_COPIES = {("path", 513): 6, ("birth_death", 1025): 7}
#: (family, states) of the ``gen`` requests, one per size
LARGE_N_GEN = (("path", 129), ("star", 257), ("hypercube", 513), ("birth_death", 1025))


def _rate(rng: random.Random) -> float:
    """A birth-death rate in [0.05, 0.5], clear of the stiff range."""
    return float(f"{math.exp(rng.uniform(math.log(0.05), math.log(0.5))):.6g}")


def _large_n(rng: random.Random) -> list[Request]:
    batch = []
    slots = [(f, s) for f in LARGE_N_SCALE_FAMILIES for s in LARGE_N_STATES]
    for family, states in [slot for slot in slots for _ in range(LARGE_N_COPIES.get(slot, 1))]:
        n = _size_param(family, states)
        argv = ["scale", "--families", family, "--n", str(n), "--scenario", "worst_dirac",
                "--out", SWEEP_CSV]
        p = None
        if family == "birth_death":
            p = _rate(rng)
            argv += ["--p", repr(p)]
        batch.append(Request(tuple(argv), "scale", f"scale/{family}/{states}",
                             max_hitting(family, n, p), out=SWEEP_CSV))
    for family, states in LARGE_N_GEN:
        n = _size_param(family, states)
        p = _rate(rng) if family == "birth_death" else None
        batch.append(Request(("gen", "--chain", _chain_json(family, n, p)), "gen",
                             f"gen/{family}/{states}"))
    return batch


PAIR_REUSE_FAMILIES = ("path", "star", "winning_streak")
PAIR_REUSE_SIZES = (5, 10, 20, 40)
PAIR_REUSE_TRIALS = 40
#: eight birth-death rates log-spread over [1e-12, 0.5]; the stiff end is the
#: documented cancellation defect and stays in on purpose
STIFF_RATES = tuple(
    float(f"{10 ** (-12 + k * (12 + math.log10(0.5)) / 7):.3g}") for k in range(8)
)


def _verify(rng: random.Random, family: str, n: int, p: float | None = None) -> Request:
    argv = ["verify", "--family", family, "--n", str(n), "--trials", str(PAIR_REUSE_TRIALS),
            "--seed", str(rng.randrange(2**31))]
    if p is not None:
        argv += ["--p", repr(p)]
    stiff = p is not None and p < KNOWN_DEFECT_MAX_P
    return Request(tuple(argv), "verify", f"verify/{family}/{n}/{p}", known_defect=stiff)


def _pair_reuse(rng: random.Random) -> list[Request]:
    batch = [_verify(rng, f, n) for f in PAIR_REUSE_FAMILIES for n in PAIR_REUSE_SIZES]
    for k, p in enumerate(STIFF_RATES):
        batch.append(_verify(rng, "birth_death", PAIR_REUSE_SIZES[k % 4], p))
    return batch


#: (family, n, p, mu, nu, samples); every chain has at most 11 states
MONTE_CARLO_SLOTS = (
    ("path", 4, None, "dirac:0", "dirac:4", 10_000),
    ("path", 7, None, "dirac:0", "uniform", 10_000),
    ("path", 10, None, "uniform", "dirac:5", 10_000),
    ("path", 10, None, "dirac:0", "dirac:10", 5_000),
    ("path", 10, None, "dirac:0", "dirac:10", 5_000),
    ("complete", 3, None, "dirac:0", "uniform", 20_000),
    ("complete", 10, None, "dirac:0", "dirac:1", 10_000),
    ("star", 4, None, "dirac:1", "dirac:2", 10_000),
    ("star", 10, None, "dirac:0", "uniform", 20_000),
    ("winning_streak", 4, None, "dirac:1", "dirac:4", 20_000),
    ("winning_streak", 6, None, "dirac:1", "uniform", 10_000),
    ("birth_death", 4, 0.5, "dirac:0", "dirac:4", 10_000),
    ("birth_death", 10, 0.25, "uniform", "dirac:10", 5_000),
)


def _monte_carlo(rng: random.Random) -> list[Request]:
    batch = []
    for family, n, p, mu, nu, samples in MONTE_CARLO_SLOTS:
        argv = ("simulate", "--chain", _chain_json(family, n, p), "--mu", mu, "--nu", nu,
                "--samples", str(samples), "--seed", str(rng.randrange(2**31)))
        slot = f"simulate/{family}/{n}/{mu}/{nu}/{samples}"
        batch.append(Request(argv, "simulate", slot, rule_mean(family, n, p, mu, nu)))
    return batch


_ROUND_MAKERS = {
    "all_pairs": _all_pairs,
    "large_n": _large_n,
    "pair_reuse": _pair_reuse,
    "monte_carlo": _monte_carlo,
}


def rounds(workload: str, seed: int):
    """Endless rounds of requests for a workload, a pure function of the seed."""
    rng = random.Random(f"{workload}/{seed}")
    build = _ROUND_MAKERS[workload]
    while True:
        batch = build(rng)
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# oracles: each returns OK, FAIL (wrong exit code or answer) or MISS (an
# expected statistical miss)


def _close(value: float, expect: float) -> bool:
    return abs(value - expect) <= VALUE_REL_TOL * max(1.0, abs(expect))


def _check_bounds(req: Request, rc, stdout: str) -> str:
    return OK if rc == 0 and _close(json.loads(stdout)["max_hitting"], req.expect) else FAIL


def _check_compute(req: Request, rc, stdout: str) -> str:
    if rc != 0:
        return FAIL
    payload = json.loads(stdout)
    slack = VALUE_REL_TOL * max(1.0, abs(payload["value"]))
    return OK if payload["family_report"]["discrepancy"] <= slack else FAIL


def _check_scale(req: Request, rc, stdout: str) -> str:
    if rc != 0:
        return FAIL
    with open(req.out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    ok = _close(float(row["H"]), req.expect) and _close(float(row["max_hitting"]), req.expect)
    return OK if ok else FAIL


def _check_gen(req: Request, rc, stdout: str) -> str:
    if rc != 0:
        return FAIL
    diag = json.loads(stdout)["diagnostics"]
    return OK if diag["irreducible"] is True and diag["row_sum_residual"] <= ROW_SUM_TOL else FAIL


_VERIFY_FAILS = re.compile(r"(\d+) FAIL")


def _check_verify(req: Request, rc, stdout: str) -> str:
    match = _VERIFY_FAILS.search(stdout)
    return OK if rc == 0 and match is not None and match.group(1) == "0" else FAIL


def _check_simulate(req: Request, rc, stdout: str) -> str:
    if rc not in (0, 1):
        return FAIL
    report = json.loads(stdout)
    if not _close(report["theoretical_mean"], req.expect):
        return FAIL
    if abs(report["mean_T"] - report["theoretical_mean"]) > SIM_WRONG_SIGMAS * report["stderr"]:
        return FAIL
    return OK if rc == 0 else MISS


CHECKS = {
    "bounds": _check_bounds,
    "compute": _check_compute,
    "scale": _check_scale,
    "gen": _check_gen,
    "verify": _check_verify,
    "simulate": _check_simulate,
}


def judge(req: Request, rc, stdout: str) -> str:
    """Verdict on one answer; output that cannot be parsed is a wrong answer."""
    try:
        return CHECKS[req.check](req, rc, stdout)
    except (ValueError, KeyError, TypeError, OSError):
        return FAIL
