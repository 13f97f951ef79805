"""Closed-loop harness: one client, one request in flight, every answer checked.

Other tenants of the host swing its CPU speed by up to 60%, on both cores
alike, over tens of milliseconds to minutes, so seconds measured in one run
do not compare with seconds measured in the next.  A fixed reference kernel
is therefore timed before and after every request, and each request's
latency is reported in units of the reference time around it.  Contention
slows both alike, so the ratio holds still while the seconds do not.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, replace

from workloads import FAIL, OK, Request, judge

#: each run sends at least this many requests, so the 90th percentile has
#: at least ten samples beyond it
MIN_REQUESTS = 100
#: and at least this many rounds, so every slot is timed this many times
MIN_ROUNDS = 5


class Reference:
    """A fixed CPU kernel of the same mix as a request: a Python loop, small
    LU factorizations and JSON encoding, about a millisecond in all."""

    def __init__(self) -> None:
        import numpy as np  # imported here, after the BLAS thread pin
        from scipy.linalg import lu_factor

        self._lu = lu_factor
        self._matrix = np.random.default_rng(0).random((48, 48)) + 48.0 * np.eye(48)

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i % 7
        for _ in range(8):
            self._lu(self._matrix)
        json.dumps({"total": total, "items": list(range(50))})
        return time.perf_counter() - start


@dataclass(frozen=True)
class Outcome:
    request: Request
    seconds: float
    verdict: str
    rc: object
    stdout: str
    stderr: str
    #: mean reference-kernel time just before and just after the request
    reference_s: float = math.nan

    @property
    def failed(self) -> bool:
        """Wrong exit code or wrong answer; counted in the failure fraction."""
        return self.verdict != OK

    @property
    def wrong(self) -> bool:
        """A failure outside the documented defect and the statistical allowance."""
        return self.verdict == FAIL and not self.request.known_defect


def execute(main, request: Request) -> Outcome:
    """Run one request through ``main(argv)`` with its output captured.

    A crash or an argparse exit is a failed request, never an aborted run.
    """
    if request.out is not None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(request.out)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(request.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the harness must keep running; the traceback is kept
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    stdout = out.getvalue()
    return Outcome(request, seconds, judge(request, rc, stdout), rc, stdout, err.getvalue())


def run_requests(main, requests, reference: Reference, tracer=None) -> list[Outcome]:
    """Execute requests in order, timing the reference kernel between them."""
    outcomes = []
    before = reference.seconds()
    for request in requests:
        if tracer is not None:
            tracer.start_request()
        outcome = execute(main, request)
        after = reference.seconds()
        outcomes.append(replace(outcome, reference_s=(before + after) / 2.0))
        before = after
    return outcomes


def closed_loop(main, rounds, seconds: float, reference: Reference, tracer=None) -> list[Outcome]:
    """Send whole rounds until ``seconds`` have passed, MIN_ROUNDS rounds and
    MIN_REQUESTS requests were made.

    Only whole rounds are sent, so every run holds the same mix of requests.
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for count, batch in enumerate(rounds, 1):
        outcomes += run_requests(main, batch, reference, tracer)
        if (time.perf_counter() - start >= seconds and count >= MIN_ROUNDS
                and len(outcomes) >= MIN_REQUESTS):
            return outcomes
    raise ValueError("the request stream ended early")


def relative_latency(outcomes: list[Outcome]) -> list[float]:
    """Each request's latency in reference units.

    Requests of one slot do the same work, so each takes the median, over
    its slot, of request seconds divided by the reference seconds around it.
    """
    ratios: dict[str, list[float]] = {}
    for o in outcomes:
        ratios.setdefault(o.request.slot, []).append(o.seconds / o.reference_s)
    per_slot = {slot: statistics.median(values) for slot, values in ratios.items()}
    return [per_slot[o.request.slot] for o in outcomes]


def p90(values) -> float:
    """Nearest-rank 90th percentile: at least ten samples lie above it once n >= 100."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(outcomes: list[Outcome]) -> dict:
    latency = relative_latency(outcomes)
    return {
        "request_ref.p50": statistics.median(latency),
        "request_ref.p90": p90(latency),
        "throughput_per_ref": len(latency) / sum(latency),
        "ok_frac": sum(not o.failed for o in outcomes) / len(outcomes),
    }


def in_seconds(outcomes: list[Outcome]) -> dict:
    """The same run read in plain seconds, for people; too noisy to compare runs."""
    seconds = [o.seconds for o in outcomes]
    return {
        "request_s.p50": statistics.median(seconds),
        "request_s.p90": p90(seconds),
        "throughput_rps": len(seconds) / sum(seconds),
        "reference_s": statistics.median(o.reference_s for o in outcomes),
    }
