"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from workloads import FAIL, MISS, OK, Request

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(SRC))
    import access_time.cli as cli

    return cli


def test_p90_leaves_ten_samples_above_it_from_100_requests():
    rng = random.Random(0)
    for n in range(100, 400):
        values = [rng.random() for _ in range(n)]
        cut = harness.p90(values)
        assert sum(v > cut for v in values) >= 10
    assert sum(v > harness.p90(range(100)) for v in range(100)) == 10


class _Chain:
    size = 7


def test_self_time_of_nested_spans():
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    tracer = tracing.Tracer(clock=lambda: now[0])
    scc = tracer.wrap("hitting.scc", lambda P: advance(1.0))
    column = tracer.wrap("hitting.column", lambda P: (advance(2.0), scc(P)))
    matrix = tracer.wrap("hitting.matrix", lambda P: (advance(3.0), column(P), column(P)))
    chain = _Chain()
    tracer.start_request()
    matrix(chain)
    tracer.start_request()
    column(chain)
    tracer.start_request()

    layers = tracer.layers
    assert (layers["hitting.scc"].calls, layers["hitting.scc"].total_s, layers["hitting.scc"].self_s) == (3, 3.0, 3.0)
    assert (layers["hitting.column"].calls, layers["hitting.column"].total_s) == (3, 9.0)
    assert layers["hitting.column"].self_s == 6.0
    assert (layers["hitting.matrix"].total_s, layers["hitting.matrix"].self_s) == (9.0, 3.0)
    assert tracer.direct_columns == 1
    assert tracer.column_sizes == [7, 7, 7]
    assert tracer.checked_chains == 2  # one distinct chain in each of two requests


def test_failures_are_counted_not_raised(cli):
    main = lambda argv: cli.main(argv)
    wrong_oracle = Request(("bounds", "--chain", '{"family":"path","n":2}'), "bounds", "a", 5.0)
    right_oracle = Request(("bounds", "--chain", '{"family":"path","n":2}'), "bounds", "a", 4.0)
    known = Request(("verify", "--family", "birth_death", "--n", "5", "--trials", "5", "--p", "1e-12"),
                    "verify", "b", known_defect=True)
    outcomes = [harness.execute(main, r) for r in (wrong_oracle, right_oracle, known)]
    assert [o.verdict for o in outcomes] == [FAIL, OK, FAIL]
    assert [o.wrong for o in outcomes] == [True, False, False]

    def crash(argv):
        raise RuntimeError("boom")

    crashed = harness.execute(crash, right_oracle)
    assert crashed.failed and crashed.wrong and "boom" in crashed.stderr
    outcomes = [replace(o, reference_s=1.0) for o in outcomes + [crashed]]
    assert harness.end_to_end(outcomes)["ok_frac"] == 0.25


def test_latency_is_the_slot_median_in_reference_units():
    def outcome(slot, seconds, reference_s):
        return harness.Outcome(Request((), "bounds", slot), seconds, OK, 0, "", "", reference_s)

    outcomes = [outcome("a", 2.0, 1.0), outcome("a", 6.0, 2.0), outcome("a", 40.0, 2.0),
                outcome("b", 1.0, 1.0)]
    assert harness.relative_latency(outcomes) == [3.0, 3.0, 3.0, 1.0]


def test_statistical_miss_is_a_failure_but_not_wrong():
    req = Request(("simulate",), "simulate", "c", 10.0)
    report = {"mean_T": 10.5, "stderr": 0.1, "theoretical_mean": 10.0}
    assert workloads.judge(req, 1, json.dumps(report)) == MISS
    assert workloads.judge(req, 0, json.dumps(report)) == OK
    assert workloads.judge(req, 1, json.dumps({**report, "mean_T": 11.0})) == FAIL
    assert workloads.judge(req, 0, json.dumps({**report, "theoretical_mean": 10.1})) == FAIL


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_argv_stream(name):
    def stream(seed):
        rounds = workloads.rounds(name, seed)
        return json.dumps([[r.argv for r in next(rounds)] for _ in range(3)]).encode()

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_wrappers_replace_every_binding_and_come_off(cli):
    import access_time
    from access_time import chains

    original = chains.build_chain
    installed = tracing.Installation(tracing.Tracer())
    try:
        assert installed.missed() == []
        assert installed.bindings["chains.build"] == 4  # chains, access, cli, package
        assert access_time.build_chain is not original and cli.build_chain is not original
    finally:
        installed.uninstall()
    assert tracing.wrappers_left() == []
    assert access_time.build_chain is original and cli.build_chain is original


def test_probe_counts_one_matrix_nine_columns_ten_scc_checks(cli):
    import run

    counts, outcome = run.probe_counts(cli)
    assert counts == run.PROBE_COUNTS == {"hitting.matrix": 1, "hitting.column": 9, "hitting.scc": 10}
    assert outcome.verdict == OK


def test_known_maxima_match_the_closed_form_tables():
    for family, n, p in (("path", 6, None), ("complete", 5, None), ("star", 4, None),
                         ("winning_streak", 6, None), ("birth_death", 5, 0.3)):
        table, _ = workloads.hitting_table(family, n, p)
        assert max(map(max, table)) == pytest.approx(workloads.max_hitting(family, n, p), rel=1e-12)
    assert workloads.cube_antipodal(3) == 10
