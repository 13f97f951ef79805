"""Golden corpus for the command line.

Every command in ``golden/cli_corpus.json`` must give the recorded exit
code, stdout and ``--out`` file.  Keys, strings and integers compare
exactly; floats compare to 1e-9 relative with a unit floor (the suite's
usual ``tol * max(1, |x|)``), so a solver that only moves the last digits
keeps the corpus.  ``wall_time_ms`` is a measurement and is masked, and
``--out`` paths are written as ``{out}``.  Of stderr only the prefix up
to the first colon is compared, which tells input errors from numerical
ones without pinning the wording.

Record the corpus again with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from access_time.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"
REL_TOL = 1e-9
MASKED = "wall_time_ms"

PATH = '{"family":"path","n":%d}'
BD = '{"family":"birth_death","n":%d,"p":%s}'
WS = '{"family":"winning_streak","n":%d}'
COMPLETE = '{"family":"complete","n":%d}'
STAR = '{"family":"star","n":%d}'
CUBE = '{"family":"hypercube","n":%d}'
GRAPH = '{"family":"graph","edges":[[0,1],[1,2],[0,2],[2,3],[3,4]]}'

CLOSED_FORM_PAIRS = [
    (PATH % 10, "dirac:0", "dirac:10"),
    (PATH % 6, "uniform", "binomial:0.2"),
    (PATH % 5, "dirac:3", "dirac:1"),
    (PATH % 7, "stationary", "dirac:0"),
    (BD % (10, "0.3"), "dirac:9", "dirac:1"),  # downhill: erratum
    (BD % (10, "0.3"), "dirac:9", "dirac:2"),
    (BD % (10, "0.3"), "dirac:0", "dirac:10"),
    (BD % (6, "0.5"), "uniform", "binomial:0.3"),
    (BD % (5, "0.25"), "stationary", "dirac:2"),
    (WS % 5, "dirac:1", "dirac:5"),
    (WS % 8, "uniform", "dirac:1"),
    (WS % 40, "dirac:1", "dirac:40"),
    (WS % 6, "binomial:0.5", "stationary"),
    (COMPLETE % 3, "uniform", "dirac:2"),
    (COMPLETE % 5, "dirac:0", "binomial:0.4"),
    (COMPLETE % 4, "uniform", "uniform"),  # best_dirac tie
    (COMPLETE % 1, "dirac:0", "dirac:1"),
    (STAR % 4, "dirac:0", "dirac:1"),
    (STAR % 6, "uniform", "dirac:0"),
    (STAR % 3, "binomial:0.5", "uniform"),
]

PLAIN_PAIRS = [
    (CUBE % 3, "dirac:0", "dirac:7"),
    (CUBE % 3, "dirac:5", "uniform"),
    (CUBE % 4, "dirac:3", "uniform"),
    (CUBE % 2, "stationary", "dirac:1"),
    (GRAPH, "uniform", "dirac:0"),
    (GRAPH, "dirac:4", "stationary"),
    (PATH % 4, "binomial:0.7", "uniform"),
]

CHAINS = [PATH % 10, BD % (8, "0.25"), WS % 8, COMPLETE % 5, STAR % 5, CUBE % 3, GRAPH]

VERIFY = [
    ["--family", "path", "--n", "2..6", "--trials", "5", "--seed", "1"],
    ["--family", "birth_death", "--n", "2..8", "--trials", "5", "--seed", "2", "--p", "0.3"],
    ["--family", "birth_death", "--n", "4", "--trials", "5", "--p", "0.5"],
    ["--family", "winning_streak", "--n", "2..10", "--trials", "4", "--seed", "3"],
    ["--family", "complete", "--n", "1..5", "--trials", "5", "--seed", "4"],
    ["--family", "star", "--n", "1..5", "--trials", "5", "--seed", "5"],
]

SCALE = [
    # worst_dirac below and above the 65-state enumeration cutoff
    ["--families", "path,complete,star,winning_streak", "--n", "4,8,16"],
    ["--families", "path", "--n", "63,64,65,66"],
    ["--families", "birth_death", "--n", "64,65", "--p", "0.3"],
    ["--families", "path,birth_death,star,complete", "--n", "70,90"],
    ["--families", "hypercube", "--n", "3..7"],
    ["--families", "winning_streak", "--n", "30,40"],
    ["--families", "path,complete,star,winning_streak,hypercube", "--n", "4..6",
     "--scenario", "random_pair", "--seed", "3"],
    ["--families", "winning_streak", "--n", "5..10", "--scenario", "paper_example"],
    ["--families", "path", "--n", "4,8,12", "--scenario", "paper_example"],
]

ERRORS = [
    ["compute", "--chain", '{"family":"nope","n":3}', "--mu", "uniform", "--nu", "uniform"],
    ["compute", "--chain", "not json", "--mu", "uniform", "--nu", "uniform"],
    ["compute", "--chain", '{"family":"path","n":3,"q":1}', "--mu", "uniform", "--nu", "uniform"],
    ["compute", "--chain", CUBE % 3, "--mu", "binomial:0.4", "--nu", "uniform"],
    ["compute", "--chain", '{"family":"graph","edges":[[0,1],[2,3]]}', "--mu", "uniform",
     "--nu", "uniform"],
    ["compute", "--chain", CUBE % 2, "--mu", "uniform", "--nu", "dirac:0", "--closed-form"],
    ["compute", "--chain", GRAPH, "--mu", "uniform", "--nu", "dirac:0", "--closed-form"],
    ["compute", "--chain", PATH % 3, "--mu", "gauss:1", "--nu", "uniform"],
    ["compute", "--chain", PATH % 3, "--mu", "dirac:9", "--nu", "uniform"],
    ["compute", "--chain", PATH % 3, "--mu", "binomial:1.5", "--nu", "uniform"],
    ["compute", "--chain", BD % (4, "0.7"), "--mu", "uniform", "--nu", "uniform"],
    ["compute", "--chain", WS % 41, "--mu", "uniform", "--nu", "uniform", "--closed-form"],
    ["compute", "--chain", PATH % 3, "--mu", "uniform"],
    ["verify", "--family", "hypercube", "--n", "3"],
    ["verify", "--family", "path", "--n", "0"],
    ["verify", "--family", "winning_streak", "--n", "41", "--trials", "1"],
    ["scale", "--families", "winning_streak", "--n", "50"],
    ["scale", "--families", "path", "--n", "8", "--scenario", "sideways"],
    ["scale", "--families", "birth_death", "--n", "8", "--scenario", "random_pair"],
    ["scale", "--families", "complete", "--n", "8", "--scenario", "paper_example"],
    ["scale", "--families", "winning_streak", "--n", "1", "--scenario", "paper_example"],
    ["scale", "--families", "graph", "--n", "4"],
    ["gen", "--chain", '{"family":"star"}'],
    ["bounds", "--chain", '{"family":"path","n":2,"edges":[[0,1]]}'],
]


def corpus_commands() -> list[list[str]]:
    """Every command of the corpus; ``{out}`` stands for a fresh output file."""
    commands = []
    for chain, mu, nu in CLOSED_FORM_PAIRS:
        commands.append(["compute", "--chain", chain, "--mu", mu, "--nu", nu, "--closed-form"])
    for chain, mu, nu in CLOSED_FORM_PAIRS[:3] + PLAIN_PAIRS:
        commands.append(["compute", "--chain", chain, "--mu", mu, "--nu", nu])
    for chain in CHAINS:
        commands.append(["bounds", "--chain", chain, "--out", "{out}"])
        commands.append(["gen", "--chain", chain, "--out", "{out}"])
    commands.append(["bounds", "--chain", PATH % 4])
    commands.append(["gen", "--chain", CUBE % 2])
    for args in VERIFY:
        commands.append(["verify", *args, "--out", "{out}"])
    commands.append(["verify", *VERIFY[0]])
    for args in SCALE:
        commands.append(["scale", *args, "--out", "{out}"])
    commands.append(["scale", *SCALE[0]])
    return commands + ERRORS


def run_command(argv: list[str], out_path: str) -> dict:
    """Run one command in process; return its exit code, stdout, stderr and file."""
    argv = [out_path if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out_file = None
    if out_path in argv and os.path.exists(out_path):
        with open(out_path, newline="") as fh:
            out_file = fh.read()
        os.remove(out_path)
    return {
        "code": code,
        "stdout": stdout.getvalue().replace(out_path, "{out}"),
        "stderr": stderr.getvalue(),
        "out_file": out_file,
    }


def _same_scalar(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            return False
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    return type(a) is type(b) and a == b


def _same_tree(a, b, key=None) -> bool:
    if key == MASKED:
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same_tree(a[k], b[k], k) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_tree(x, y) for x, y in zip(a, b))
    return _same_scalar(a, b)


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _same_csv(a: str, b: str) -> bool:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return False
    header = rows_a[0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            return False
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            if col < len(header) and header[col] == MASKED:
                continue
            if not _same_scalar(_cell(x), _cell(y)):
                return False
    return True


def _same_text(a: str, b: str) -> bool:
    """JSON documents compare as trees, other text line by line as scalars."""
    try:
        return _same_tree(json.loads(a), json.loads(b))
    except json.JSONDecodeError:
        pass
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return False
    for x, y in zip(lines_a, lines_b):
        words_x, words_y = x.split(), y.split()
        if len(words_x) != len(words_y):
            return False
        if not all(_same_scalar(_cell(u), _cell(v)) for u, v in zip(words_x, words_y)):
            return False
    return True


def _same_file(a: str | None, b: str | None) -> bool:
    if a is None or b is None:
        return a is b
    return _same_csv(a, b)


def _stderr_kind(text: str) -> str:
    return text.split(":", 1)[0] if text else ""


def _load_cases() -> list[dict]:
    with open(CORPUS) as fh:
        return json.load(fh)["cases"]


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        cases = _load_cases()
        metafunc.parametrize("case", cases, ids=[" ".join(c["argv"])[:90] for c in cases])


def test_cli_matches_golden_corpus(case, tmp_path):
    got = run_command(case["argv"], str(tmp_path / "out.dat"))
    assert got["code"] == case["code"]
    assert _same_text(got["stdout"], case["stdout"]), got["stdout"]
    assert _same_file(got["out_file"], case["out_file"]), got["out_file"]
    assert _stderr_kind(got["stderr"]) == _stderr_kind(case["stderr"]), got["stderr"]


def test_corpus_lists_every_command():
    assert [c["argv"] for c in _load_cases()] == corpus_commands()


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.dat")
        cases = [{"argv": argv, **run_command(argv, out_path)} for argv in corpus_commands()]
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(cases)} commands in {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    record()
