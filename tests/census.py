"""Line census of ``src/ultrahom``: which statements production reaches, which only
the tier-1 tests reach, and which nothing reaches.

    python tests/census.py           # print the census
    python tests/census.py --check   # and exit 1 if a function has more unreached
                                     # non-error lines than ALLOWED grants it

It traces, in this one process and with the standard library's
``sys.settrace``, only frames whose code lives under ``src/ultrahom``:

1. production: every path a build, a CI step or a user runs, in order
   the four benchmark workloads at seed 1, untraced and under the
   benchmark tracer; every CI witness pin; the four ``tests/data``
   fixtures; a campaign of each family; and each CLI command;
2. tier-1: the pytest suite, as CI runs it.

Production runs first because the engines keep per-process memos (for
example ``nkomega._PARTNERS``): run after the tests, production would
find them filled and seem not to reach the code that fills them.

A line is a statement inside a function (module and class bodies run at
import, before the census starts); a line event anywhere in a
multi-line statement counts for its first line, and a reached statement
counts for the compound statements around it.  A line is an error path
when it is a ``raise``, lies in an ``except`` clause, or is an
``internal_check`` call.  Per function the census prints the lines no
run reaches (``never``) and those only the tests reach (``tests``),
error paths marked ``!``.  Tracing costs about 4x: the whole census took
about 2 minutes on a 2-vCPU Xeon VM with Python 3.11.7, 80 s of it tier-1.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ultrahom"

# Never-reached lines that are not error paths, per function, that --check
# allows, each with why no run reaches it.
ALLOWED = {
    # a trial that verify rejects: every engine ends in certify, which checks the
    # claim's product before it writes a record
    "campaigns:campaign": 1,
    # the default walk stops at an undefined step, but only a FrozenOracle has one,
    # and it walks its own map
    "oracles:OracleBase.chase": 1,
    # hashing and printing for a reader at a prompt; no path hashes or prints them
    "partial_iso:PartialIso.__hash__": 1,
    "partial_iso:PartialIso.__repr__": 1,
    "graphs:GraphSession.__repr__": 2,
    "words:FreeWord.__repr__": 1,
}


# -- what is executable --------------------------------------------------------------

class _Lines(ast.NodeVisitor):
    """Statements inside functions: first line, enclosing compound statements,
    function qualname, and whether the statement is an error path."""

    def __init__(self, module: str):
        self.module = module
        self.stmts: dict[int, tuple[str, bool]] = {}  # first line -> (function, error)
        self.owner: dict[int, int] = {}               # any line -> innermost statement
        self.parents: dict[int, list[int]] = {}       # statement -> enclosing statements
        self._names: list[str] = []
        self._stack: list[int] = []
        self._error = 0
        self._in_function = 0

    def _scope(self, node, function: bool):
        self._names.append(node.name)
        self._in_function += function
        super().generic_visit(node)
        self._in_function -= function
        self._names.pop()

    def visit_ClassDef(self, node):
        self._scope(node, False)

    def visit_FunctionDef(self, node):
        self._scope(node, True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node):
        self._error += 1
        super().generic_visit(node)
        self._error -= 1

    def generic_visit(self, node):
        docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        counted = isinstance(node, ast.stmt) and self._in_function and not docstring
        if counted:
            first = node.lineno
            error = (self._error > 0 or isinstance(node, ast.Raise)
                     or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                         and getattr(node.value.func, "id", None) == "internal_check"))
            self.stmts[first] = (f"{self.module}:{'.'.join(self._names)}", error)
            self.parents[first] = list(self._stack)
            for line in range(first, node.end_lineno + 1):
                self.owner[line] = first
            self._stack.append(first)
        super().generic_visit(node)
        if counted:
            self._stack.pop()


def executable(path: Path) -> _Lines:
    lines = _Lines(path.stem)
    lines.visit(ast.parse(path.read_text(), str(path)))
    return lines


# -- tracing ------------------------------------------------------------------------------

class LineTracer:
    """Records (file, line) of every line event in a frame of a tracked file."""

    def __init__(self, files):
        self.files = {str(f) for f in files}
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._codes: dict = {}

    def _global(self, frame, event, arg):
        code = frame.f_code
        local = self._codes.get(code, False)
        if local is False:
            local = None
            if code.co_filename in self.files:
                hits = self.hits[code.co_filename]

                def local(frame, event, arg, hits=hits):
                    if event == "line":
                        hits.add(frame.f_lineno)
                    return local
            self._codes[code] = local
        return local

    @contextlib.contextmanager
    def active(self):
        old = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(old)


# -- the two run sets --------------------------------------------------------------------

def _cli(*argv) -> int:
    from ultrahom.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def production(out: Path) -> list[str]:
    """Every production path; returns what went wrong, which should be nothing."""
    from perfbench import run as bench

    problems = []

    def expect(code, want, what):
        if code != want:
            problems.append(f"{what}: exit {code}, expected {want}")

    for workload in ("henson-wide", "small-maps", "verify-mix", "nkomega-n3"):
        for trace in (0, 1):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                bench.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", str(trace)])
            if not json.loads(text.getvalue().splitlines()[-1])["correct"]:
                problems.append(f"benchmark {workload} --trace {trace} is not correct")
    # the CI witness pins
    pins = ([("nkomega", n, 1, None) for n in (5, 6, 7, 8)]
            + [("nkomega", n, 2, None) for n in (4, 6, 8)]
            + [("henson", 4, 1, None), ("henson", 5, 1, None),
               ("henson", 3, 2, None), ("henson", 4, 2, None),
               ("omega-kn", 3, 1, 384), ("omega-kn", 5, 1, 400)])
    for family, n, seed, size in pins:
        extra = ["--sigma-size", size] if size else []
        expect(_cli("witness", family, "--n", n, "--seed", seed, *extra,
                    "--out", out / "pin.jsonl"), 0, f"witness {family} n={n} seed={seed}")
    for fixture in sorted((ROOT / "tests" / "data").glob("certs_v*.jsonl")):
        expect(_cli("verify", fixture), 0, f"verify {fixture.name}")
    # a campaign of each family, and each CLI command
    for family, n in (("henson", 3), ("omega-kn", 3), ("nkomega", 3), ("n2", 2)):
        path = out / f"campaign-{family}.jsonl"
        expect(_cli("campaign", family, "--n", n, "--trials", 4, "--seed", 1, "--out", path),
               0, f"campaign {family}")
        expect(_cli("verify", path), 0, f"verify campaign {family}")
    expect(_cli("campaign", "nkomega", "--n", 3, "--trials", 2, "--perm", "(1 2 3)"), 0,
           "campaign nkomega --perm")
    for family in ("henson", "omega-kn", "nkomega", "n2"):
        expect(_cli("witness", family, "--n", 2 if family == "n2" else 3, "--seed", 1), 0,
               f"witness {family}")
    for family, n in (("henson", 3), ("random", None), ("omega-kn", 3), ("nkomega", 3)):
        state = out / f"oracle-{family}.json"
        size = ["--n", n] if n else []
        expect(_cli("oracle", "new", "--family", family, *size, "--seed", 1, "--out", state),
               0, f"oracle new {family}")
        if family in ("henson", "random"):  # a new lazy state has no vertex yet: give it one
            desc = json.loads(state.read_text())
            desc["transcript"] = [[[], 0]]
            state.write_text(json.dumps(desc))
        for inverse in ([], ["--inverse"]):
            expect(_cli("oracle", "query", "--state", state, "--vertex", 0, *inverse), 0,
                   f"oracle query {family} {inverse}")
    expect(_cli("iso", "validate", "--family", "nkomega", "--n", 2, "--pairs", "[[0, 2]]"),
           0, "iso validate")
    expect(_cli("iso", "compose", "--family", "omega-kn", "--n", 2, "--pairs", "[[0, 2]]",
                "--with-pairs", "[[2, 4]]"), 0, "iso compose")
    expect(_cli("iso", "components", "--family", "nkomega", "--n", 2,
                "--pairs", "[[0, 2], [2, 4], [1, 3], [3, 1]]"), 0, "iso components")
    expect(_cli("piccard", "--n", 3, "--perm", "(1 2)"), 0, "piccard")
    expect(_cli("piccard", "--n", 4, "--perm", "()"), 0, "piccard identity")
    expect(_cli("sigma-feasible", "--n", 3, "--counts", "0:2,1:1"), 0, "sigma-feasible")
    expect(_cli("sigma-feasible", "--n", 3, "--counts", "0:2"), 0, "sigma-feasible, infeasible")
    band = {"kind": "nk_policy", "sigma": [2, 1], "band_rows": 65,
            "band_pairs": [list(range(130)) + [0]], "fixed_tail": []}
    for policy in ({"kind": "nk_policy", "sigma": [2, 1], "band_rows": 0, "band_pairs": [],
                    "fixed_tail": []},
                   {"kind": "nk_policy", "sigma": [1, 2], "band_rows": 0, "band_pairs": [],
                    "fixed_tail": [1, 2]}, band):
        expect(_cli("classify-stab", "--policy", json.dumps(policy)), 0, "classify-stab")
    return problems


def tier1() -> tuple[int, str]:
    """Run tier-1 as CI does, from the repository root; (exit status, summary line)."""
    import pytest

    text, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)  # pytest reads testpaths only when run from the root
    try:
        with contextlib.redirect_stdout(text):
            status = int(pytest.main(["-q", "-p", "no:cacheprovider",
                                      "--continue-on-collection-errors"]))
    finally:
        os.chdir(cwd)
    return status, text.getvalue().strip().splitlines()[-1]


# -- report -----------------------------------------------------------------------------------

def _ranges(lines: list[int], error: set[int]) -> str:
    """Sorted lines as ranges, an error path marked '!'."""
    out = []
    for line in lines:
        mark = "!" if line in error else ""
        if out and out[-1][1] == line - 1 and out[-1][2] == mark:
            out[-1][1] = line
        else:
            out.append([line, line, mark])
    return ", ".join(f"{a}{m}" if a == b else f"{a}-{b}{m}" for a, b, m in out)


def census(files, prod_hits, test_hits):
    """Per function: (never-reached lines, tests-only lines, error lines)."""
    table: dict[str, tuple[list[int], list[int], set[int]]] = {}
    for path in files:
        lines = executable(path)

        def reached(hits):
            out = set()
            for line in hits.get(str(path), ()):
                stmt = lines.owner.get(line)
                if stmt is not None:
                    out.add(stmt)
                    out.update(lines.parents[stmt])
            return out

        prod, tests = reached(prod_hits), reached(test_hits)
        for stmt, (func, error) in sorted(lines.stmts.items()):
            never, only, errors = table.setdefault(func, ([], [], set()))
            if error:
                errors.add(stmt)
            if stmt not in prod:
                (only if stmt in tests else never).append(stmt)
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if a function has more unreached non-error lines than ALLOWED")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import ultrahom  # noqa: F401  (imported untraced: module bodies are not counted)

    files = sorted(SRC.glob("*.py"))
    prod_tracer, test_tracer = LineTracer(files), LineTracer(files)
    with tempfile.TemporaryDirectory() as tmp, prod_tracer.active():
        problems = production(Path(tmp))
    with test_tracer.active():
        status, summary = tier1()
    print(f"tier-1: {summary}")
    for p in problems:
        print(f"PROBLEM {p}")
    if status:
        print(f"PROBLEM tier-1 exited {status} under the census")

    table = census(files, prod_tracer.hits, test_tracer.hits)
    total = sum(1 for path in files for _ in executable(path).stmts)
    never = [(f, line, line in e) for f, (nv, _, e) in table.items() for line in nv]
    only = [(f, line, line in e) for f, (_, ot, e) in table.items() for line in ot]
    print(f"{total} lines in functions under src/ultrahom; production reaches "
          f"{total - len(never) - len(only)}")
    print(f"tests only: {len(only)} ({sum(e for *_, e in only)} error paths)")
    print(f"never: {len(never)} ({sum(e for *_, e in never)} error paths, "
          f"{sum(not e for *_, e in never)} not)")
    over = []
    for func, (nv, ot, errors) in sorted(table.items()):
        if not nv and not ot:
            continue
        print(func)
        if nv:
            print(f"  never: {_ranges(nv, errors)}")
        if ot:
            print(f"  tests: {_ranges(ot, errors)}")
        plain = [line for line in nv if line not in errors]
        if len(plain) > ALLOWED.get(func, 0):
            over.append(f"{func}: {len(plain)} unreached non-error lines {plain}, "
                        f"{ALLOWED.get(func, 0)} allowed")
    for func, allowed in ALLOWED.items():
        have = sum(line not in table[func][2] for line in table[func][0]) if func in table else 0
        if have < allowed:
            print(f"NOTE {func}: {have} unreached non-error lines, {allowed} allowed;"
                  " lower its ALLOWED entry")
    for line in over:
        print(f"OVER {line}")
    if args.check and (over or problems or status):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
