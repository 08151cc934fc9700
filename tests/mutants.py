"""Mutation audit of the kernel and the filter.

    python tests/mutants.py

Makes every operator mutant (+ and -, * and /, < and <=, > and >=
swapped, one place at a time) and every branch mutant (each `if` test,
conditional expression test and comprehension condition forced True and
then False) of the functions that SITES lists per file. Each mutant runs
against the fast subset of tier-1 (the cone, filter, golden and engine
tests); a mutant that survives it runs against the full tier-1. A run
that fails kills its mutant, and so does one that passes its time limit
(a mutated loop exit may never be reached). Each mutant prints as
`function:line:column` (of the swapped operator or the forced test) and
what changed; the last lines list the survivors, the mutants that no
test tells from the kernel.

The mutants are made in a copy of the tree this script sits in, in a
temporary directory, so the checkout is never changed. Pytest does not
collect this file.
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the functions mutated, by file; each name is unique across the files
SITES = {
    Path("src", "conecbf", "_pykernel.py"): (
        "wrap_angle", "_cone_terms", "_ellipse_terms", "_hocbf_terms", "rk4_unicycle", "rk4_bicycle",
        "rk4_pointmass", "_unmet", "_sq_violation", "_line_min", "least_violation", "solve_qp2",
    ),
    Path("src", "conecbf", "qpfilter.py"): ("activation_gate", "_rows", "filter_single", "filter_qp", "_unfiltered"),
}
FAST = ["tests/test_cones.py", "tests/test_filter.py", "tests/test_golden.py", "tests/test_engine.py"]
# seconds; tier-1 takes about 30 s and its fast subset about 7 s
FAST_LIMIT, FULL_LIMIT = 60, 240

SWAP = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*"}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def mutants(source, functions):
    """(function, description, (line, column), mutated source) for every
    mutant of the named functions, at the swapped operator or the forced
    test."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(line, col):
        return starts[line - 1] + col

    def place(k):
        line = bisect_right(starts, k)
        return line, k - starts[line - 1] + 1

    def between(a, b):
        """Offsets of the gap from the end of node a to the start of node b."""
        return at(a.end_lineno, a.end_col_offset), at(b.lineno, b.col_offset)

    def swap(gap, old, new):
        lo, hi = gap
        k = source.index(old, lo, hi)
        return place(k), source[:k] + new + source[k + len(old):]

    tree = ast.parse(source)
    for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in functions):
        for node in ast.walk(fn):
            op = getattr(node, "op", None)
            if isinstance(node, ast.BinOp) and type(op) in SWAP:
                yield fn.name, f"{SYMBOL[type(op)]} -> {SWAP[type(op)]}", *swap(
                    between(node.left, node.right), SYMBOL[type(op)], SWAP[type(op)])
            elif isinstance(node, ast.AugAssign) and type(op) in SWAP:
                yield fn.name, f"{SYMBOL[type(op)]}= -> {SWAP[type(op)]}=", *swap(
                    between(node.target, node.value), SYMBOL[type(op)] + "=", SWAP[type(op)] + "=")
            elif isinstance(node, ast.Compare):
                for left, cmp, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                    if type(cmp) in COMPARE:
                        old, new = COMPARE[type(cmp)]
                        yield fn.name, f"{old} -> {new}", *swap(between(left, right), old, new)
            tests = [node.test] if isinstance(node, (ast.If, ast.IfExp)) else []
            if isinstance(node, ast.comprehension):
                tests = node.ifs
            for test in tests:
                lo, hi = at(test.lineno, test.col_offset), at(test.end_lineno, test.end_col_offset)
                for forced in ("True", "False"):
                    text = ast.get_source_segment(source, test)
                    yield fn.name, f"`{text}` -> {forced}", place(lo), source[:lo] + forced + source[hi:]


def passes(tree, tests, limit):
    """Whether pytest over `tests` passes in `tree` within `limit` seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(timeout=limit) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        if not passes(tree, [], FULL_LIMIT):
            sys.exit("tier-1 fails on the unmutated tree")
        survivors, total = [], 0
        for path, functions in SITES.items():
            source = (tree / path).read_text()
            for fn, what, (line, col), mutated in sorted(mutants(source, functions), key=lambda m: m[2]):
                (tree / path).write_text(mutated)
                alive = passes(tree, FAST, FAST_LIMIT) and passes(tree, [], FULL_LIMIT)
                print(f"{'SURVIVED' if alive else 'killed  '} {fn}:{line}:{col} {what}", flush=True)
                total += 1
                if alive:
                    survivors.append(f"{fn}:{line}:{col} {what}")
            (tree / path).write_text(source)
    print(f"{total} mutants, {len(survivors)} survived full tier-1")
    for s in survivors:
        print("  " + s)


if __name__ == "__main__":
    main()
