"""Run the first-order mutants of one module against the tests and score them.

    python tools/mutants.py src/sheetsmith/evaluator.py [TEST ...]

A mutant changes one operator of the module: a comparison becomes its twin
(< and <=, > and >=, == and !=, is and is not, in and not in), an `and`
becomes `or` or the reverse, or an int constant 0, 1 or 2 is raised by one.
These are a subset of the operators of DeMillo, Lipton and Sayward, "Hints
on test data selection" (1978), and of the sufficient set of Offutt et al.,
"An experimental determination of sufficient mutant operators" (TOSEM 1996).
The sites are read from the module's ast and run in (line, col, operator)
order, so two runs list the same mutants; a comparison's col is that of the
operand on its left.

The tree git would commit (tracked files and untracked ones not ignored) is
copied to a temporary directory, and only the copy is ever written. The
copy's module is first replaced by the ast.unparse form of its own unmutated
tree, and the tests must pass on that, or no mutant is scored. Each mutant is
then written over the module and the tests run, one pytest child at a time,
with -x, a timeout of TIMEOUT_S seconds a child, PYTHONDONTWRITEBYTECODE=1
and no __pycache__ in the copy: a rewritten module of the same size and
mtime second could be read from stale bytecode. Each TEST (default: tests)
runs in its own child, in the order given, and the first to fail or time
out kills the mutant; so naming the module's own test file before tests
finds most kills sooner, and a survivor has still run every test.

It prints the score and each survivor as file:line:col operator, and exits 1
if a survivor is not on the EQUIVALENT list below, 2 if the unmutated run
fails. Stdlib only; run it from inside the repository.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 150

_TWINS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
          ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
          ast.And: ast.Or, ast.Or: ast.And}
_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
         ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
         ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}

# Survivors shown to be equivalent: no input tells the mutant from the
# module. Each is keyed by its file, the stripped text of its line, the
# site's offset in that text and its operator, so it still matches when
# lines above it move, and no longer matches once its line changes.
EQUIVALENT = {
    ("evaluator.py", "return _compile(ast.root)(_columns((grid._cells,)), 1)[1][0]", 52,
     "1 to 2"): "a block of one grid read as two: literal columns grow, and the"
                " first result, the one returned, is the same",
    ("evaluator.py", "return (kind, values) if kind is not None else _column(values)", 25,
     "is not to is"): "a column's kind is worked out again or left unknown; a kind"
                      " only selects a fast path, which gives the scalar rule's values",
    ("evaluator.py", "if then_kind is else_kind and then_kind is not None:", 30,
     "is not to is"): "as above: the shared kind is worked out again or left unknown",
    ("evaluator.py", "if stride > 1:", 3,
     "> to >="): "a stride of 1 repeats each value once, the stream it already is",
    ("evaluator.py",
     "if va == vb and (one_kind or list(map(type, va)) == list(map(type, vb))):", 17,
     "or to and"): "two columns of one shared kind have equal type lists, so the"
                   " types are compared for nothing",
    ("formulas.py", "if value == int(value) and abs(value) < 1e16:", 27,
     "< to <="): "at exactly 1e16 both branches print 10000000000000000",
    ("csvio.py", "if next(rows, (1, None))[1] != list(header):", 15,
     "1 to 2"): "the line number of an empty file's stand-in row is never read",
    ("csvio.py", "_, header = next(rows, (1, None))", 24,
     "1 to 2"): "the line number of an empty file's stand-in row is never read",
    ("synthesis.py", "if self.explored + placed - tried > self.budget:", 3,
     "> to >="): "one more placement is counted before the search ends: the"
                 " rest counts one unless it failed before, which no rest of a"
                 " depth's first state has, and then a later capture or the tail"
                 " counts one, as a state its parent's last capture leads to"
                 " captures nothing there; a budget met exactly here runs out at"
                 " the next check, with the same message",
}


def sites(tree: ast.AST) -> list[tuple[int, int, str, ast.AST, int]]:
    """(line, col, operator, node, index) of every mutation site, in order;
    index is the comparison's position in a Compare, else 0."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                at = operands[i]
                label = f"{_TEXT[type(op)]} to {_TEXT[_TWINS[type(op)]]}"
                found.append((at.lineno, at.col_offset, label, node, i))
        elif isinstance(node, ast.BoolOp):
            label = f"{_TEXT[type(node.op)]} to {_TEXT[_TWINS[type(node.op)]]}"
            found.append((node.lineno, node.col_offset, label, node, 0))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1, 2)):
            label = f"{node.value} to {node.value + 1}"
            found.append((node.lineno, node.col_offset, label, node, 0))
    return sorted(found, key=lambda site: site[:3])


def mutate(node: ast.AST, index: int):
    """Change node in place; return a function that undoes it."""
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        node.ops[index] = _TWINS[type(old)]()
        return lambda: node.ops.__setitem__(index, old)
    if isinstance(node, ast.BoolOp):
        old = node.op
        node.op = _TWINS[type(old)]()
        return lambda: setattr(node, "op", old)
    node.value += 1
    return lambda: setattr(node, "value", node.value - 1)


def run_tests(copy: str, tests: list[str]) -> bool:
    """True when every TEST passes in the copy, each within TIMEOUT_S."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(copy, "src"))
    for test in tests:
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   test]
        # a session of its own, so a timeout also ends the processes it started
        child = subprocess.Popen(command, cwd=copy, env=env, start_new_session=True,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            passed = child.wait(timeout=TIMEOUT_S) == 0
        except subprocess.TimeoutExpired:
            passed = False
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if not passed:
            return False
    return True


def copy_tree(copy: str) -> None:
    """The files git would commit, copied under copy."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(os.path.isfile, listed):
        target = os.path.join(copy, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(name, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module")
    parser.add_argument("tests", nargs="*", default=["tests"],
                        help="test files or directories, each run in its own child"
                             " (default: tests)")
    args = parser.parse_args(argv)
    module = os.path.abspath(args.module)
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    os.chdir(root)
    module = os.path.relpath(module, root)
    with open(module, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    copy = tempfile.mkdtemp(prefix="mutants-")
    try:
        copy_tree(copy)
        target = os.path.join(copy, module)

        def write(text: str) -> None:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)

        started = time.monotonic()
        write(ast.unparse(tree))
        if not run_tests(copy, args.tests):
            print(f"the tests fail on the unmutated ast.unparse form of {module}:"
                  " no mutant is scored")
            return 2
        print(f"unmutated run passed in {time.monotonic() - started:.0f} s", flush=True)
        found, survivors = sites(tree), []
        for line, col, label, node, index in found:
            undo = mutate(node, index)
            write(ast.unparse(tree))
            undo()
            if not run_tests(copy, args.tests):
                continue
            survivors.append((line, col, label))
            print(f"survivor {module}:{line}:{col} {label}", flush=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    print(f"{module}: {len(found) - len(survivors)} of {len(found)} mutants killed"
          f" in {time.monotonic() - started:.0f} s")
    unlisted = 0
    for line, col, label in survivors:
        text = lines[line - 1]
        offset = col - (len(text) - len(text.lstrip()))
        reason = EQUIVALENT.get((os.path.basename(module), text.strip(), offset, label))
        if reason is None:
            unlisted += 1
        print(f"{module}:{line}:{col} {label}"
              f"  {'NOT EQUIVALENT' if reason is None else 'equivalent: ' + reason}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
