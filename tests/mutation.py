"""Mutation score of the test suite, one line per module of ``src/prefalloc``.

Run from anywhere; it mutates a copy of the tree it sits in, never the
checkout itself::

    python tests/mutation.py [--modules matching solvers] [--diff REV]

Each module's mutation sites are listed in a fixed order (a walk of its
syntax tree), for these operators: ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``in``/``not in`` and ``is``/``is not`` swapped;
``+``/``-``, ``&``/``|`` and ``<<``/``>>`` swapped and ``^`` to ``|``
(augmented assignments too); ``//`` to ``*``; ``and``/``or`` swapped; a
``not`` dropped; an ``int`` constant plus 1; ``min``/``max`` swapped and
``sum`` to ``max``.  Annotations are not evaluated, so no site lies in one.
``COUNT`` sites are drawn with ``SEED``, the same on every run; with
``--diff REV``, every site instead whose line ``git diff REV`` adds or
changes in the module's source (the checkout's working tree against the
commit ``REV``).  Each mutant is the module's syntax tree with
one site changed, unparsed.  First the unmutated, unparsed tree must
pass the module's mapped test files; then each mutant runs them with ``-x``
under a timeout of 10 s plus three times that first run.  A mutant is
killed when they fail, timed out when they overrun, and survives when they
pass.

Survivors listed in ``EQUIVALENT`` (by module, source line, mutation and
occurrence) behave as the original does on every input, each for the
reason given; they are counted apart from the real survivors.  A site's
occurrence is its index, in walk order, among the sites on its line with
the same mutation, so two such sites on one line are told apart.  Each
real survivor prints one line, ``module.py:line: mutation #occurrence:
source``, and then each timed-out mutant prints the same line tagged
``[timed out]``.  This is a tool, not a test: pytest does not collect it,
and it gates nothing; ``tests/test_mutation_keys.py`` checks that every
``EQUIVALENT`` key still names a site.
"""

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT = 30  # mutants drawn per module
SEED = 0

# Module -> the test files that hold it (files missing from a tree are skipped).
TESTS = {
    "matching": [
        "test_matching.py", "test_kernel_differential.py", "test_egalitarian_differential.py",
        "test_exact_differential.py", "test_metamorphic.py",
    ],
    "solvers": [
        "test_solvers.py", "test_exact_differential.py", "test_greedy_differential.py",
        "test_combined_differential.py", "test_acceptance.py",
    ],
    "core": ["test_core.py", "test_acceptance.py"],
    "instances": ["test_instances.py", "test_cli.py"],
    # The generated profiles and the CLI digests pin the streams.
    "rng": ["test_rng.py", "test_instances.py", "test_cli.py"],
    "cli": ["test_cli.py"],
}

# (module, stripped source line, mutation, occurrence) -> why the mutant is equivalent.
EQUIVALENT = {
    ("matching", "agent0 = 2 + k", "2 -> 3", 0):
        "an unused node before the agents shifts every agent and the sink alike, "
        "so no key moves past another",
    ("matching", "label[0] = 0", "0 -> 1", 0):
        "no edge enters the source, so its label stays 1 and only becomes its potential: "
        "the second search's keys all rise by 1 but the source's first, which pops first "
        "either way, and from the third on the source's base of 1 cancels in every key",
    ("matching", "prev = [0] * size", "0 -> 1", 0):
        "prev is read only along the path to the sink, which the search sets",
    (
        "matching",
        "potential = [at if at < stop else p for p, at in zip(potential, label)]  # += dist",
        "< -> <=",
        0,
    ):
        "a node a search leaves unlabelled is unreachable, and stays so, since an "
        "augmentation adds edges only among reached nodes; its potential is never read",
    ("matching", "stop = (k + 2) * top + 1", "1 -> 2", 0):
        "a stop one larger still exceeds every finite offer, at most (k + 1) * top, and the "
        "lanes it picks, the same or wider, keep every offer below their guard bit",
    (
        "matching",
        "top = max([c for column in columns for c in column if c < inf], default=0)",
        "0 -> 1",
        0,
    ):
        "only columns without a finite cost reach the default, and then every lane is "
        "infinite, so no offer wins whatever stop is and the first search fails either way",
    ("matching", "labels, prevs, pending = stop * ones, 0, 0", "0 -> 1", 0):
        "an agent's prev lane is read only on the path to the sink, and the pop that last "
        "improved the agent wrote the whole lane",
    ("matching", "if pending and (not heap or heap[0] >= flush):", ">= -> >", 0):
        "the one key equal to flush is agent 0's at the batch's distance d; the batch cannot "
        "hold agent 0 then (its new key would lie below its old one, below flush), so that "
        "entry pops before every pending agent's key either way, and a member it lowers to "
        "distance d pops before them too",
    ("solvers", "targets, picked = _greedy_picks(prof, [prof.n] * k, (1,) * x)", "1 -> 2", 0):
        "uniform weights of 2 rank the alternatives as weights of 1 do",
    ("solvers", "for _ in range(64):", "64 -> 65", 0):
        "lambert_w converges in at most 11 steps for x from 1e-300 up to the largest float "
        "(at most 3 of them in the log form), so only a NaN start reaches the cap, and it "
        "raises after 65 steps as after 64",
    ("solvers", "if abs(residual) <= tolerance:", "<= -> <", 0):
        "the two differ only where a residual equals its tolerance: never in the log form, "
        "whose residual is a difference of two floats in [512, 1024) and so a multiple of "
        "2**-43, which 1e-12 is not; in the product form no input of a 550,002-input sweep "
        "(integers 1..2e5, log-uniform floats up to 2.5527e305, floats in (0, 1)) hits it, "
        "and the results hash the same",
    (
        "solvers", "limit = incumbent[0] + (incumbent[2] is seed and members < seed)", "< -> <=", 0
    ):
        "they differ only at members == seed, which the next line skips whatever the limit",
    ("solvers", "if (1 << d) - 1 >= limit:", "1 -> 2", 0):
        "as (1 << d) - 2 (occurrence 1, 2 << d, is killed): at 2 ** d - 1 == limit the early exit "
        "is missed, but the d cheapest alternatives make limit affordable subsets, so the "
        "saturated count returns limit too",
    ("solvers", "best_alt = -1", "1 -> 2", 0):
        "best_score starts at -1 and every unpicked alternative scores at least 0, "
        "so the first one replaces best_alt",
    ("solvers", "best_score = -1", "1 -> 2", 0):
        "the weights are nonnegative, so every unpicked alternative scores at least 0, "
        "above -2 as above -1, and the first one replaces best_alt either way",
    ("solvers", "if count >= need:", ">= -> >", 0):
        "at count == need the fall-through adds count * weight, which is need * weight, "
        "and leaves need at 0, so every later term adds 0 before the loop ends",
    ("solvers", "if len(batch) >= size:", ">= -> >", 0):
        "breaking later only appends agents that del batch[size:] drops",
    (
        "instances",
        "blocks = (rng.block(min(_BLOCK, planned - t)) for t in range(0, planned, _BLOCK))",
        "- -> +",
        0,
    ):
        "a longer last block holds the draws the rejection fallback reads next",
    ("rng", 'start = _packed(array("Q", (self._state, 0)) * count)', "0 -> 1", 0):
        "each lane's high word is masked off after the add, and a carry into it "
        "stays inside the lane",
    ("cli", "if min_ratio[name] is None or ratio < min_ratio[name]:", "< -> <=", 0):
        "a tie stores a ratio equal to the one kept; a ratio is value / oracle with "
        "both nonnegative, or 1.0, so never NaN or -0.0",
    ("instances", "full = set(range(1, m + 1))", "1 -> 2", 0):
        "with 1 left out of full, every order then takes the token-by-token path, "
        "which accepts the same orders and raises the same errors",
    ("instances", "full = set(range(1, m + 1))", "1 -> 2", 1):
        "as occurrence 0: with m + 1 added to full, every order takes the "
        "token-by-token path",
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.FloorDiv: "//", ast.Mult: "*",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
    ast.And: "and", ast.Or: "or",
}
CALLS = {"min": "max", "max": "min", "sum": "max"}


def sites(tree):
    """``(node index, slot, lineno, description)`` for each site, in walk order.

    ``slot`` names what changes: an index into a comparison's ``ops``, or
    ``"op"``, ``"not"``, ``"value"`` or ``"func"``."""
    annotations = {
        id(sub)
        for node in ast.walk(tree)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if note is not None
        for sub in ast.walk(note)
    }
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                    found.append((index, slot, node.lineno, change))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            change = f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}"
            found.append((index, "op", node.lineno, change))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((index, "not", node.lineno, "not -> (dropped)"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, "value", node.lineno, f"{node.value} -> {node.value + 1}"))
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CALLS
        ):
            found.append((index, "func", node.lineno, f"{node.func.id} -> {CALLS[node.func.id]}"))
    return found


def keys(source, found):
    """``(stripped source line, mutation, occurrence)`` for each of ``found``,
    the sites of ``source``: ``EQUIVALENT``'s key, less the module."""
    lines = source.splitlines()
    result = []
    for i, site in enumerate(found):
        occurrence = sum(s[2:] == site[2:] for s in found[:i])  # same line and mutation
        result.append((lines[site[2] - 1].strip(), site[3], occurrence))
    return result


def mutant(source, site):
    """The module's source with the one ``site`` changed."""
    tree = ast.parse(source)
    index, slot, _, _ = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if slot == "op":
        node.op = SWAPS[type(node.op)]()
    elif slot == "value":
        node.value += 1
    elif slot == "func":
        node.func.id = CALLS[node.func.id]
    elif slot == "not":  # not not x: the operand's truth value
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    else:
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    return ast.unparse(tree)


def run_tests(tree_root, files, timeout):
    """``"killed"``, ``"survived"`` or ``"timed out"``, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(tree_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=tree_root, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start
    return ("survived" if done.returncode == 0 else "killed"), time.perf_counter() - start


def changed_lines(module, rev):
    """The line numbers of the module's source that ``git diff rev`` adds or changes."""
    diff = subprocess.run(
        ["git", "diff", "-U0", rev, "--", f"src/prefalloc/{module}.py"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def score(tree_root, module, rev=None):
    path = tree_root / "src" / "prefalloc" / f"{module}.py"
    files = [f"tests/{name}" for name in TESTS[module] if (tree_root / "tests" / name).exists()]
    original = path.read_text()
    found = sites(ast.parse(original))
    named = keys(original, found)
    if rev is None:
        chosen = sorted(random.Random(SEED).sample(range(len(found)), min(COUNT, len(found))))
    else:
        changed = changed_lines(module, rev)
        chosen = [i for i, site in enumerate(found) if site[2] in changed]
    outcomes = {"killed": 0, "timed out": 0, "survived": 0, "equivalent": 0}
    reported = {"survived": [], "timed out": []}
    try:
        path.write_text(ast.unparse(ast.parse(original)))
        baseline, seconds = run_tests(tree_root, files, None)
        if baseline != "survived":
            raise SystemExit(f"{module}: the unmutated tree fails {' '.join(files)}")
        limit = 10 + 3 * seconds
        for i in chosen:
            site = found[i]
            path.write_text(mutant(original, site))
            outcome, _ = run_tests(tree_root, files, limit)
            line, change, occurrence = named[i]
            if outcome == "survived" and (module, line, change, occurrence) in EQUIVALENT:
                outcome = "equivalent"
            outcomes[outcome] += 1
            if outcome in reported:
                reported[outcome].append(f"{module}.py:{site[2]}: {change} #{occurrence}: {line}")
    finally:
        path.write_text(original)
    counts = " ".join(f"{key.replace(' ', '_')}={value}" for key, value in outcomes.items())
    print(f"{module}: sites={len(found)} mutants={len(chosen)} {counts}", flush=True)
    for where in reported["survived"]:
        print(f"    {where}", flush=True)
    for where in reported["timed out"]:
        print(f"    [timed out] {where}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--modules", nargs="+", default=list(TESTS), choices=list(TESTS))
    parser.add_argument(
        "--diff", metavar="REV", help="run every site on the lines git diff REV touches"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="prefalloc-mutation-") as work:
        copy = Path(work)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for module in args.modules:
            score(copy, module, args.diff)


if __name__ == "__main__":
    main()
