"""Library surface: every parameter a library function takes is one it reads,
and every private module-level name is one the package uses.

Each module under ``src/prefalloc`` is parsed with ``ast``; any parameter
of a function, method, nested function or lambda that its body never reads
fails the test (``self`` and ``cls`` are exempt).  The same modules may take
no parameter annotated ``Callable``: kernel inputs such as edge costs are
passed as data (tables), not as callbacks.  One flow algorithm serves every
objective: only ``matching._solve_bounded`` uses ``heapq``, and ``matching``
defines no class but ``InfeasibleMatchingError``: load bounds are passed as
data (``lowers``, ``uppers``), not as a record.

Every module is also searched for module-level names that start with ``_``
(dunders exempt) and that no code under ``src/prefalloc`` references
outside the name's own definition.  Callers in tests do not count:
code that a faster path replaced moves to ``tests/oracles.py`` instead of
staying in the package.  The same holds for public module-level functions
that ``prefalloc`` does not export: nothing outside the package promises them.

Only ``instances`` may build a ``Profile`` through ``core._trusted_profile``,
which skips the order checks: no other path into the package does.

Only ``matching`` references the kernel entry ``_solve_bounded``, and it
calls it once, in ``_match``'s threshold search, which serves both
objectives.  ``solvers`` imports no private ``matching`` name but
``_cost_table`` and ``_match``, and no public matcher (``match_*``): the
matcher owns both proven floors and the ``below`` refusal, so no solver
grows its own floor, calls the kernel directly or matches a committee any
other way.  Nor does ``solvers`` read ``Profile.positions``: its solvers
score agents through ``_cost_table`` alone.  The kernel takes exactly the
cost columns ``_match`` built and the load bounds (``columns``,
``lowers``, ``uppers``), and raises nothing: ``_match`` refuses load
totals once, and its threshold search caps the columns it probes, so the
kernel knows no threshold.

Only ``core`` and ``instances`` define ``_Record`` subclasses: the data
types are records, and a solver's or matcher's knobs are parameters.  In
``solvers`` only ``_borda_report``, ``greedy_cc_majority`` and
``exact_enumeration`` build a ``SolveReport``: every Borda solver is scored,
validated and timed in ``_borda_report``.

Each solver rule is stated once.  ``solvers`` calls
``ScoringFunction.borda_dec`` only to define ``_BORDA``, the one scoring
function of its Borda solvers.  The committee-size refusal ``committee size
must lie in`` is written in ``instances`` and nowhere else in the package:
the solvers take it from ``make_monroe`` and ``make_cc``.  So is the
refusal of an ``Instance`` (``pass instance.profile``): the restriction
refuses one, and the solvers get the refusal from it.

The committee searches start from identity values, not ``None``:
``_match``'s ``below`` defaults to a limit (infinity, so none), ``_walk``
and ``_cc_seed`` carry least costs down from all-infinite lists and test
nothing with ``is None``, and neither ``exact_enumeration`` nor
``combined_monroe`` compares its ``limit``, ``incumbent``, ``below`` or
``best`` with ``None``.

Every name a module under ``src/prefalloc`` (``__init__`` aside, which
re-exports) or ``tests/oracles.py`` imports at module level must be read in
that module; ``__future__`` imports are exempt.

Every ``prefalloc`` command pays for the modules ``import prefalloc.cli``
loads, so a fresh interpreter must load none of a few costly standard
modules that no command needs at import time.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import prefalloc

PACKAGE = Path(prefalloc.__file__).parent
EXEMPT = {"self", "cls"}


def _parameters(args: ast.arguments):
    yield from args.posonlyargs
    yield from args.args
    yield from args.kwonlyargs
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            yield extra


def _unread(module: ast.Module):
    """``(function, parameter)`` for each parameter its body never reads."""
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
        elif isinstance(node, ast.Lambda):
            name, body = f"<lambda:{node.lineno}>", [node.body]
        else:
            continue
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for arg in _parameters(node.args):
            if arg.arg not in EXEMPT and arg.arg not in read:
                yield name, arg.arg


def test_library_functions_read_every_parameter():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} >= {"core", "matching", "solvers", "instances", "rng"}
    unread = [
        f"{path.stem}.{function}: {parameter}"
        for path in modules
        for function, parameter in _unread(ast.parse(path.read_text(), str(path)))
    ]
    assert unread == []


def _callable_parameters(module: ast.Module):
    """``(function, parameter)`` for each parameter annotated ``Callable``."""
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in _parameters(node.args):
                if arg.annotation is not None and "Callable" in ast.unparse(arg.annotation):
                    yield node.name, arg.arg


def test_library_functions_take_no_callable_parameters():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in modules} >= {"core", "matching", "solvers"}
    callbacks = [
        f"{path.stem}.{function}: {parameter}"
        for path in modules
        for function, parameter in _callable_parameters(ast.parse(path.read_text(), str(path)))
    ]
    assert callbacks == []


def _private_definitions(module: ast.Module):
    """``(name, node)`` for each private module-level definition."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _references(tree: ast.AST) -> Counter:
    """Names read, attributes read and names imported anywhere in ``tree``."""
    found: Counter = Counter()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _package_trees():
    """Each package module's tree, and the references in all of them."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    return trees, sum((_references(tree) for tree in trees.values()), Counter())


def test_private_module_names_have_callers_in_the_package():
    trees, everywhere = _package_trees()
    assert {"cli", "core", "matching", "solvers"} <= set(trees)
    definitions = [
        (stem, name, node) for stem, tree in trees.items()
        for name, node in _private_definitions(tree)
    ]
    assert any(name == "_solve_bounded" for _, name, _ in definitions)
    dead = [
        f"{stem}.{name}" for stem, name, node in definitions
        if everywhere[name] - _references(node)[name] == 0
    ]
    assert dead == []


def test_unexported_public_functions_have_callers_in_the_package():
    trees, everywhere = _package_trees()
    unexported = [
        (stem, node) for stem, tree in trees.items() if stem != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in prefalloc.__all__
    ]
    assert any(node.name == "sample_distinct" for _, node in unexported)
    dead = [
        f"{stem}.{node.name}" for stem, node in unexported
        if everywhere[node.name] - _references(node)[node.name] == 0
    ]
    assert dead == []


def test_one_flow_algorithm():
    trees, _ = _package_trees()
    users = [
        f"{stem}.{getattr(node, 'name', node.lineno)}"
        for stem, tree in trees.items()
        for node in tree.body
        if (isinstance(node, ast.ImportFrom) and node.module == "heapq")
        or (not isinstance(node, ast.Import) and _references(node)["heapq"])
    ]
    assert users == ["matching._solve_bounded"]
    classes = {node.name for node in ast.walk(trees["matching"]) if isinstance(node, ast.ClassDef)}
    assert classes == {"InfeasibleMatchingError"}


def test_only_instances_builds_unchecked_profiles():
    # core._trusted_profile skips the order checks of Profile(...); only the
    # parser and the generators, whose orders are checked or permutations by
    # construction, may call it.
    trees, _ = _package_trees()
    callers = {stem for stem, tree in trees.items() if _references(tree)["_trusted_profile"]}
    assert callers == {"instances"}


def test_solvers_match_only_through_one_entry():
    trees, _ = _package_trees()
    callers = {stem for stem, tree in trees.items() if _references(tree)["_solve_bounded"]}
    assert callers == {"matching"}
    imported = {
        alias.name
        for node in trees["solvers"].body
        if isinstance(node, ast.ImportFrom) and node.module == "matching"
        for alias in node.names
    }
    assert {name for name in imported if name.startswith("_")} == {"_cost_table", "_match"}
    assert {name for name in imported if name.startswith("match_")} == set()


def test_one_kernel_call_site():
    trees, _ = _package_trees()

    def kernel_calls(tree):
        return [
            sub for sub in ast.walk(tree)
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "_solve_bounded"
        ]

    (match,) = [
        node for node in trees["matching"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_match"
    ]
    assert len(kernel_calls(trees["matching"])) == 1 == len(kernel_calls(match))


def test_solvers_read_no_positions():
    trees, _ = _package_trees()
    reads = [
        ast.unparse(sub) for sub in ast.walk(trees["solvers"])
        if isinstance(sub, ast.Attribute) and sub.attr == "positions"
    ]
    assert reads == []


def test_kernel_takes_columns_and_raises_nothing():
    trees, _ = _package_trees()
    (kernel,) = [
        node for node in trees["matching"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_solve_bounded"
    ]
    assert [arg.arg for arg in _parameters(kernel.args)] == ["columns", "lowers", "uppers"]
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(kernel))


def test_only_the_data_modules_define_records():
    trees, _ = _package_trees()
    definers = {
        stem for stem, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("_Record") for base in node.bases)
    }
    assert definers == {"core", "instances"}


def test_borda_solvers_report_through_one_function():
    trees, _ = _package_trees()
    builders = {
        getattr(node, "name", node.lineno)
        for node in trees["solvers"].body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and ast.unparse(sub.func).endswith("SolveReport")
    }
    assert builders == {"_borda_report", "greedy_cc_majority", "exact_enumeration"}


def test_solvers_build_borda_once():
    trees, _ = _package_trees()
    builders = [
        ast.unparse(node)
        for node in trees["solvers"].body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and ast.unparse(sub.func).endswith("borda_dec")
    ]
    assert builders == ["_BORDA = ScoringFunction.borda_dec()"]


def test_one_committee_size_check():
    holders = {
        path.stem for path in PACKAGE.glob("*.py")
        if "committee size must lie in" in path.read_text()
    }
    assert holders == {"instances"}


def test_one_instance_refusal():
    holders = {
        path.stem for path in PACKAGE.glob("*.py") if "pass instance.profile" in path.read_text()
    }
    assert holders == {"instances"}


def _none_operands(function: ast.FunctionDef):
    """``(other operand, operator)`` for each comparison with ``None`` in
    ``function``, the operand unparsed."""
    for sub in ast.walk(function):
        if isinstance(sub, ast.Compare):
            operands = [sub.left, *sub.comparators]
            for op, left, right in zip(sub.ops, operands, operands[1:]):
                for this, other in ((left, right), (right, left)):
                    if isinstance(other, ast.Constant) and other.value is None:
                        yield ast.unparse(this), type(op).__name__


def test_committee_searches_start_from_identities():
    # "No limit yet" is an infinite limit and "no member yet" all-infinite
    # least costs, so no search step branches on None.
    trees, _ = _package_trees()
    functions = {
        (stem, node.name): node for stem, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    match = functions["matching", "_match"].args
    defaults = dict(zip([arg.arg for arg in match.args][::-1], match.defaults[::-1]))
    assert "below" in defaults and ast.unparse(defaults["below"]) != "None"
    for name in ("_walk", "_cc_seed"):
        tests = [op for _, op in _none_operands(functions["solvers", name])]
        assert not {"Is", "IsNot"} & set(tests), name
    for name in ("exact_enumeration", "combined_monroe"):
        operands = {operand for operand, _ in _none_operands(functions["solvers", name])}
        assert not operands & {"limit", "incumbent", "below", "best"}, name


def _unread_imports(module: ast.Module):
    """Names imported at module level that the module never reads."""
    read = {
        sub.id for sub in ast.walk(module)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }
    for node in module.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        yield from (name for name in names if name not in read)


def test_modules_read_every_import():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    paths.append(Path(__file__).with_name("oracles.py"))
    assert {p.stem for p in paths} >= {"cli", "core", "solvers", "oracles"}
    unread = [
        f"{path.stem}: {name}"
        for path in paths
        for name in _unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unread == []


def test_cli_import_loads_no_costly_stdlib_modules():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import prefalloc.cli, sys; print(sorted(sys.modules))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    loaded = set(ast.literal_eval(run.stdout))
    assert "prefalloc.cli" in loaded
    assert loaded & {"dataclasses", "typing", "inspect", "json", "hashlib"} == set()
