"""Library surface: every parameter a library function takes is one it reads.

Each module under ``src/prefalloc`` except ``cli`` is parsed with ``ast``;
any parameter of a function, method, nested function or lambda that its body
never reads fails the test (``self`` and ``cls`` are exempt).  ``cli`` is
left out because its dispatch entries share one ``(args, profile, seed)``
signature by design, whatever each entry reads.
"""

import ast
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
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "cli")
    assert {p.stem for p in modules} >= {"core", "matching", "solvers", "instances", "rng"}
    unread = [
        f"{path.stem}.{function}: {parameter}"
        for path in modules
        for function, parameter in _unread(ast.parse(path.read_text(), str(path)))
    ]
    assert unread == []
