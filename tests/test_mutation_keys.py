"""Every ``EQUIVALENT`` key of ``tests/mutation.py`` names a mutation site
of the current tree: a change that moves or deletes the line must move or
drop its key too, or the mutant would be reported as a real survivor."""

import ast

from mutation import EQUIVALENT, ROOT, keys, sites


def test_equivalent_keys_name_current_sites():
    named = {}
    for module in {key[0] for key in EQUIVALENT}:
        source = (ROOT / "src" / "prefalloc" / f"{module}.py").read_text()
        named[module] = set(keys(source, sites(ast.parse(source))))
    stale = [key for key in EQUIVALENT if key[1:] not in named[key[0]]]
    assert not stale, stale
