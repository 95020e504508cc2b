"""Instance constructors, synthetic profile generators, and profile file I/O.

File grammar (the only on-disk format):

* ``#`` starts a comment running to end of line; blank lines are ignored;
* the first significant line is the header ``n m``;
* exactly ``n`` significant lines follow, each with ``m`` space-separated
  1-based alternative indices, most preferred first;
* optional trailing blocks ``costs: c1 ... cm``, ``caps: x1 ... xm`` and
  ``budget: B`` describe general instances, whose agents count once each;
* files are written with LF line endings; the parser also accepts CRLF.

Generators live here, apart from the solvers, so experiment profiles and
solver sampling never share an RNG stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from .core import Instance, Profile, _balanced_loads, _integers, _Record, _trusted_profile
from .rng import SplitMix64, _acceptance_limit

# Draws per SplitMix64.block: 256 and 1024 generate at the same speed, 4096
# more slowly, and the block's memory grows with it.
_BLOCK = 1024


class ParseError(ValueError):
    """A profile document violated the grammar; ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ParsedDocument(_Record):
    """Parse result, as an immutable record: the profile plus any
    general-instance blocks present."""

    __slots__ = __match_args__ = ("profile", "costs", "caps", "budget")

    def __init__(
        self,
        profile: Profile,
        costs: tuple[int, ...] | None = None,
        caps: tuple[int, ...] | None = None,
        budget: int | None = None,
    ) -> None:
        self._fill(profile, costs, caps, budget)


def _restriction(profile: Profile, k: int, tag: str) -> Instance:
    """The ``monroe`` or ``cc`` restriction: unit costs, budget ``k``,
    capacity ``ceil(n/k)`` or ``n`` for every alternative."""
    if not 1 <= k <= profile.m:
        raise ValueError(f"committee size must lie in 1..{profile.m}, got {k}")
    capacity = _balanced_loads(profile.n, k)[1] if tag == "monroe" else profile.n
    return Instance(
        profile=profile,
        costs=(1,) * profile.m,
        capacities=(capacity,) * profile.m,
        budget=k,
        system_tag=tag,
        committee_size=k,
    )


def make_monroe(profile: Profile, k: int) -> Instance:
    """Monroe restriction: unit costs, budget ``k``, capacities ``ceil(n/k)``."""
    return _restriction(profile, k, "monroe")


def make_cc(profile: Profile, k: int) -> Instance:
    """Chamberlin-Courant restriction: unit costs, budget ``k``, capacities ``n``."""
    return _restriction(profile, k, "cc")


def gen_impartial_culture(n: int, m: int, seed: int) -> Profile:
    """Profile with each order drawn independently and uniformly at random.

    Agent after agent, each order is a Fisher-Yates shuffle of ``1..m`` that
    draws position ``i``'s partner as ``SplitMix64(seed).randrange(i + 1)``
    would: the draws come from :meth:`SplitMix64.block`, and a draw that
    ``randrange`` rejects is skipped for the next one of the same stream.
    """
    if not _integers((n, m, seed)):
        raise ValueError("n, m and seed must be integers")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = SplitMix64(seed)
    planned = n * (m - 1)
    blocks = (rng.block(min(_BLOCK, planned - t)) for t in range(0, planned, _BLOCK))
    # Each rejection (chance below m / 2**64 per draw) reads one draw past
    # the planned blocks.
    draw = chain(chain.from_iterable(blocks), iter(rng.next_u64, None)).__next__
    steps = [(i, i + 1, _acceptance_limit(i + 1)) for i in range(m - 1, 0, -1)]
    alternatives = list(range(1, m + 1))
    orders = []
    for _ in range(n):
        order = alternatives[:]
        for i, bound, limit in steps:
            r = draw()
            while r >= limit:
                r = draw()
            j = r % bound
            order[i], order[j] = order[j], order[i]
        orders.append(tuple(order))
    return _trusted_profile(n, m, tuple(orders))


def gen_identical(n: int, m: int) -> Profile:
    """Profile where every agent ranks the alternatives 1, 2, ..., m."""
    if not _integers((n, m)):
        raise ValueError("n and m must be integers")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    order = tuple(range(1, m + 1))
    return _trusted_profile(n, m, (order,) * n)


def _significant_lines(document: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(document.split("\n"), start=1):
        line = raw.rstrip("\r")
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        line = line.strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_ints(lineno: int, tokens: Sequence[str], what: str) -> list[int]:
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(lineno, f"{what}: {tok!r} is not an integer") from None
    return values


def parse_instance(document: str) -> ParsedDocument:
    """Parse a profile document; raises :class:`ParseError` naming the line."""
    lines = _significant_lines(document)
    if not lines:
        raise ParseError(1, "empty document, expected header 'n m'")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2:
        raise ParseError(lineno, f"malformed header {header!r}, expected 'n m'")
    n, m = _parse_ints(lineno, tokens, "header")
    if n < 1 or m < 1:
        raise ParseError(lineno, f"header needs n >= 1 and m >= 1, got {n} {m}")
    if len(lines) < 1 + n:
        raise ParseError(
            lines[-1][0], f"expected {n} order lines, found {len(lines) - 1}"
        )
    full = set(range(1, m + 1))
    orders = []
    for lineno, line in lines[1 : 1 + n]:
        tokens = line.split()
        if len(tokens) != m:
            raise ParseError(
                lineno, f"order line has {len(tokens)} entries, expected {m}"
            )
        try:
            order = tuple(map(int, tokens))
        except ValueError:
            order = ()
        if set(order) != full:
            # Not a permutation of 1..m, so the line holds a bad token: name
            # the first, a non-integer ahead of any range or duplicate error.
            seen = set()
            for v in _parse_ints(lineno, tokens, "order line"):
                if not 1 <= v <= m:
                    raise ParseError(
                        lineno, f"alternative index {v} out of range 1..{m}"
                    )
                if v in seen:
                    raise ParseError(lineno, f"duplicate alternative index {v}")
                seen.add(v)
        orders.append(order)
    profile = _trusted_profile(n, m, tuple(orders))

    blocks = {}
    expected = {"costs": m, "caps": m, "budget": 1}
    for lineno, line in lines[1 + n :]:
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in expected:
            raise ParseError(lineno, f"unknown trailing block {line!r}")
        if key in blocks:
            raise ParseError(lineno, f"duplicate block {key!r}")
        values = _parse_ints(lineno, rest.split(), key)
        if len(values) != expected[key]:
            raise ParseError(
                lineno,
                f"block {key!r} has {len(values)} entries, expected {expected[key]}",
            )
        if any(v < 1 for v in values):
            raise ParseError(lineno, f"block {key!r} entries must be positive")
        blocks[key] = tuple(values)

    return ParsedDocument(
        profile=profile,
        costs=blocks.get("costs"),
        caps=blocks.get("caps"),
        budget=blocks["budget"][0] if "budget" in blocks else None,
    )


def write_instance(
    profile: Profile,
    costs: Sequence[int] | None = None,
    caps: Sequence[int] | None = None,
    budget: int | None = None,
) -> str:
    """Render a profile (plus optional general blocks) in the file grammar.

    Raises ``ValueError`` on a block that :func:`parse_instance` would
    refuse, so that every document written reads back."""
    for name, block in (("costs", costs), ("caps", caps)):
        if block is not None and not (
            len(block) == profile.m and _integers(block) and min(block) >= 1
        ):
            raise ValueError(f"block {name!r} needs {profile.m} positive integer entries")
    if budget is not None and not (_integers((budget,)) and budget >= 1):
        raise ValueError("block 'budget' needs one positive integer")
    out = [f"{profile.n} {profile.m}"]
    for order in profile.orders:
        out.append(" ".join(str(a) for a in order))
    if costs is not None:
        out.append("costs: " + " ".join(str(c) for c in costs))
    if caps is not None:
        out.append("caps: " + " ".join(str(c) for c in caps))
    if budget is not None:
        out.append(f"budget: {budget}")
    return "\n".join(out) + "\n"


def general_instance(parsed: ParsedDocument) -> Instance:
    """Build a general instance from a document carrying all trailing blocks."""
    if parsed.costs is None or parsed.caps is None or parsed.budget is None:
        raise ValueError("general instance needs costs, caps and budget blocks")
    return Instance(
        profile=parsed.profile,
        costs=parsed.costs,
        capacities=parsed.caps,
        budget=parsed.budget,
        system_tag="general",
    )
