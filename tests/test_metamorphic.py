"""Metamorphic relations: transformed inputs whose optimal values are known
from the original's, so a wrong answer shows at any n, with no oracle.

(a) Permuting the agents and (b) relabelling the alternatives keep the
optimum of ``match_monroe_l1``, the threshold of ``match_egalitarian`` and
the value of ``exact_enumeration``, on CC and Monroe under ``l1_dec``,
``min_dec`` and ``max_inc``.  (c) Duplicating every agent doubles the
``l1_dec`` optimum and keeps the ``min_dec`` one, on CC, and on Monroe when
k divides n (the balanced loads then double as well).  On the load
bounds: (d) pinning both bounds at the returned matching's loads keeps
every optimum; (e) widening every bound by one never worsens it; (f) with
lowers 0 and uppers n - 1 the kernel runs, and the value is the CC floor
(each agent at its best member) unless one member is every agent's best,
where the total falls short of it.  Only values are compared: targets are
not invariant, since the tie rule reads agent indices.

The desk-scale sweep mixes impartial-culture and few-order profiles (ties
everywhere) with balanced, CC and random explicit bounds; the matching
slice runs the two matchers at n = 150 and 300, m = 30, k = 10, and the
bound relations also at n = 157, where k does not divide n.
"""

import pytest

from prefalloc import (
    Profile,
    ScoringFunction,
    exact_enumeration,
    gen_impartial_culture,
    make_cc,
    make_monroe,
    match_cc,
    match_egalitarian,
    match_monroe_l1,
)
from prefalloc.rng import SplitMix64, derive_seed, sample_distinct

from oracles import balanced_bounds, shuffled

BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()
# (objective, scoring function, fold of the agents' scores)
OBJECTIVES = (("l1_dec", BD, sum), ("min_dec", BD, min), ("max_inc", BI, max))
SEED = 2727


def _value(profile, psf, fold, assignment):
    scores = psf.values(profile.m)
    return fold(scores[profile.positions[j][t - 1] - 1] for j, t in enumerate(assignment.targets))


def _matched(profile, committee, bounds):
    """``(objective, value)`` under every objective: ``match_monroe_l1``'s
    total for ``l1_dec``, ``match_egalitarian``'s threshold for the others."""
    found = []
    for name, psf, fold in OBJECTIVES:
        matcher = match_monroe_l1 if name == "l1_dec" else match_egalitarian
        found.append((name, _value(profile, psf, fold, matcher(profile, psf, committee, *bounds))))
    return found


def _enumerated(profile, k):
    return [
        (make.__name__, name, exact_enumeration(make(profile, k), psf, name).value)
        for make in (make_monroe, make_cc)
        for name, psf, _ in OBJECTIVES
    ]


def _permuted(profile, rng):
    return Profile.from_orders([profile.orders[j] for j in shuffled(range(profile.n), rng)])


def _relabelled(profile, rng):
    """The profile with alternative a renamed ``label[a]``, and ``label``."""
    label = [0, *shuffled(range(1, profile.m + 1), rng)]
    return Profile.from_orders([[label[a] for a in order] for order in profile.orders]), label


def _doubled(profile):
    return Profile.from_orders([*profile.orders, *profile.orders])


def _profile(n, m, kind, rng):
    if kind == 0:
        return Profile.from_orders([shuffled(range(1, m + 1), rng) for _ in range(n)])
    distinct = [shuffled(range(1, m + 1), rng) for _ in range(2)]
    return Profile.from_orders([distinct[rng.randrange(2)] for _ in range(n)])


def _bounds(n, k, kind, rng):
    """Balanced loads (both None), CC bounds, or random explicit bounds that
    admit a complete assignment."""
    if kind == 0:
        return None, None
    if kind == 1:
        return (0,) * k, (n,) * k
    lowers = [rng.randrange(n // k + 1) for _ in range(k)]
    uppers = [lo + rng.randrange(n // k + 2) for lo in lowers]
    uppers[-1] += max(0, n - sum(uppers))
    return tuple(lowers), tuple(uppers)


def _desk_cases():
    rng = SplitMix64(SEED)
    for case in range(36):
        n, m = 1 + rng.randrange(12), 2 + rng.randrange(5)
        k = 1 + rng.randrange(min(3, m))
        profile = _profile(n, m, case % 2, rng)
        committee = sorted(a + 1 for a in sample_distinct(m, k, rng))
        yield case, profile, k, committee, _bounds(n, k, case % 3, rng), rng


def test_permuting_agents_keeps_every_optimum():
    for case, profile, k, committee, bounds, rng in _desk_cases():
        permuted = _permuted(profile, rng)
        assert _matched(permuted, committee, bounds) == _matched(profile, committee, bounds), case
        assert _enumerated(permuted, k) == _enumerated(profile, k), case


def test_relabelling_alternatives_keeps_every_optimum():
    for case, profile, k, committee, bounds, rng in _desk_cases():
        relabelled, label = _relabelled(profile, rng)
        moved = sorted(label[a] for a in committee)
        renamed = bounds
        if bounds[0] is not None:  # each member keeps its bounds under its new name
            slot = {label[a]: i for i, a in enumerate(committee)}
            renamed = tuple(tuple(bound[slot[b]] for b in moved) for bound in bounds)
        assert _matched(relabelled, moved, renamed) == _matched(profile, committee, bounds), case
        assert _enumerated(relabelled, k) == _enumerated(profile, k), case


def test_duplicating_agents_doubles_the_total_and_keeps_the_threshold():
    checked = 0
    for case, profile, k, committee, _, _ in _desk_cases():
        n, doubled = profile.n, _doubled(profile)
        systems = [make_cc, make_monroe] if n % k == 0 else [make_cc]
        for make in systems:
            for name, factor in (("l1_dec", 2), ("min_dec", 1)):
                want = factor * exact_enumeration(make(profile, k), BD, name).value
                assert exact_enumeration(make(doubled, k), BD, name).value == want, (case, name)
                checked += 1
        pairs = [(((0,) * k, (n,) * k), ((0,) * k, (2 * n,) * k))]
        if n % k == 0:
            pairs.append(((None, None), (None, None)))
        for own, twice in pairs:
            (_, total), *thresholds = _matched(profile, committee, own)
            got = _matched(doubled, committee, twice)
            assert got == [("l1_dec", 2 * total), *thresholds], case
    assert checked > 2 * 36  # some Monroe case has k dividing n


def _both(profile, committee):
    """The total and the threshold of the two matchers under Borda."""
    total = match_monroe_l1(profile, BD, committee)
    threshold = match_egalitarian(profile, BD, committee)
    return _value(profile, BD, sum, total), _value(profile, BD, min, threshold)


@pytest.mark.parametrize("n", [150, 300])
def test_matching_slice_at_benchmark_scale(n):
    rng = SplitMix64(derive_seed(SEED, n))
    profile = gen_impartial_culture(n, 30, derive_seed(SEED, n))
    committee = sorted(a + 1 for a in sample_distinct(30, 10, rng))
    want = _both(profile, committee)
    relabelled, label = _relabelled(profile, rng)
    assert _both(_permuted(profile, rng), committee) == want
    assert _both(relabelled, sorted(label[a] for a in committee)) == want


def _bound_relations(profile, committee, bounds, name, psf, fold):
    """Check (d) and (e) on one case and objective; return the value under
    lowers 0 and uppers n - 1 and the CC floor (relation (f)), or None
    where those bounds admit no complete assignment."""
    n, k = profile.n, len(committee)
    matcher = match_monroe_l1 if name == "l1_dec" else match_egalitarian
    lowers, uppers = balanced_bounds(n, k) if bounds[0] is None else bounds
    found = matcher(profile, psf, committee, lowers, uppers)
    value = _value(profile, psf, fold, found)
    loads = tuple(found.targets.count(a) for a in committee)
    pinned = matcher(profile, psf, committee, loads, loads)
    assert _value(profile, psf, fold, pinned) == value, "(d)"
    wider = tuple(max(0, lo - 1) for lo in lowers), tuple(hi + 1 for hi in uppers)
    widened = _value(profile, psf, fold, matcher(profile, psf, committee, *wider))
    assert (widened <= value if name == "max_inc" else widened >= value), "(e)"
    if n < 2 or k < 2:
        return None
    loose = matcher(profile, psf, committee, (0,) * k, (n - 1,) * k)
    floor = _value(profile, psf, fold, match_cc(profile, committee))
    return _value(profile, psf, fold, loose), floor


def test_bound_relations_on_the_desk_sweep():
    reached = short = 0
    for case, profile, k, committee, bounds, _ in _desk_cases():
        one = len(set(match_cc(profile, committee).targets)) == 1
        for name, psf, fold in OBJECTIVES:
            loose = _bound_relations(profile, committee, bounds, name, psf, fold)
            if loose is None:
                continue
            value, floor = loose
            if not one:
                assert value == floor, (case, name)
                reached += 1
            elif name == "l1_dec":  # one agent at least must leave its best member
                assert value < floor, case
                short += 1
    assert reached and short


@pytest.mark.parametrize("n", [150, 157, 300])
def test_bound_relations_at_benchmark_scale(n):
    rng = SplitMix64(derive_seed(SEED, n))
    profile = gen_impartial_culture(n, 30, derive_seed(SEED, n))
    committee = sorted(a + 1 for a in sample_distinct(30, 10, rng))
    for name, psf, fold in OBJECTIVES[:2]:
        value, floor = _bound_relations(profile, committee, (None, None), name, psf, fold)
        assert value == floor, name
