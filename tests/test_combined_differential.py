"""Differential sweep: ``combined_monroe`` (one cost table and one Monroe
instance shared by every sampling run) against the loop it replaced
(``oracles.combined_monroe_reference``, one full ``sample_once_monroe`` call
per run).  Algorithm string, value and targets must agree on every branch:
exact, ``greedy+sample``, the ``[no-guarantee]`` cap fallback and the k <= 2
``sample`` fallback.  Call counts pin the sharing: one cost table per
enumeration or combined call, one instance per sampling branch."""

import pytest

import prefalloc.matching as matching
import prefalloc.solvers as solvers
from prefalloc import (
    Instance,
    Profile,
    ScoringFunction,
    combined_monroe,
    exact_enumeration,
    gen_identical,
    gen_impartial_culture,
    make_cc,
    make_monroe,
)
from prefalloc.rng import SplitMix64, derive_seed

from oracles import combined_monroe_reference, shuffled

SEED = 6006
BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()


def _profile(n, m, case):
    """Impartial culture, identical orders (every committee ties) or two
    orders drawn per agent."""
    kind = case % 3
    if kind == 0:
        return gen_impartial_culture(n, m, derive_seed(SEED, case))
    if kind == 1:
        return gen_identical(n, m)
    rng = SplitMix64(derive_seed(SEED, case))
    pair = [shuffled(range(1, m + 1), rng) for _ in range(2)]
    return Profile.from_orders([pair[rng.randrange(2)] for _ in range(n)])


# (n, m, k, config, algorithm prefix): runs = ceil(-512 ln(1 - lambda) / (k eps^2)).
BRANCHES = [
    (30, 12, 9, dict(epsilon=0.9, lambda_=0.3), "combined_monroe[greedy+sample:26]"),
    (25, 9, 3, dict(epsilon=0.7, lambda_=0.3, enumeration_cap=10),
     "combined_monroe[greedy+sample:10][no-guarantee]"),
    (20, 9, 2, dict(epsilon=0.7, lambda_=0.3, enumeration_cap=12),
     "combined_monroe[sample:12][no-guarantee]"),
    (7, 6, 1, dict(epsilon=0.9, lambda_=0.3, enumeration_cap=4),
     "combined_monroe[sample:4][no-guarantee]"),
    (10, 7, 3, dict(epsilon=0.5, lambda_=0.3), "combined_monroe[exact:small-k]"),
    # One agent, one member: a sample's CC score is its score, so a sample
    # one point better than the incumbent must still be matched.
    (1, 6, 1, dict(epsilon=0.9, lambda_=0.3, enumeration_cap=5),
     "combined_monroe[sample:5][no-guarantee]"),
]


@pytest.mark.parametrize("n, m, k, config, algorithm", BRANCHES)
def test_combined_matches_sampling_loop_reference(n, m, k, config, algorithm):
    for case in range(6):
        profile = _profile(n, m, case)
        seeded = dict(config, seed=derive_seed(SEED, 100 + case))
        got = combined_monroe(profile, k, **seeded)
        want = combined_monroe_reference(profile, k, **seeded)
        assert got.algorithm == want.algorithm == algorithm
        assert (got.value, got.assignment, got.objective, got.seed) == (
            want.value, want.assignment, want.objective, want.seed
        ), (case, algorithm)


def _counter(monkeypatch, name, *modules):
    """Count calls of ``name`` through each module's binding of it."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_one_cost_table_per_call_and_one_instance_per_sampling_branch(monkeypatch):
    tables = _counter(monkeypatch, "_cost_table", matching, solvers)
    instances = _counter(monkeypatch, "make_monroe", solvers)
    profile = gen_impartial_culture(14, 9, SEED)
    general = Instance(profile=profile, costs=(1,) * 9, capacities=(7,) * 9, budget=3)
    for instance in (make_monroe(profile, 3), make_cc(profile, 3), general):
        for objective, psf in (("l1_dec", BD), ("l1_inc", BI), ("min_dec", BD), ("max_inc", BI)):
            del tables[:]
            exact_enumeration(instance, psf, objective)
            assert len(tables) == 1, (instance.system_tag, objective)
    for n, m, k, config, algorithm in BRANCHES:
        del tables[:], instances[:]
        report = combined_monroe(_profile(n, m, 0), k, **config)
        assert report.algorithm == algorithm
        assert len(tables) == 1, algorithm
        # The exact branch builds the instance it enumerates; the sampling
        # branch builds one for all of its runs, and at k > 2 the greedy
        # pass builds its own.
        assert len(instances) == (2 if "greedy" in algorithm else 1), algorithm


# What combined_monroe_reference, which matches every sample, returns here
# (pinned: it takes 10 s).
IC_60_40_3_TARGETS = (
    3, 3, 2, 11, 30, 5, 27, 30, 4, 11, 3, 2, 35, 5, 8, 2, 36, 36, 2, 11,
    27, 38, 5, 32, 27, 2, 30, 11, 11, 27, 4, 4, 36, 38, 35, 15, 38, 38, 5, 8,
    32, 35, 4, 5, 32, 15, 15, 36, 35, 35, 32, 3, 8, 8, 4, 8, 30, 36, 15, 30,
)


def test_sampling_matches_only_samples_that_can_win(monkeypatch):
    # A sample whose CC or load floor is not below the incumbent's cost
    # (here greedy's) is not matched: an l1 matching is one kernel solve.
    # The winner is scored once.
    matchings = _counter(monkeypatch, "_solve_bounded", matching)
    scorings = _counter(monkeypatch, "metric_l1", solvers)
    got = combined_monroe(gen_impartial_culture(60, 40, 3), 13, epsilon=0.5, lambda_=0.9, seed=3)
    assert len(matchings) < 363
    assert len(scorings) == 2  # the greedy pass and the winner
    assert (got.algorithm, got.value, got.assignment.targets) == (
        "combined_monroe[greedy+sample:363]", 2280, IC_60_40_3_TARGETS
    )
