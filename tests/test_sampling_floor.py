"""The expected value of one sampling run, computed exactly.

A sampling run draws a uniform k-subset of the alternatives and matches it
optimally under balanced loads, so its expectation E is the mean, over all
C(m, k) committees, of their optimal matching values
(``oracles.sampling_expectation``).  The floor that holds is
E >= n(m-1)/2 >= OPT/2: put a uniformly random balanced assignment on the
random committee; each agent's target is then uniform over 1..m, so its
expected Borda score is (m-1)/2, and the optimal matching is no worse.
The finer floor (1 + k/m - k^2/(m^2-m) + k^3/(m^3-m^2))/2 is not proven
here, and identical profiles fall below it.
"""

from fractions import Fraction

import pytest

from prefalloc import (
    Profile,
    ScoringFunction,
    exact_enumeration,
    gen_identical,
    gen_impartial_culture,
    make_monroe,
)
from prefalloc.rng import SplitMix64, derive_seed

from oracles import sampling_expectation

BD = ScoringFunction.borda_dec()
SEED = 1414


def _optimum(profile: Profile, k: int) -> int:
    return exact_enumeration(make_monroe(profile, k), BD, "l1_dec").value


def _two_block_reversed(n: int, m: int) -> Profile:
    """The first ``n - n // 2`` agents rank 1..m, the rest m..1."""
    up = tuple(range(1, m + 1))
    return Profile.from_orders([up] * (n - n // 2) + [up[::-1]] * (n // 2))


def test_sampling_expectation_is_at_least_half_the_optimum():
    rng = SplitMix64(derive_seed(SEED, 0))
    for case in range(90):
        m = 2 + rng.randrange(7)
        k = 1 + rng.randrange(m)
        n = 1 + rng.randrange(12)
        kind = ("ic", "identical", "reversed")[case % 3]
        if kind == "ic":
            profile = gen_impartial_culture(n, m, derive_seed(SEED, 1 + case))
        elif kind == "identical":
            profile = gen_identical(n, m)
        else:
            profile = _two_block_reversed(n, m)
        expectation, opt = sampling_expectation(profile, k), _optimum(profile, k)
        assert opt >= expectation >= Fraction(n * (m - 1), 2) >= Fraction(opt, 2), (kind, n, m, k)


@pytest.mark.parametrize("m", range(2, 9))
def test_identical_profiles_meet_the_closed_form(m):
    # Every member of a committee carries n/k agents, so E = n(m-1)/2 and
    # OPT = n(2m-k-1)/2, the committee 1..k.
    for k in range(1, m + 1):
        for n in (k, 2 * k, 3 * k):
            profile = gen_identical(n, m)
            ratio = sampling_expectation(profile, k) / _optimum(profile, k)
            assert ratio == Fraction(m - 1, 2 * m - k - 1), (n, k)


def test_the_unproven_formula_fails_on_identical_profiles():
    # Why the README no longer states the finer floor as proven.
    n, m, k = 6, 9, 3
    profile = gen_identical(n, m)
    ratio = sampling_expectation(profile, k) / _optimum(profile, k)
    formula = (1 + Fraction(k, m) - Fraction(k**2, m**2 - m) + Fraction(k**3, m**3 - m**2)) / 2
    assert ratio == Fraction(4, 7) < formula == Fraction(5, 8)
