"""Committee-selection solvers, numeric utilities, and the enumeration oracle."""

import math
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from prefalloc import (
    Assignment,
    EnumerationCapExceeded,
    Instance,
    Profile,
    ScoringFunction,
    UnsupportedInstanceError,
    combined_monroe,
    exact_enumeration,
    gen_identical,
    gen_impartial_culture,
    greedy_cc,
    greedy_cc_bound,
    greedy_cc_majority,
    greedy_monroe,
    greedy_monroe_bound,
    harmonic,
    lambert_w,
    make_cc,
    make_monroe,
    maxcover_cc_baseline,
    metric_extreme,
    metric_l1,
    metric_min_delta,
    sample_once_monroe,
    sampling_run_count,
    validate_assignment,
)
import prefalloc.solvers as solvers
from prefalloc.solvers import _budget_subsets, cover_depth_majority
from prefalloc.rng import SplitMix64, derive_seed

from oracles import best_committee_value, best_matching_value, lambert_w_bisect

BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()


# ---------------------------------------------------------------- numerics


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)
    with pytest.raises(ValueError):
        harmonic(0)


def test_lambert_w_fixed_points():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-12
    assert abs(lambert_w(1.0) - 0.567143290410) <= 1e-9


def test_lambert_w_matches_bisection_oracle():
    for x in (0.25, 0.5, 1.0, 2.0, math.e, 5.0, 10.0, 123.0, 1e6):
        assert abs(lambert_w(x) - lambert_w_bisect(x)) <= 1e-9 * max(1.0, x)


def test_lambert_w_residuals():
    for x in (0.0, 0.5, 1.0, math.e, 10.0, 1e6):
        w = lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)


def test_lambert_w_rejects_negative():
    with pytest.raises(ValueError):
        lambert_w(-0.1)


def test_lambert_w_log_form_residuals():
    # Above about 2.55e305 the Newton slope e^w (1 + w) overflows a float, so
    # the steps solve w + ln w = ln x instead; nor does w e^w fit a float.
    for x in (2.5528e305, 2.6e305, 1e306, 1e308, sys.float_info.max, 10**306):
        w = lambert_w(x)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-12, x


def test_lambert_w_raises_rather_than_return_an_unconverged_value(monkeypatch):
    # A NaN start never meets the residual bound, so the step cap is reached.
    monkeypatch.setattr(math, "log1p", lambda x: math.nan)
    with pytest.raises(ArithmeticError, match=r"lambert_w\(1\.0\) did not converge"):
        lambert_w(1.0)


def test_sampling_run_count_formula():
    assert sampling_run_count(100, 0.1, 0.9) == 1179
    assert sampling_run_count(9, 0.7, 0.5) == 81
    with pytest.raises(ValueError):
        sampling_run_count(0, 0.1, 0.9)
    with pytest.raises(ValueError):
        sampling_run_count(10, 1.5, 0.9)


@pytest.mark.parametrize("k, eps, lam", [(2, 0.5, 1e-17), (20, 1e-200, 0.9), (20, 1e-160, 0.9)])
def test_sampling_run_count_where_the_float_quotient_fails(k, eps, lam):
    # 1 - 1e-17 rounds to 1.0 (a float count of 0); eps^2 underflows to 0
    # (1e-200) or the quotient overflows (1e-160).  The count is still the
    # formula's ceiling: the least integer whose k eps^2 multiple reaches
    # -512 ln(1 - lam).
    count = sampling_run_count(k, eps, lam)
    need, step = Fraction(-512 * math.log1p(-lam)), k * Fraction(eps) ** 2
    assert type(count) is int and count >= 1
    assert (count - 1) * step < need <= count * step


def test_combined_samples_once_where_lambda_rounds_the_count_to_zero():
    # Over the cap at k = 2 only sampling runs: a count of 0 left no incumbent.
    prof = gen_impartial_culture(20, 6, 1)
    report = combined_monroe(prof, 2, epsilon=0.5, lambda_=1e-17, seed=0, enumeration_cap=1)
    assert report.algorithm == "combined_monroe[sample:1][no-guarantee]"
    assert validate_assignment(make_monroe(prof, 2), BD, report.assignment) == ()


@pytest.mark.parametrize("n, m, k", [(1, 2, 1), (7, 3, 2), (20, 9, 4), (100, 40, 10)])
def test_greedy_cc_bound_value(n, m, k):
    want = (1 - 2 * lambert_w_bisect(k) / k) * (m - 1) * n
    assert greedy_cc_bound(n, m, k) == pytest.approx(want, rel=1e-9)


RUN_RANGE = "epsilon and lambda must lie strictly inside (0, 1)"


@pytest.mark.parametrize(
    "call, message",
    [
        # Before the checks: 568, 1420, 1, -2.01, nan and nan.
        (lambda: sampling_run_count(2.5, 0.5, 0.5), "committee size must be an integer, got 2.5"),
        (lambda: sampling_run_count(True, 0.5, 0.5), "committee size must be an integer, got True"),
        (lambda: harmonic(True), "harmonic number index must be an integer, got True"),
        (lambda: greedy_cc_bound(5, 4, True), "committee size must be an integer, got True"),
        (lambda: lambert_w(math.inf), "lambert_w needs a finite argument, got inf"),
        (lambda: lambert_w(math.nan), "lambert_w needs a finite argument, got nan"),
        # Before the check: OverflowError, from an int no float holds.
        (lambda: lambert_w(10**400), f"lambert_w needs a finite argument, got {10**400}"),
        # Before the checks: ZeroDivisionError.
        (lambda: greedy_cc_bound(5, 4, 0), "committee size must be positive"),
        (lambda: cover_depth_majority(10, 0, 0.5), "committee size must be positive"),
        # Before the check: a depth of 0.
        (lambda: cover_depth_majority(6, 3, 1.0), "delta must lie strictly inside (0, 1), got 1.0"),
        # Before the check: ZeroDivisionError, a count, a count, a math domain
        # error and a math domain error.
        (lambda: sampling_run_count(10, 0.0, 0.9), RUN_RANGE),
        (lambda: sampling_run_count(10, 1.0, 0.9), RUN_RANGE),
        (lambda: sampling_run_count(10, 0.1, 0.0), RUN_RANGE),
        (lambda: sampling_run_count(10, 0.1, 1.0), RUN_RANGE),
        (lambda: sampling_run_count(10, 0.1, 1.5), RUN_RANGE),
        (lambda: greedy_monroe_bound(5, 1, 1), "greedy_monroe_bound needs an integer k in 3..1, got 1"),
        # Outside the stated range 3..m.
        (lambda: greedy_monroe_bound(6, 4, 2), "greedy_monroe_bound needs an integer k in 3..4, got 2"),
        (lambda: greedy_monroe_bound(6, 4, 5), "greedy_monroe_bound needs an integer k in 3..4, got 5"),
        (lambda: greedy_monroe_bound(6, 4, 3.0), "greedy_monroe_bound needs an integer k in 3..4, got 3.0"),
    ],
    ids=[
        "runs-float", "runs-bool", "harmonic-bool", "cc-bound-bool", "w-inf", "w-nan",
        "w-huge-int",
        "cc-bound-zero", "depth-zero", "depth-delta-one", "runs-eps-zero", "runs-eps-one",
        "runs-lambda-zero", "runs-lambda-one", "runs-lambda-high",
        "monroe-bound-m1", "monroe-bound-low", "monroe-bound-high",
        "monroe-bound-float",
    ],
)
def test_numeric_helpers_refuse_out_of_domain_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


IC_40_30 = gen_impartial_culture(40, 30, 1)
NOT_INTEGERS = "seed and enumeration cap must be integers"


def test_solver_config_validation():
    # combined_monroe checks its knobs before the profile: a bad one is
    # named even where the profile would be refused too.
    for knobs, message in (
        ({"epsilon": 0.0}, "epsilon must lie strictly inside (0, 1)"),
        ({"epsilon": 1.0}, "epsilon must lie strictly inside (0, 1)"),
        ({"lambda_": 0.0}, "lambda must lie strictly inside (0, 1)"),
        ({"lambda_": 1.0}, "lambda must lie strictly inside (0, 1)"),
        ({"enumeration_cap": 0}, "enumeration cap must be at least 1"),
    ):
        for profile in (IC_40_30, make_monroe(IC_40_30, 12)):
            with pytest.raises(ValueError) as info:
                combined_monroe(profile, 12, **knobs)
            assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: combined_monroe(IC_40_30, 12, epsilon=0.5, lambda_=0.5, enumeration_cap=2.5),
         NOT_INTEGERS),
        (lambda: combined_monroe(IC_40_30, 12, epsilon=0.5, lambda_=0.5, enumeration_cap=True),
         NOT_INTEGERS),
        (lambda: combined_monroe(IC_40_30, 12, seed=1.5), NOT_INTEGERS),
        (lambda: greedy_monroe(IC_40_30, 3.5), "committee size must lie in 1..30, got 3.5"),
        (lambda: greedy_cc(IC_40_30, True), "committee size must lie in 1..30, got True"),
        (lambda: exact_enumeration(make_cc(IC_40_30, 2), BD, "l1_dec", 2.5),
         "enumeration cap must be an integer"),
        (lambda: sample_once_monroe(IC_40_30, 3, 1.5), "seed must be an integer"),
    ],
    ids=["cap-float", "cap-bool", "seed-float", "k-float", "k-bool", "exact-cap", "sample-seed"],
)
def test_non_integer_sizes_seeds_and_caps_are_refused(call, message):
    # Without the check a float reaches range() or SplitMix64, and a bool
    # passes as 1 into the algorithm string.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------- greedy (monroe)


def test_greedy_monroe_small_k_is_exact():
    prof = gen_identical(4, 4)
    report = greedy_monroe(prof, 2)
    assert report.value == 10
    assert report.value == best_committee_value(prof, BD, 2, "monroe")
    assert "exact" in report.algorithm


def test_greedy_monroe_small_k_exact_on_random_profiles():
    rng = SplitMix64(2024)
    for trial in range(10):
        prof = gen_impartial_culture(4 + rng.randrange(4), 4, derive_seed(2024, trial))
        k = 1 + rng.randrange(2)
        assert greedy_monroe(prof, k).value == best_committee_value(
            prof, BD, k, "monroe"
        )


def test_greedy_monroe_full_committee_identical_orders():
    prof = gen_identical(8, 4)
    report = greedy_monroe(prof, 4)
    assert report.assignment.committee == frozenset({1, 2, 3, 4})
    loads = [report.assignment.targets.count(a) for a in range(1, 5)]
    assert loads == [2, 2, 2, 2]


def test_greedy_monroe_bound_example():
    assert greedy_monroe_bound(6, 4, 3) == 1  # 18 * (1 - 1/3 - 11/18)


def test_greedy_monroe_bound_holds_on_sweep():
    rng = SplitMix64(91)
    for trial in range(80):
        n = 6 + rng.randrange(13)
        m = 4 + rng.randrange(6)
        k = 3 + rng.randrange(min(6, m) - 2)
        prof = gen_impartial_culture(n, m, derive_seed(91, trial))
        report = greedy_monroe(prof, k)
        assert Fraction(report.value) >= greedy_monroe_bound(n, m, k)
        assert validate_assignment(make_monroe(prof, k), BD, report.assignment) == ()


def test_greedy_monroe_handles_indivisible_n():
    prof = gen_impartial_culture(10, 6, 17)
    report = greedy_monroe(prof, 4)  # batches 3,3,2,2
    loads = sorted(report.assignment.targets.count(a) for a in report.assignment.committee)
    assert loads == [2, 2, 3, 3]
    assert validate_assignment(make_monroe(prof, 4), BD, report.assignment) == ()


def test_greedy_monroe_domain_errors():
    prof = gen_identical(4, 3)
    with pytest.raises(ValueError):
        greedy_monroe(prof, 0)
    with pytest.raises(ValueError):
        greedy_monroe(prof, 4)


def test_approximation_solvers_take_a_profile_only():
    # Costs 5 each against a budget of 5: any two-member committee is over
    # budget, which the Monroe and CC restrictions would silently ignore.
    prof = gen_impartial_culture(6, 4, 3)
    priced = Instance(profile=prof, costs=(5,) * 4, capacities=(6,) * 4, budget=5)
    calls = [
        lambda: greedy_monroe(priced, 2),
        lambda: sample_once_monroe(priced, 2, 1),
        lambda: combined_monroe(priced, 2),
        lambda: greedy_cc(priced, 2),
        lambda: greedy_cc_majority(priced, 2, 0.5),
        lambda: maxcover_cc_baseline(priced, 2),
    ]
    for call in calls:
        with pytest.raises(UnsupportedInstanceError, match="pass instance.profile"):
            call()


# ------------------------------------------------------------- sampling


def test_sample_once_determinism_and_seed_recorded():
    prof = gen_impartial_culture(8, 5, 21)
    a = sample_once_monroe(prof, 2, 42)
    b = sample_once_monroe(prof, 2, 42)
    assert a.assignment.targets == b.assignment.targets
    assert a.seed == 42


def test_sample_once_full_committee_is_forced():
    prof = gen_impartial_culture(6, 4, 33)
    report = sample_once_monroe(prof, 4, 7)
    lowers, uppers = (1,) * 4, (2,) * 4  # 6 agents over 4 members
    assert report.value == best_matching_value(
        prof, BD, (1, 2, 3, 4), lowers, uppers, "l1_dec"
    )


def test_sample_once_identical_orders_top_pair():
    prof = gen_identical(4, 4)
    report = sample_once_monroe(prof, 2, 3)  # seed 3 draws committee {1, 2}
    assert sorted(report.assignment.committee) == [1, 2]
    assert report.value == 10


def test_sample_value_never_beats_oracle():
    prof = gen_impartial_culture(9, 5, 77)
    opt = exact_enumeration(make_monroe(prof, 3), BD, "l1_dec").value
    for seed in range(20):
        assert sample_once_monroe(prof, 3, seed).value <= opt


# ------------------------------------------------------------- combined


def test_combined_small_k_branch_is_exact():
    prof = gen_impartial_culture(10, 9, 101)
    report = combined_monroe(prof, 8, epsilon=0.05, lambda_=0.9, seed=5)
    assert "exact" in report.algorithm
    assert report.value == exact_enumeration(make_monroe(prof, 8), BD, "l1_dec").value


def test_combined_small_m_forces_exact():
    # m = 4 <= 1 + 2/eps = 5 is the paper's small-m case; k = 3 <= 8 takes
    # the small-k branch, as every small-m case does
    # (test_combined_small_m_is_always_small_k).
    prof = gen_impartial_culture(8, 4, 55)
    report = combined_monroe(prof, 3, epsilon=0.5, lambda_=0.9, seed=5)
    assert "exact" in report.algorithm
    assert report.value == exact_enumeration(make_monroe(prof, 3), BD, "l1_dec").value


def test_combined_small_m_is_always_small_k():
    # The paper's exact branch for few alternatives (m <= 1 + 2/eps) adds no
    # case to the small-k one: H_k/k < eps/2 gives 1 + 2/eps < 1 + k/H_k < k,
    # and m >= k.  combined_monroe keeps the small-k test alone.
    epsilons = [i / 100 for i in range(1, 100)] + [0.001, 0.005, 0.995, 0.999]
    for k in range(1, 401):
        per_k = harmonic(k) / k
        for eps in epsilons:
            small_k = k <= 8 or per_k >= eps / 2
            for m in range(k, k + 51):
                if m <= 1 + 2 / eps:
                    assert small_k, (k, m, eps)


def test_combined_sampling_branch():
    prof = gen_impartial_culture(11, 10, 202)
    config = dict(epsilon=0.7, lambda_=0.5, seed=99)
    report = combined_monroe(prof, 9, **config)
    assert report.algorithm == "combined_monroe[greedy+sample:81]"
    assert report.value >= greedy_monroe(prof, 9).value
    again = combined_monroe(prof, 9, **config)
    assert again.assignment.targets == report.assignment.targets


def test_combined_sampling_run_count_used():
    prof = gen_impartial_culture(10, 9, 303)
    report = combined_monroe(prof, 9, epsilon=0.7, lambda_=0.5, seed=1)
    assert report.algorithm == "combined_monroe[greedy+sample:81]"


def test_combined_over_cap_falls_back_to_sampling():
    # C(9, 3) = 84 committees exceed the cap of 10, so the exact branch that
    # k <= 8 selects gives way to greedy plus sampling runs, as many as the
    # cap (10) rather than the 242 the run-count formula asks for.
    prof = gen_impartial_culture(12, 9, 404)
    report = combined_monroe(prof, 3, epsilon=0.7, lambda_=0.5, seed=3, enumeration_cap=10)
    assert report.algorithm == "combined_monroe[greedy+sample:10][no-guarantee]"
    assert not validate_assignment(make_monroe(prof, 3), BD, report.assignment)
    assert report.value >= greedy_monroe(prof, 3).value


def test_combined_over_a_cap_of_one_runs_one_sample():
    # The least cap the solver takes: C(6, 3) = 20 committees exceed it, so
    # greedy runs and then one sampling run.
    prof = gen_impartial_culture(12, 6, 3)
    report = combined_monroe(prof, 3, epsilon=0.5, enumeration_cap=1)
    assert report.algorithm == "combined_monroe[greedy+sample:1][no-guarantee]"


def test_combined_over_cap_runs_at_most_cap_samples():
    # eps = 0.1 asks for 29474 sampling runs; enumerating all C(8, 4) = 70
    # committees is cheaper, so the fallback stops at the cap of 5 runs.
    prof = gen_identical(12, 8)
    assert sampling_run_count(4, 0.1, 0.9) == 29474
    report = combined_monroe(prof, 4, epsilon=0.1, lambda_=0.9, seed=1, enumeration_cap=5)
    assert report.algorithm == "combined_monroe[greedy+sample:5][no-guarantee]"
    assert report.value == 66  # identical orders: every committee of 4 scores 66


def test_combined_over_cap_at_small_k_samples_only(monkeypatch):
    # At k <= 2 greedy_monroe is the enumeration the cap refused, so the
    # fallback runs no enumeration: not under the default cap at m = 2001
    # (C(2001, 2) = 2001000 committees), nor under a caller cap of 5 at m = 9.
    enumerations = []
    enumerate_ = solvers.exact_enumeration

    def counted(*args, **kwargs):
        enumerations.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(solvers, "exact_enumeration", counted)
    for prof, config, runs in (
        (gen_identical(2, 2001), dict(epsilon=0.9, lambda_=0.1), 34),
        (gen_impartial_culture(12, 9, 404), dict(seed=3, enumeration_cap=5), 5),
    ):
        report = combined_monroe(prof, 2, **config)
        assert report.algorithm == f"combined_monroe[sample:{runs}][no-guarantee]"
        assert not validate_assignment(make_monroe(prof, 2), BD, report.assignment)
    assert not enumerations


# ------------------------------------------------------------ greedy (cc)


def test_greedy_cc_cover_depth_and_value():
    prof = Profile.from_orders([(1, 2, 3), (1, 3, 2), (2, 1, 3)])
    assert math.ceil(3 * lambert_w(1) / 1) == 2
    report = greedy_cc(prof, 1)
    assert report.value == 5
    assert sorted(report.assignment.committee) == [1]
    assert report.value == best_committee_value(prof, BD, 1, "cc")


def test_greedy_cc_full_committee_identical_orders():
    prof = gen_identical(5, 4)
    report = greedy_cc(prof, 4)
    assert report.value == 5 * 3


def test_greedy_cc_bound_holds_on_sweep():
    rng = SplitMix64(92)
    for trial in range(80):
        n = 6 + rng.randrange(13)
        m = 4 + rng.randrange(6)
        k = 1 + rng.randrange(min(6, m))
        prof = gen_impartial_culture(n, m, derive_seed(92, trial))
        report = greedy_cc(prof, k)
        assert report.value >= greedy_cc_bound(n, m, k)
        assert validate_assignment(make_cc(prof, k), BD, report.assignment) == ()


def test_greedy_cc_domain_errors():
    prof = gen_identical(3, 3)
    with pytest.raises(ValueError):
        greedy_cc(prof, 0)
    with pytest.raises(ValueError):
        greedy_cc(prof, 4)


# ----------------------------------------------------- greedy cc majority


def test_majority_cover_depths():
    assert cover_depth_majority(10, 2, math.exp(-1)) == 5
    assert cover_depth_majority(6, 3, math.exp(-3)) == 6  # delta = e^-K -> x = m
    assert cover_depth_majority(8, 5, 0.999) == 1


def test_majority_delta_domain():
    prof = gen_identical(4, 3)
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(ValueError):
            greedy_cc_majority(prof, 2, bad)


def test_majority_value_reaches_cover_floor():
    # after dropping floor(delta*n) agents, everyone kept sits within depth x
    rng = SplitMix64(93)
    for trial in range(40):
        n = 5 + rng.randrange(12)
        m = 4 + rng.randrange(5)
        k = 1 + rng.randrange(min(4, m))
        delta = 0.1 + 0.8 * rng.randrange(1000) / 1000.0
        prof = gen_impartial_culture(n, m, derive_seed(93, trial))
        report = greedy_cc_majority(prof, k, delta)
        x = cover_depth_majority(m, k, delta)
        assert report.value >= m - x
        recomputed = metric_min_delta(make_cc(prof, k), BD, report.assignment, delta)
        assert report.value == recomputed


def test_majority_formula_bound_when_depth_divides_exactly():
    # m*ln(1/delta)/k integral: ceiling adds no slack, the stated bound holds
    prof = gen_impartial_culture(12, 10, 44)
    k, delta = 2, math.exp(-1)  # x = 5 exactly
    report = greedy_cc_majority(prof, k, delta)
    assert report.value >= (1 + math.log(delta) / k) * (prof.m - 1)


@pytest.mark.parametrize(
    "run",
    [
        lambda p: greedy_monroe(p, 5),
        lambda p: greedy_cc(p, 5),
        lambda p: greedy_cc_majority(p, 5, 0.3),
        lambda p: metric_l1(make_cc(p, 3), BD, Assignment((1, 2, 3) * 20)),
        lambda p: metric_extreme(make_cc(p, 3), BI, Assignment((1, 2, 3) * 20), "max"),
        lambda p: metric_min_delta(make_cc(p, 3), BD, Assignment((1, 2, 3) * 20), 0.3),
    ],
    ids=["greedy_monroe", "greedy_cc", "greedy_cc_majority", "l1", "extreme", "min_delta"],
)
def test_greedy_solvers_and_metrics_read_only_the_orders(run):
    # The rank table is n x m; the greedy solvers and the metrics need only
    # the orders, and the cost tables that read the rank table stay unbuilt.
    prof = gen_impartial_culture(60, 12, 8)
    run(prof)
    assert prof._positions is None


# ------------------------------------------------------------- maxcover


def test_maxcover_single_seat_is_exact():
    prof = gen_impartial_culture(7, 4, 66)
    assert maxcover_cc_baseline(prof, 1).value == best_committee_value(
        prof, BD, 1, "cc"
    )


def test_maxcover_full_committee():
    prof = gen_impartial_culture(5, 4, 13)
    assert maxcover_cc_baseline(prof, 4).value == 5 * 3


def test_maxcover_example():
    prof = Profile.from_orders([(1, 2, 3), (1, 2, 3), (2, 3, 1), (3, 2, 1)])
    report = maxcover_cc_baseline(prof, 2)
    assert report.value == 7
    assert sorted(report.assignment.committee) == [1, 2]
    assert best_committee_value(prof, BD, 2, "cc") == 7


def test_maxcover_bound_on_sweep():
    rng = SplitMix64(94)
    for trial in range(30):
        n = 2 + rng.randrange(7)
        m = 2 + rng.randrange(4)
        k = 1 + rng.randrange(min(3, m))
        prof = gen_impartial_culture(n, m, derive_seed(94, trial))
        opt = exact_enumeration(make_cc(prof, k), BD, "l1_dec").value
        assert maxcover_cc_baseline(prof, k).value >= (1 - 1 / math.e) * opt


# ------------------------------------------------------- exact enumeration


def test_exact_identical_monroe_closed_form():
    prof = gen_identical(12, 8)
    report = exact_enumeration(make_monroe(prof, 4), BD, "l1_dec")
    assert report.value == 66  # 12 * 7 * (1 - 3/14)


def test_exact_identical_cc():
    prof = gen_identical(12, 8)
    report = exact_enumeration(make_cc(prof, 4), BD, "l1_dec")
    assert report.value == 84
    assert 1 in report.assignment.committee


def test_exact_cc_three_committees():
    prof = Profile.from_orders([(1, 2, 3), (2, 1, 3), (2, 3, 1)])
    per_committee = {
        c: best_matching_value(prof, BD, (c,), (0,), (3,), "l1_dec")
        for c in (1, 2, 3)
    }
    assert per_committee == {1: 3, 2: 5, 3: 1}
    report = exact_enumeration(make_cc(prof, 1), BD, "l1_dec")
    assert report.value == 5
    assert report.assignment.committee == frozenset({2})


def test_exact_full_committee_is_unconstrained_optimum():
    prof = gen_impartial_culture(6, 4, 71)
    report = exact_enumeration(make_cc(prof, 4), BD, "l1_dec")
    assert report.value == prof.n * (prof.m - 1)


def test_exact_all_four_objectives_against_oracle():
    rng = SplitMix64(95)
    for trial in range(12):
        n = 2 + rng.randrange(5)
        m = 2 + rng.randrange(3)
        k = 1 + rng.randrange(min(3, m))
        prof = gen_impartial_culture(n, m, derive_seed(95, trial))
        for system, make in (("monroe", make_monroe), ("cc", make_cc)):
            inst = make(prof, k)
            for objective, psf in (
                ("l1_dec", BD),
                ("l1_inc", BI),
                ("min_dec", BD),
                ("max_inc", BI),
            ):
                got = exact_enumeration(inst, psf, objective).value
                want = best_committee_value(prof, psf, k, system, objective)
                assert got == want, (system, objective, trial)


def test_exact_general_instance_against_subset_oracle():
    prof = Profile.from_orders(
        [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 2, 1), (1, 3, 2, 4), (4, 2, 1, 3)]
    )
    inst = Instance(
        profile=prof,
        costs=(3, 2, 2, 1),
        capacities=(2, 3, 2, 2),
        budget=4,
    )
    best = None
    for size in range(1, 5):
        for committee in combinations(range(1, 5), size):
            if sum(inst.costs[a - 1] for a in committee) > inst.budget:
                continue
            caps = tuple(inst.capacities[a - 1] for a in committee)
            value = best_matching_value(
                prof, BD, committee, (0,) * size, caps, "l1_dec"
            )
            if value is not None:
                best = value if best is None else max(best, value)
    report = exact_enumeration(inst, BD, "l1_dec")
    assert report.value == best


def test_exact_enumeration_cap():
    prof = gen_impartial_culture(6, 8, 3)
    with pytest.raises(EnumerationCapExceeded) as info:
        exact_enumeration(make_monroe(prof, 4), BD, "l1_dec", enumeration_cap=10)
    assert info.value.required == math.comb(8, 4)
    assert info.value.cap == 10
    with pytest.raises(EnumerationCapExceeded):
        exact_enumeration(make_monroe(prof, 4), BD, "l1_dec", enumeration_cap=0)


def test_exact_enumeration_caps_general_by_affordable_committees():
    # 21 alternatives, but unit costs and budget 1 leave 21 committees, far
    # under the default cap (2 ** 21 subsets would exceed it).
    prof = gen_impartial_culture(3, 21, 5)
    inst = Instance(profile=prof, costs=(1,) * 21, capacities=(3,) * 21, budget=1)
    report = exact_enumeration(inst, BD, "l1_dec")
    assert report.value == max(
        metric_l1(inst, BD, Assignment((a,) * 3)) for a in range(1, 22)
    )
    assert exact_enumeration(inst, BD, "l1_dec", enumeration_cap=21)
    with pytest.raises(EnumerationCapExceeded) as info:
        exact_enumeration(inst, BD, "l1_dec", enumeration_cap=20)
    assert str(info.value) == "exact enumeration needs more than 20 committees, cap is 20"
    assert info.value.required is None
    # Three unit costs fit the budget together: their 7 nonempty subsets
    # are the affordable committees, exactly.
    inst = Instance(
        profile=gen_impartial_culture(12, 6, 3), costs=(1, 1, 1, 100, 100, 100),
        capacities=(12,) * 6, budget=3,
    )
    assert exact_enumeration(inst, BD, "l1_dec", enumeration_cap=7)
    with pytest.raises(EnumerationCapExceeded):
        exact_enumeration(inst, BD, "l1_dec", enumeration_cap=6)


def test_budget_subsets_counts_affordable_committees_up_to_the_limit():
    rng = SplitMix64(5151)
    for _ in range(300):
        m = 1 + rng.randrange(9)
        costs = [1 + rng.randrange(5) for _ in range(m)]
        budget = 1 + rng.randrange(3 * m + 2)
        limit = 1 + rng.randrange(2 ** m + 2)
        affordable = sum(
            1
            for size in range(1, m + 1)
            for subset in combinations(costs, size)
            if sum(subset) <= budget
        )
        assert _budget_subsets(costs, budget, limit) == min(affordable, limit)
    # Wide instances are refused without walking their subsets.
    assert _budget_subsets((1,) * 1500, 1400, 2_000_001) == 2_000_001


def test_budget_subsets_refuses_distinct_large_costs_quickly(monkeypatch):
    # Sixty distinct costs up to 10**6 against a budget of 10**6: memo keys
    # rarely repeat, so counting the cheapest costs first walked about 2e6
    # subsets before passing the cap.  Largest first, the remaining cheap
    # costs soon fit whole and are counted at once.
    calls = []
    count = solvers._count_subsets

    def counted(*args):
        calls.append(None)
        return count(*args)

    monkeypatch.setattr(solvers, "_count_subsets", counted)
    costs = tuple(3**i % 1000003 + 1 for i in range(60))
    inst = Instance(
        profile=gen_identical(1, 60), costs=costs, capacities=(1,) * 60, budget=10**6
    )
    with pytest.raises(EnumerationCapExceeded) as info:
        exact_enumeration(inst, BD, "l1_dec")
    assert str(info.value) == "exact enumeration needs more than 2000000 committees, cap is 2000000"
    assert len(calls) < 100_000


def test_exact_objective_psf_pairing():
    prof = gen_identical(4, 3)
    with pytest.raises(ValueError):
        exact_enumeration(make_cc(prof, 1), BI, "l1_dec")
    with pytest.raises(ValueError):
        exact_enumeration(make_cc(prof, 1), BD, "max_inc")


def test_oracle_dominates_every_heuristic():
    rng = SplitMix64(96)
    for trial in range(20):
        n = 4 + rng.randrange(6)
        m = 3 + rng.randrange(3)
        k = 1 + rng.randrange(min(3, m))
        prof = gen_impartial_culture(n, m, derive_seed(96, trial))
        opt_m = exact_enumeration(make_monroe(prof, k), BD, "l1_dec").value
        opt_c = exact_enumeration(make_cc(prof, k), BD, "l1_dec").value
        assert greedy_monroe(prof, k).value <= opt_m
        assert greedy_cc(prof, k).value <= opt_c
        assert maxcover_cc_baseline(prof, k).value <= opt_c
        assert sample_once_monroe(prof, k, trial).value <= opt_m


def test_reports_reevaluate_to_their_value():
    prof = gen_impartial_culture(8, 5, 123)
    for report, inst in (
        (greedy_monroe(prof, 3), make_monroe(prof, 3)),
        (greedy_cc(prof, 3), make_cc(prof, 3)),
        (maxcover_cc_baseline(prof, 3), make_cc(prof, 3)),
        (sample_once_monroe(prof, 3, 9), make_monroe(prof, 3)),
    ):
        assert report.value == metric_l1(inst, BD, report.assignment)
