"""SplitMix64 blocks and k-subsets: the same stream as one draw at a time."""

import pytest

from prefalloc.rng import SplitMix64, _acceptance_limit, derive_seed, sample_distinct

from oracles import sample_distinct_reference


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 1023, 1024, 1025])
def test_block_is_the_next_draws(seed, count):
    blocked, single = SplitMix64(seed), SplitMix64(seed)
    out = blocked.block(count)
    assert out.typecode == "Q"
    assert out.tolist() == [single.next_u64() for _ in range(count)]
    # The output mix is a bijection, so equal next draws mean equal states.
    assert blocked.next_u64() == single.next_u64()


def test_blocks_continue_the_stream():
    blocked, single = SplitMix64(99), SplitMix64(99)
    drawn = [blocked.next_u64()]
    for count in (3, 0, 5):
        drawn += blocked.block(count)
    drawn.append(blocked.randrange(7))
    expected = [single.next_u64() for _ in range(9)] + [single.randrange(7)]
    assert drawn == expected


def test_block_refuses_a_negative_size():
    with pytest.raises(ValueError):
        SplitMix64(1).block(-1)


def test_acceptance_limit_is_the_largest_multiple_of_the_bound():
    assert _acceptance_limit(1) == _acceptance_limit(2**32) == 2**64
    assert _acceptance_limit(3) == 2**64 - 1  # 2**64 leaves residue 1 mod 3
    assert _acceptance_limit(10) == 2**64 - 6
    assert _acceptance_limit(2**63 + 1) == 2**63 + 1


def test_randrange_skips_a_draw_at_or_above_the_limit():
    # Bound 2**63 + 1 fits into 2**64 once, so randrange rejects about half
    # the draws; seed 0's first draw is one of them, its second is kept.
    bound = 2**63 + 1
    first, second = SplitMix64(0).next_u64(), SplitMix64(0).block(2)[1]
    assert first == 16294208416658607535 >= bound > second
    assert SplitMix64(0).randrange(bound) == second == 7960286522194355700


@pytest.mark.parametrize("bound", [0, -1])
def test_randrange_refuses_a_bound_below_one(bound):
    with pytest.raises(ValueError, match=r"^randrange bound must be positive$"):
        SplitMix64(1).randrange(bound)


@pytest.mark.parametrize("m, k", [(30, 10), (2001, 2), (5, 5), (1, 1), (7, 0), (100, 37)])
def test_sample_distinct_matches_the_full_pool(m, k):
    for trial in range(20):
        fast = SplitMix64(derive_seed(m * 1000 + k, trial))
        slow = SplitMix64(derive_seed(m * 1000 + k, trial))
        assert sample_distinct(m, k, fast) == sample_distinct_reference(m, k, slow)
        assert fast.next_u64() == slow.next_u64()


def test_sample_distinct_matches_the_full_pool_on_random_sizes():
    rng = SplitMix64(7070)
    for _ in range(300):
        m = 1 + rng.randrange(60)
        k = rng.randrange(m + 1)
        seed = rng.next_u64()
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert sample_distinct(m, k, fast) == sample_distinct_reference(m, k, slow)
        assert fast.next_u64() == slow.next_u64()


def test_sample_distinct_domain():
    for m, k in [(3, 4), (3, -1), (0, 1)]:
        with pytest.raises(ValueError):
            sample_distinct(m, k, SplitMix64(0))
