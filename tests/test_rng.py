"""SplitMix64 blocks and k-subsets: the same stream as one draw at a time."""

import pytest

from prefalloc.rng import SplitMix64, derive_seed, sample_distinct

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
