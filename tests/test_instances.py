"""Instance constructors, profile generators, and the file grammar."""

from collections import Counter

import pytest

from prefalloc import (
    ParseError,
    Profile,
    gen_identical,
    gen_impartial_culture,
    general_instance,
    make_cc,
    make_monroe,
    parse_instance,
    write_instance,
)
from prefalloc.rng import SplitMix64, derive_seed

from oracles import shuffled

MASK64 = 2**64 - 1


def test_make_monroe_capacities():
    assert make_monroe(gen_identical(12, 6), 4).capacities == (3,) * 6
    one = make_monroe(gen_identical(9, 5), 1)
    assert one.capacities == (9,) * 5 and one.budget == 1
    assert make_monroe(gen_identical(10, 6), 4).capacities == (3,) * 6  # ceil(10/4)


def test_make_monroe_domain():
    prof = gen_identical(6, 4)
    with pytest.raises(ValueError):
        make_monroe(prof, 0)
    with pytest.raises(ValueError):
        make_monroe(prof, 5)


def test_make_cc_fields():
    prof = gen_impartial_culture(7, 4, 2)
    inst = make_cc(prof, 2)
    assert inst.costs == (1,) * 4
    assert inst.budget == 2
    assert inst.capacities == (7,) * 4
    assert make_cc(prof, 4).budget == 4


def test_gen_impartial_culture_determinism():
    a = gen_impartial_culture(10, 5, 7)
    b = gen_impartial_culture(10, 5, 7)
    assert a == b
    c = gen_impartial_culture(10, 5, 8)
    assert a != c


def test_gen_impartial_culture_single_alternative():
    prof = gen_impartial_culture(5, 1, 3)
    assert prof.orders == ((1,),) * 5


def _shuffle_stream(n, m, seed):
    """Orders of n shuffles of 1..m, one ``randrange`` at a time on one stream."""
    rng = SplitMix64(seed)
    return tuple(tuple(shuffled(range(1, m + 1), rng)) for _ in range(n))


# n=1, m=1 and m=2 at the edges, m=3000 with one agent's draws spanning
# blocks, then the benchmark's shapes.
@pytest.mark.parametrize("n, m", [
    (1, 6), (4, 1), (5, 2), (2, 3000), (60, 12), (12, 7), (150, 30), (1000, 40),
])
def test_gen_impartial_culture_is_the_shuffle_stream(n, m):
    for seed in (0, 5, MASK64):
        assert gen_impartial_culture(n, m, seed).orders == _shuffle_stream(n, m, seed)


def _unxorshift(y, shift):
    """Inverse of ``x -> x ^ (x >> shift)`` on 64-bit words."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _seed_drawing_max_at(position):
    """Seed whose draw ``position`` (0-based) is 2**64 - 1: SplitMix64's
    output mix inverted step by step, then ``position + 1`` increments
    taken off."""
    golden, mix1, mix2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    z = _unxorshift(MASK64, 31)
    z = _unxorshift(z * pow(mix2, -1, 2**64) & MASK64, 27)
    z = _unxorshift(z * pow(mix1, -1, 2**64) & MASK64, 30)
    return (z - (position + 1) * golden) & MASK64


# Draw 0 opens the stream, 1023 closes the first block of 1024, 1024 opens
# the second; n * (m - 1) = 1170 planned draws cover all three.
@pytest.mark.parametrize("position", [0, 1023, 1024])
def test_gen_impartial_culture_skips_the_draws_randrange_rejects(position):
    n, m = 30, 40
    seed = _seed_drawing_max_at(position)
    rng = SplitMix64(seed)
    for _ in range(position):
        rng.next_u64()
    assert rng.next_u64() == MASK64
    # The draw falls on the bound m - position % (m - 1), which does not
    # divide 2**64, so randrange rejects 2**64 - 1 there.
    assert 2**64 % (m - position % (m - 1)) != 0
    assert gen_impartial_culture(n, m, seed).orders == _shuffle_stream(n, m, seed)


def test_gen_impartial_culture_is_roughly_uniform():
    # 60000 draws over the 6 orders of m=3; each lands within 10000 +- 500
    prof = gen_impartial_culture(60000, 3, 20260808)
    counts = Counter(prof.orders)
    assert len(counts) == 6
    for order, count in counts.items():
        assert abs(count - 10000) <= 500, (order, count)


def test_gen_identical():
    prof = gen_identical(3, 2)
    assert prof.orders == ((1, 2),) * 3
    assert gen_identical(4, 4).orders[0] == (1, 2, 3, 4)


IC_INTEGERS = "n, m and seed must be integers"
IDENTICAL_INTEGERS = "n and m must be integers"
BELOW_ONE = "need n >= 1 and m >= 1"


@pytest.mark.parametrize(
    "generate, args, message",
    [
        pytest.param(gen_impartial_culture, (3, 3, True), IC_INTEGERS, id="ic-bool-seed"),
        pytest.param(gen_impartial_culture, (2.5, 3, 1), IC_INTEGERS, id="ic-float-n"),
        pytest.param(gen_impartial_culture, (3, 3, 1.0), IC_INTEGERS, id="ic-float-seed"),
        pytest.param(gen_impartial_culture, (3, True, 1), IC_INTEGERS, id="ic-bool-m"),
        pytest.param(gen_impartial_culture, (0, 3, 1), BELOW_ONE, id="ic-zero-n"),
        pytest.param(gen_identical, (2.5, 3), IDENTICAL_INTEGERS, id="identical-float-n"),
        pytest.param(gen_identical, (True, 3), IDENTICAL_INTEGERS, id="identical-bool-n"),
        pytest.param(gen_identical, (3, 0), BELOW_ONE, id="identical-zero-m"),
    ],
)
def test_generators_refuse_bad_sizes_and_seeds(generate, args, message):
    # A bool seed is not seed 1, and a float size is no count of agents.
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate(*args)


def test_write_then_parse_round_trip():
    rng = SplitMix64(3030)
    for trial in range(25):
        n = 1 + rng.randrange(12)
        m = 1 + rng.randrange(8)
        prof = gen_impartial_culture(n, m, derive_seed(3030, trial))
        assert parse_instance(write_instance(prof)).profile == prof


def test_round_trip_with_general_blocks():
    prof = gen_impartial_culture(4, 3, 5)
    text = write_instance(prof, costs=(2, 1, 3), caps=(2, 2, 2), budget=5)
    parsed = parse_instance(text)
    assert parsed.profile == prof
    assert parsed.costs == (2, 1, 3)
    assert parsed.caps == (2, 2, 2)
    assert parsed.budget == 5
    inst = general_instance(parsed)
    assert inst.system_tag == "general"
    assert inst.budget == 5


def test_write_refuses_blocks_the_parser_rejects():
    # Before the check this wrote a document that parse_instance refused
    # (line 4: block 'costs' has 2 entries, expected 3).
    with pytest.raises(ValueError, match="block 'costs' needs 3 positive integer entries"):
        write_instance(gen_identical(2, 3), costs=[0, 1], budget=-1)
    prof = gen_identical(2, 3)
    for bad in ([1, 2], [1, 2, 0], [1, 2.0, 3], [1, True, 3]):
        for block in ("costs", "caps"):
            with pytest.raises(ValueError, match=f"block '{block}' needs 3"):
                write_instance(prof, **{block: bad})
    for bad in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="block 'budget' needs one positive integer"):
            write_instance(prof, budget=bad)


def test_write_then_parse_round_trip_with_valid_blocks():
    rng = SplitMix64(4040)
    for trial in range(40):
        n, m = 1 + rng.randrange(6), 1 + rng.randrange(6)
        prof = gen_impartial_culture(n, m, derive_seed(4040, trial))
        costs = tuple(1 + rng.randrange(9) for _ in range(m)) if rng.randrange(2) else None
        caps = tuple(1 + rng.randrange(9) for _ in range(m)) if rng.randrange(2) else None
        budget = 1 + rng.randrange(20) if rng.randrange(2) else None
        parsed = parse_instance(write_instance(prof, costs, caps, budget))
        assert (parsed.profile, parsed.costs, parsed.caps, parsed.budget) == (
            prof, costs, caps, budget
        )


def test_parse_normalizes_comments_and_crlf():
    text = "# profile\r\n2 3 # header\r\n\r\n1 2 3\r\n3 2 1\r\n"
    parsed = parse_instance(text)
    assert parsed.profile.orders == ((1, 2, 3), (3, 2, 1))
    # write o parse is identity up to comment/whitespace normalization
    assert parse_instance(write_instance(parsed.profile)) == parsed


def test_parse_rejects_duplicate_index():
    with pytest.raises(ParseError) as info:
        parse_instance("1 3\n1 1 2\n")
    assert info.value.line == 2
    assert "duplicate" in str(info.value)


def test_parse_rejects_zero_agents():
    with pytest.raises(ParseError) as info:
        parse_instance("0 5\n")
    assert info.value.line == 1


def test_parse_rejects_malformed_header():
    with pytest.raises(ParseError):
        parse_instance("three 4\n1 2 3 4\n")
    with pytest.raises(ParseError):
        parse_instance("2\n1 2\n2 1\n")
    with pytest.raises(ParseError):
        parse_instance("")


def test_parse_rejects_wrong_line_length():
    with pytest.raises(ParseError) as info:
        parse_instance("2 3\n1 2 3\n1 2\n")
    assert info.value.line == 3
    assert "expected 3" in str(info.value)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ParseError) as info:
        parse_instance("1 3\n1 5 2\n")
    assert info.value.line == 2
    assert "out of range" in str(info.value)


def test_parse_order_tokens_as_int_reads_them():
    # the first token that is no integer is named, ahead of a range error
    for line in ("1 x 2", "5 x 2"):
        with pytest.raises(ParseError) as info:
            parse_instance(f"2 3\n1 2 3\n{line}\n")
        assert info.value.line == 3
        assert str(info.value) == "line 3: order line: 'x' is not an integer"
    assert parse_instance("1 3\n+1 02 3\n").profile.orders == ((1, 2, 3),)


def test_parse_rejects_missing_orders():
    with pytest.raises(ParseError):
        parse_instance("3 2\n1 2\n2 1\n")  # only two of three orders, no blocks


def test_parse_rejects_bad_blocks():
    base = "2 2\n1 2\n2 1\n"
    with pytest.raises(ParseError):
        parse_instance(base + "prices: 1 1\n")
    with pytest.raises(ParseError):
        parse_instance(base + "costs: 1\n")
    with pytest.raises(ParseError):
        parse_instance(base + "budget: 2\nbudget: 3\n")
    with pytest.raises(ParseError):
        parse_instance(base + "caps: 0 1\n")
    # agents count once: the grammar has no weights block
    with pytest.raises(ParseError, match="unknown trailing block") as info:
        parse_instance(base + "weights: 1 1\n")
    assert info.value.line == 4


def test_written_files_use_lf():
    text = write_instance(gen_identical(2, 2))
    assert "\r" not in text
    assert text.endswith("\n")


def test_generator_outputs_are_valid_profiles():
    rng = SplitMix64(4040)
    for trial in range(10):
        n = 1 + rng.randrange(20)
        m = 1 + rng.randrange(9)
        prof = gen_impartial_culture(n, m, derive_seed(4040, trial))
        assert isinstance(prof, Profile)  # constructor re-validates permutations
        make_monroe(prof, 1 + rng.randrange(m))
