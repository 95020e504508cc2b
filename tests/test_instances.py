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
