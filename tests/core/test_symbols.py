"""Unit tests for the symbol sorts and weak containment/equality."""

import pytest

from repro.core import (
    NULL,
    FreshValueSource,
    Name,
    Null,
    TaggedValue,
    Value,
    coerce_name,
    coerce_symbol,
    strip_null,
    weakly_contained,
    weakly_equal,
)


class TestSorts:
    def test_name_is_name(self):
        assert Name("Part").is_name
        assert not Name("Part").is_value
        assert not Name("Part").is_null

    def test_value_is_value(self):
        assert Value(50).is_value
        assert not Value(50).is_name

    def test_null_singleton(self):
        assert Null() is NULL
        assert NULL.is_null

    def test_name_requires_nonempty_string(self):
        with pytest.raises(ValueError):
            Name("")
        with pytest.raises(ValueError):
            Name(50)  # type: ignore[arg-type]

    def test_value_rejects_symbol_payload(self):
        with pytest.raises(TypeError):
            Value(Name("A"))

    def test_value_rejects_unhashable_payload(self):
        with pytest.raises(TypeError):
            Value([1, 2])

    def test_name_and_value_with_same_text_differ(self):
        assert Name("east") != Value("east")
        assert hash(Name("east")) != hash(Value("east"))

    def test_tagged_value_distinct_from_plain_value(self):
        assert TaggedValue(3) != Value(3)
        assert Value(3) != TaggedValue(3)

    def test_tagged_value_equality(self):
        assert TaggedValue(3) == TaggedValue(3)
        assert TaggedValue(3) != TaggedValue(4)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Name("A").text = "B"
        with pytest.raises(AttributeError):
            Value(1).payload = 2

    def test_equal_values_have_equal_sort_keys(self):
        # bool/int/float cross-equality must agree with sort keys.
        assert Value(True) == Value(1)
        assert Value(True).sort_key() == Value(1).sort_key()
        assert Value(2) == Value(2.0)
        assert Value(2).sort_key() == Value(2.0).sort_key()

    def test_unequal_numbers_never_tie(self):
        # float(2**53 + 1) == float(2**53), and float(10**400) overflows.
        numbers = [2**53, 2**53 + 1, 2.0**53 + 2, 1e308, 10**400]
        keys = [Value(n).sort_key() for n in numbers]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_total_order_across_sorts(self):
        symbols = [Value("z"), Name("a"), NULL, Value(1), TaggedValue(0)]
        ordered = sorted(symbols, key=lambda s: s.sort_key())
        assert ordered[0] is NULL
        assert isinstance(ordered[1], Name)

    def test_str_rendering(self):
        assert str(NULL) == "⊥"
        assert str(Name("Part")) == "Part"
        assert str(Value("east")) == "'east'"
        assert str(Value(50)) == "50"
        assert str(TaggedValue(7)) == "@7"


class TestCoercion:
    def test_coerce_symbol(self):
        assert coerce_symbol(None) is NULL
        assert coerce_symbol("east") == Value("east")
        assert coerce_symbol(50) == Value(50)
        assert coerce_symbol(Name("Part")) == Name("Part")

    def test_coerce_name(self):
        assert coerce_name("Part") == Name("Part")
        assert coerce_name(Name("Part")) == Name("Part")
        with pytest.raises(TypeError):
            coerce_name(50)


class TestWeakEquality:
    def test_strip_null(self):
        assert strip_null([NULL, Value(1), NULL]) == frozenset([Value(1)])

    def test_weak_containment_ignores_null(self):
        assert weakly_contained([NULL], [Value(1)])
        assert weakly_contained([Value(1), NULL], [Value(1)])
        assert not weakly_contained([Value(2)], [Value(1)])

    def test_weak_equality(self):
        assert weakly_equal([NULL], [])
        assert weakly_equal([Value(1), NULL], [Value(1)])
        assert not weakly_equal([Value(1)], [Value(2)])

    def test_weak_equality_is_equivalence_on_examples(self):
        a = [Value(1), NULL]
        b = [NULL, Value(1), NULL]
        c = [Value(1)]
        assert weakly_equal(a, a)
        assert weakly_equal(a, b) and weakly_equal(b, a)
        assert weakly_equal(a, b) and weakly_equal(b, c) and weakly_equal(a, c)


class TestFreshValueSource:
    def test_fresh_values_are_distinct(self):
        source = FreshValueSource()
        a, b = source.fresh(), source.fresh()
        assert a != b

    def test_advance_past(self):
        source = FreshValueSource()
        source.advance_past([TaggedValue(10), Value(99), Name("A")])
        assert source.fresh() == TaggedValue(11)

    def test_advance_past_ignores_lower_tags(self):
        source = FreshValueSource(start=5)
        source.advance_past([TaggedValue(1)])
        assert source.next_tag == 5
