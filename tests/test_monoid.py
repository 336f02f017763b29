"""Summary elements: construction, combination, order and rendering."""

from decimal import Decimal

import pytest

from tallyflow import (
    Kind,
    KindMismatch,
    MonoidElement,
    avg_of,
    count,
    fuse,
    fuse_all,
    leq,
    max_of,
    min_of,
    paccioli,
    set_of,
    sum_of,
    tuple_of,
)
from tallyflow.monoid import signed_legs, unit_for


D = Decimal


def test_count_adds():
    assert fuse(count(2), count(3)).payload == 5


def test_sum_adds_with_matching_unit():
    e = fuse(sum_of(D("1.5"), "kg"), sum_of(D("2.25"), "kg"))
    assert e.payload == D("3.75")
    assert e.unit == "kg"


def test_min_and_max_pick_extremes():
    assert fuse(min_of(D(5)), min_of(D(3))).payload == D(3)
    assert fuse(max_of(D(5)), max_of(D(3))).payload == D(5)


def test_avg_keeps_total_and_row_count():
    e = fuse(avg_of(D(10), 2), avg_of(D(2), 1))
    assert e.payload == (D(12), 3)
    assert e.mean() == D(4)


def test_avg_of_nothing_has_no_mean():
    assert unit_for(Kind.AVG).mean() is None


def test_set_unions():
    e = fuse(set_of({1, 2}), set_of({2, 3}))
    assert e.payload == frozenset({1, 2, 3})


def test_paccioli_adds_legs_without_netting():
    e = fuse(paccioli(D(10), D(0)), paccioli(D(0), D(4)))
    assert e.payload == (D(10), D(4))


def test_paccioli_of_signed_routes_by_sign():
    assert signed_legs(D(7)) == (D(7), D(0))
    assert signed_legs(D(-7)) == (D(0), D(7))
    assert paccioli(*signed_legs(D(0))).payload == (D(0), D(0))


def test_tuple_fuses_componentwise():
    a = tuple_of(count(1), sum_of(D(2)))
    b = tuple_of(count(4), sum_of(D(3)))
    e = fuse(a, b)
    assert e.payload[0].payload == 5
    assert e.payload[1].payload == D(5)


def test_cross_kind_fuse_is_rejected():
    with pytest.raises(KindMismatch):
        fuse(count(1), sum_of(D(1)))
    with pytest.raises(KindMismatch, match="cannot combine count with sum"):
        fuse_all([count(1), count(2), sum_of(D(1))], count(0))


def test_unit_clash_is_rejected():
    with pytest.raises(KindMismatch):
        fuse(sum_of(D(1), "kg"), sum_of(D(1), "lb"))
    with pytest.raises(KindMismatch, match="unit mismatch: 'kg' vs 'lb'"):
        fuse_all([sum_of(D(1), "kg"), sum_of(D(1), "lb")], sum_of(D(0), "kg"))
    with pytest.raises(KindMismatch):
        leq(min_of(D(1), "kg"), min_of(D(1), "lb"))


def test_tuple_length_clash_is_rejected():
    with pytest.raises(KindMismatch):
        fuse(tuple_of(count(1)), tuple_of(count(1), count(2)))
    with pytest.raises(KindMismatch, match="tuple arity mismatch: 1 vs 2"):
        fuse_all([tuple_of(count(1)), tuple_of(count(1), count(2))], tuple_of(count(0)))


@pytest.mark.parametrize("element", [
    count(3),
    sum_of(D("2.5"), "kg"),
    min_of(D(1)),
    max_of(D(9)),
    avg_of(D(7), 2),
    set_of({"a"}),
    paccioli(D(3), D(1), "$"),
    MonoidElement(Kind.SET, frozenset({"a"}), "ids"),
])
def test_unit_element_is_neutral_on_both_sides(element):
    e = unit_for(element.kind, element.unit)
    assert fuse(e, element) == element
    assert fuse(element, e) == element


def test_fuse_all_folds_from_a_start():
    for elements, start, payload in [
        ([], sum_of(D("1.5"), "kg"), D("1.5")),
        ([count(1), count(2), count(3)], count(0), 6),
        ([sum_of(D("1.5"), "kg"), sum_of(D("-0.25"), "kg")], sum_of(D(1), "kg"), D("2.25")),
        ([min_of(D(4)), min_of(D(-2)), min_of(D(7))], unit_for(Kind.MIN), D(-2)),
        ([max_of(D(4)), max_of(D(-2)), max_of(D(7))], unit_for(Kind.MAX), D(7)),
        ([avg_of(D(10), 2), avg_of(D(2), 1)], avg_of(D(3), 1), (D(15), 4)),
        ([MonoidElement(Kind.SET, frozenset({1, 2}), "ids"),
          MonoidElement(Kind.SET, frozenset({2, 3}), "ids")],
         MonoidElement(Kind.SET, frozenset({5}), "ids"), frozenset({1, 2, 3, 5})),
        ([paccioli(D(10), D(0), "$"), paccioli(D(0), D(4), "$")], paccioli(D(1), D(1), "$"),
         (D(11), D(5))),
        ([tuple_of(count(2), sum_of(D(1))), tuple_of(count(3), sum_of(D(-4)))],
         tuple_of(count(1), sum_of(D(0))), (count(6), sum_of(D(-3)))),
    ]:
        total = fuse_all(iter(elements), start)
        assert (total.kind, total.payload, total.unit) == (start.kind, payload, start.unit)


@pytest.mark.parametrize("a, b, c", [
    (count(1), count(2), count(3)),
    (sum_of(D("0.1")), sum_of(D("0.2")), sum_of(D("-0.3"))),
    (min_of(D(4)), min_of(D(1)), min_of(D(9))),
    (max_of(D(4)), max_of(D(1)), max_of(D(9))),
    (avg_of(D(1), 1), avg_of(D(2), 2), avg_of(D(3), 1)),
    (set_of({1}), set_of({2}), set_of({1, 3})),
    (paccioli(D(1), D(0)), paccioli(D(0), D(2)), paccioli(D(3), D(4))),
])
def test_fuse_is_associative_and_commutative(a, b, c):
    assert fuse(fuse(a, b), c) == fuse(a, fuse(b, c))
    assert fuse(a, b) == fuse(b, a)


@pytest.mark.parametrize("a", [min_of(D(2)), max_of(D(2)), set_of({1, 2})])
def test_idempotent_kinds_absorb_themselves(a):
    assert fuse(a, a) == a


def test_order_follows_the_numbers_for_count_sum_min():
    assert leq(count(1), count(2))
    assert not leq(count(2), count(1))
    assert leq(sum_of(D(1)), sum_of(D(2)))
    assert leq(min_of(D(1)), min_of(D(2)))


def test_max_order_is_reversed_so_fusing_moves_down():
    # combining via numeric max can only refine toward the bottom element
    assert leq(max_of(D(5)), max_of(D(3)))
    assert leq(fuse(max_of(D(3)), max_of(D(5))), max_of(D(3)))
    assert leq(fuse(max_of(D(3)), max_of(D(5))), max_of(D(5)))


def test_min_fuse_is_a_lower_bound_too():
    a, b = min_of(D(3)), min_of(D(5))
    assert leq(fuse(a, b), a)
    assert leq(fuse(a, b), b)


def test_set_order_is_containment():
    assert leq(set_of({1}), set_of({1, 2}))
    assert not leq(set_of({3}), set_of({1, 2}))


def test_componentwise_order_for_avg_and_paccioli():
    assert leq(avg_of(D(1), 1), avg_of(D(2), 2))
    assert not leq(avg_of(D(3), 1), avg_of(D(2), 2))
    assert leq(paccioli(D(1), D(1)), paccioli(D(2), D(1)))
    assert not leq(paccioli(D(2), D(0)), paccioli(D(1), D(9)))


@pytest.mark.parametrize("a, b, c, d", [
    (count(1), count(2), count(0), count(5)),
    (sum_of(D(1)), sum_of(D(2)), sum_of(D(-1)), sum_of(D(0))),
    (min_of(D(1)), min_of(D(4)), min_of(D(2)), min_of(D(7))),
    (max_of(D(9)), max_of(D(4)), max_of(D(5)), max_of(D(2))),
    (set_of({1}), set_of({1, 2}), set_of(()), set_of({5})),
])
def test_fusing_respects_the_order_on_both_sides(a, b, c, d):
    assert leq(a, b) and leq(c, d)
    assert leq(fuse(a, c), fuse(b, d))


def test_render_is_compact_text():
    assert count(3).render() == "3"
    assert sum_of(D("2.5000"), "kg").render() == "2.5 kg"
    assert avg_of(D(5), 2, "kg").render() == "2.5 kg (n=2)"
    assert unit_for(Kind.AVG).render() == "n/a (n=0)"
    assert set_of({"b", "a"}).render() == "{a, b}"
    assert paccioli(D(3), D(1), "$").render() == "dr 3 / cr 1 $"
    assert tuple_of(count(1), sum_of(D(2))).render() == "(1, 2)"


def test_large_amounts_render_without_exponents():
    assert sum_of(D("20000000.0000")).render() == "20000000"
    assert sum_of(D("1E+3")).render() == "1000"
