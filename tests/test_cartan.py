from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauforge.cartan import (
    CartanDatum,
    DatumError,
    admissible_sequence,
    datum_from_json,
    datum_to_json,
    delta,
    opposite_datum,
    reflect_orientation,
    validate_datum,
)
from tauforge.catalogue import _cartan, named_datum


DELTA_TABLE = [
    ("A11", None, (2, 1)),
    ("A12", None, (1, 1)),
    ("Bn", 3, (1, 1, 1, 1)),
    ("Bn", 4, (1, 1, 1, 1, 1)),
    ("Bn", 5, (1, 1, 1, 1, 1, 1)),
    ("Cn", 3, (1, 2, 2, 1)),
    ("BCn", 3, (2, 2, 2, 1)),
    ("BDn", 4, (1, 1, 2, 2, 2)),
    ("CDn", 4, (1, 1, 2, 2, 1)),
    ("F41", None, (1, 2, 3, 2, 1)),
    ("F42", None, (1, 2, 3, 4, 2)),
    ("G21", None, (1, 2, 1)),
    ("G22", None, (1, 2, 3)),
    ("Atilde", 4, (1, 1, 1, 1)),
]


@pytest.mark.parametrize("family,n,expected", DELTA_TABLE)
def test_delta(family, n, expected):
    datum = named_datum(family, n=n) if n else named_datum(family)
    assert delta(datum) == expected


@pytest.mark.parametrize("family,n,expected", DELTA_TABLE)
def test_delta_scales_with_symmetriser_not_kernel(family, n, expected):
    # the kernel generator is independent of the symmetriser multiple
    datum = named_datum(family, n=n, m=2) if n else named_datum(family, m=2)
    assert delta(datum) == expected


def test_rejects_asymmetrisable():
    with pytest.raises(DatumError):
        validate_datum(((2, -2, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
                       (1, 1, 2, 1), ((2, 1), (3, 2), (4, 3)))


def test_rejects_bad_diagonal():
    with pytest.raises(DatumError):
        validate_datum(((1, -1), (-1, 2)), (1, 1), ((2, 1),))


def test_rejects_positive_offdiagonal():
    with pytest.raises(DatumError):
        validate_datum(((2, 1), (1, 2)), (1, 1), ((2, 1),))


def test_rejects_cyclic_orientation():
    cartan = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    with pytest.raises(DatumError, match="oriented cycle"):
        validate_datum(cartan, (1, 1, 1), ((2, 1), (3, 2), (1, 3)))


def test_thousand_vertex_chain_validates():
    # the acyclicity check must not recurse once per vertex
    n = 1000
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    datum = validate_datum(cartan, [1] * n, [(k + 1, k) for k in range(1, n)])
    assert admissible_sequence(datum) == tuple(range(n, 0, -1))


def test_rejects_orientation_missing_edge():
    with pytest.raises(DatumError):
        validate_datum(((2, -1, 0), (-1, 2, -3), (0, -1, 2)), (1, 1, 3), ((2, 1),))


def test_gcd_decomposition():
    g21 = named_datum("G21")
    assert g21.g(2, 3) == 1
    assert g21.f(2, 3) == 3  # absorbed at the thick vertex
    assert g21.f(3, 2) == 1
    a12 = named_datum("A12")
    assert a12.g(1, 2) == 2
    assert a12.f(1, 2) == a12.f(2, 1) == 1


def test_admissible_sequence_is_sink_first():
    for family, n in [("Bn", 3), ("CDn", 4), ("F41", None), ("G22", None), ("Atilde", 5)]:
        datum = named_datum(family, n=n) if n else named_datum(family)
        seq = admissible_sequence(datum)
        assert sorted(seq) == list(datum.vertices)
        cur = datum
        for k in seq:
            assert cur.is_sink(k)
            cur = reflect_orientation(cur, k)
        # a full sweep restores the orientation
        assert cur.orientation == datum.orientation


def test_b3_sequence_oracle():
    assert admissible_sequence(named_datum("Bn", n=3)) == (4, 3, 2, 1)


def test_reflect_orientation_involution_and_anonymity():
    datum = named_datum("F41")
    once = reflect_orientation(datum, 4)
    assert once.name == ""
    assert once.orientation != datum.orientation
    twice = reflect_orientation(once, 4)
    assert twice == datum  # equality ignores names


def test_opposite_datum():
    datum = named_datum("G22")
    opp = opposite_datum(datum)
    assert set(opp.orientation) == {(j, i) for (i, j) in datum.orientation}
    assert delta(opp) == delta(datum)


def test_opposite_datum_is_built_once_per_datum_and_name():
    # the name takes no part in equality, so a cache keyed on the datum
    # alone would hand the renamed datum the opposite named "G22.op"
    datum = named_datum("G22")
    renamed = CartanDatum(datum.cartan, datum.symmetriser, datum.orientation, datum.affine_kernel)
    assert opposite_datum(datum) is opposite_datum(named_datum("G22"))
    assert opposite_datum(datum).name == "G22.op"
    assert opposite_datum(renamed).name == ""
    assert opposite_datum(renamed) == opposite_datum(datum)


def test_a_datum_cannot_be_changed():
    datum = named_datum("G22")
    with pytest.raises(AttributeError):
        datum.name = "other"
    with pytest.raises(AttributeError):
        datum.extra = 1
    with pytest.raises(AttributeError):
        del datum.cartan
    assert datum.name == "G22"


def test_data_that_differ_only_in_name_are_equal_and_hash_equal():
    datum = named_datum("Bn", n=3)
    renamed = CartanDatum(datum.cartan, datum.symmetriser, datum.orientation, datum.affine_kernel, "other")
    assert renamed == datum and hash(renamed) == hash(datum)
    assert reflect_orientation(datum, 1) != datum


def test_json_round_trip():
    for family, n in [("Bn", 4), ("BCn", 3), ("F42", None)]:
        datum = named_datum(family, n=n) if n else named_datum(family)
        assert datum_from_json(datum_to_json(datum)) == datum


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cartan_of_a_symmetriser_and_valued_tree_is_a_datum_with_those_arrows(data):
    # a random tree on up to 6 vertices, each edge oriented either way and
    # carrying g arrows: C = -g d_j / gcd(d_i, d_j) off the diagonal
    size = data.draw(st.integers(2, 6))
    sym = tuple(data.draw(st.lists(st.integers(1, 4), min_size=size, max_size=size)))
    edges = []
    for v in range(2, size + 1):
        u = data.draw(st.integers(1, v - 1))
        i, j = (u, v) if data.draw(st.booleans()) else (v, u)
        edges.append((i, j, data.draw(st.sampled_from((1, 2, 3)))))
    datum = validate_datum(_cartan(sym, edges), sym, [edge[:2] for edge in edges])
    for i, j, g in edges:
        for a, b in ((i, j), (j, i)):
            assert datum.g(a, b) == g
            assert datum.f(a, b) == sym[b - 1] // gcd(sym[a - 1], sym[b - 1])
