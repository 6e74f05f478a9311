import pytest

from tauforge.cartan import delta
from tauforge.catalogue import _FAMILIES, named_datum
from tauforge.rootsys import (
    bilinear,
    c_period,
    classify_positive_root,
    coxeter_data,
    enumerate_positive_roots,
    is_positive_root,
    simple_reflection,
)


def alpha(datum, k):
    return tuple(1 if v == k else 0 for v in datum.vertices)


# frozen oracle: independently recomputed Coxeter data for the two reference
# quivers, entered here by hand
A11_ORACLE = {
    "sequence": (2, 1),
    "c": ((3, -4), (1, -1)),
    "N": 1,
    "nu": (1, -2),
    "beta": ((0, 1), (1, 1)),       # ranks of P_2, P_1; dim H = 4 + 5 = 9
    "gamma": ((4, 1), (1, 0)),      # ranks of I_2, I_1
}

B3_ORACLE = {
    "sequence": (4, 3, 2, 1),
    "N": 3,
    "nu": (2, 0, 0, -2),
    "beta": ((0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 1, 2), (1, 1, 1, 2)),
    "gamma": ((2, 1, 1, 1), (2, 1, 1, 0), (2, 1, 0, 0), (1, 0, 0, 0)),
}


def test_a11_coxeter_oracle():
    datum = named_datum("A11")
    cd = coxeter_data(datum)
    assert cd.sequence == A11_ORACLE["sequence"]
    assert cd.N == A11_ORACLE["N"]
    assert cd.nu == A11_ORACLE["nu"]
    assert cd.beta == A11_ORACLE["beta"]
    assert cd.gamma == A11_ORACLE["gamma"]
    for v in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        want = tuple(sum(A11_ORACLE["c"][i][j] * v[j] for j in range(2)) for i in range(2))
        assert tuple(cd.c_apply(v)) == want


def test_b3_coxeter_oracle():
    cd = coxeter_data(named_datum("Bn", n=3))
    for key in ("sequence", "N", "nu", "beta", "gamma"):
        assert getattr(cd, key) == B3_ORACLE[key]


def test_c_fixes_delta():
    for family, n in [("A11", None), ("A12", None), ("Bn", 4), ("Cn", 3), ("BCn", 3),
                      ("BDn", 4), ("CDn", 4), ("F41", None), ("F42", None),
                      ("G21", None), ("G22", None), ("Atilde", 4)]:
        datum = named_datum(family, n=n) if n else named_datum(family)
        cd = coxeter_data(datum)
        dlt = delta(datum)
        assert tuple(cd.c_apply(dlt)) == dlt


def test_c_apply_by_squaring_equals_iterated_application():
    for family, row in sorted(_FAMILIES.items()):
        datum = named_datum(family, n=row.size[1] if row.size else None)
        cd = coxeter_data(datum)
        for v in [alpha(datum, k) for k in datum.vertices] + [delta(datum), cd.beta[-1]]:
            for sign in (1, -1):
                w = v
                for k in range(1, 41):
                    w = cd.c_apply(w, sign)
                    assert cd.c_apply(v, sign * k) == w
                assert cd.c_apply(w, -sign * 40) == v
            assert cd.c_apply(v, 0) == v


def test_delta_spans_radical_of_symmetrised_form():
    # the one-sided pairing is not symmetric, but its symmetrisation kills
    # delta against everything
    for family, n in [("Bn", 3), ("G21", None), ("F42", None), ("CDn", 4)]:
        datum = named_datum(family, n=n) if n else named_datum(family)
        dlt = delta(datum)
        assert bilinear(datum, dlt, dlt) == 0
        for i in datum.vertices:
            a = alpha(datum, i)
            assert bilinear(datum, dlt, a) + bilinear(datum, a, dlt) == 0


def test_simple_reflection_involution():
    datum = named_datum("F41")
    for k in datum.vertices:
        for v in [delta(datum), alpha(datum, k), (1, 0, 2, 0, 1)]:
            assert tuple(simple_reflection(datum, k, simple_reflection(datum, k, v))) == tuple(v)


def test_c_period_b3_simples():
    datum = named_datum("Bn", n=3)
    assert c_period(datum, alpha(datum, 2)) == 3
    assert c_period(datum, alpha(datum, 3)) == 3
    assert c_period(datum, alpha(datum, 1)) is None
    assert c_period(datum, alpha(datum, 4)) is None
    assert c_period(datum, delta(datum)) == 1


def test_g21_has_no_periodic_simples():
    datum = named_datum("G21")
    for i in datum.vertices:
        assert c_period(datum, alpha(datum, i)) is None


def test_enumeration_height_and_positivity():
    datum = named_datum("Bn", n=3)
    roots = enumerate_positive_roots(datum, 8)
    assert len(roots) == len(set(roots))
    for root in roots:
        assert 0 < sum(root) <= 8
        assert min(root) >= 0


def test_enumeration_respects_a_height_below_one():
    datum = named_datum("Bn", n=3)
    assert enumerate_positive_roots(datum, 0) == []
    assert enumerate_positive_roots(datum, -1) == []
    assert enumerate_positive_roots(datum, 1) == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


@pytest.mark.parametrize("family,n", [("Bn", 3), ("A11", None)])
def test_classification_is_a_partition(family, n):
    datum = named_datum(family, n=n) if n else named_datum(family)
    dlt = delta(datum)
    counts = {"preprojective": 0, "preinjective": 0, "regular": 0}
    for root in enumerate_positive_roots(datum, 12):
        status = is_positive_root(datum, root)
        assert status in ("real", "imaginary")
        is_imaginary = _delta_multiple(root, dlt)
        assert (status == "imaginary") == is_imaginary
        cls = classify_positive_root(datum, root)
        assert cls.kind in counts, "%s fell outside the trichotomy" % (root,)
        counts[cls.kind] += 1
    assert counts["regular"] > 0
    assert counts["preprojective"] > 0
    assert counts["preinjective"] > 0


def _delta_multiple(v, dlt):
    k = v[0] // dlt[0]
    return k > 0 and tuple(v) == tuple(k * x for x in dlt)


def test_non_roots_are_rejected():
    datum = named_datum("Bn", n=3)
    for v in [(1, 0, 0, 1), (2, 0, 0, 0), (1, 0, 1, 0)]:
        assert is_positive_root(datum, v) == "not_root"
        assert classify_positive_root(datum, v).kind == "not_root"


def test_preprojective_witness_matches_projective_rank():
    datum = named_datum("Bn", n=3)
    cd = coxeter_data(datum)
    beta_of_vertex = {cd.sequence[k]: cd.beta[k] for k in range(datum.n)}
    for root in enumerate_positive_roots(datum, 10):
        cls = classify_positive_root(datum, root)
        if cls.kind != "preprojective":
            continue
        assert tuple(cd.c_apply(root, cls.r)) == beta_of_vertex[cls.vertex]
