import random

import pytest

from support import basis_dim, format_mono, normalize_random, parse_path, unit
from tauforge.catalogue import named_datum
from tauforge.linalg import Field, Mat
from tauforge.modrep import rank_vector
from tauforge.pathalg import (
    _action,
    algebra_basis,
    arrow,
    build_injective,
    build_projective,
    loop,
    mono_mul,
    mono_target,
    normalize,
)
from tauforge.rootsys import coxeter_data

Q = Field.rational()


def test_dim_oracles():
    # hand-counted basis sizes
    assert basis_dim(named_datum("A11")) == 9
    assert basis_dim(named_datum("Bn", n=3)) == 18


def test_dim_matches_projective_ranks():
    for family, n in [("A11", None), ("A12", None), ("Bn", 3), ("G21", None),
                      ("G22", None), ("CDn", 4), ("F42", None)]:
        datum = named_datum(family, n=n) if n else named_datum(family)
        cd = coxeter_data(datum)
        expected = sum(datum.d(j) * beta[j - 1] for beta in cd.beta for j in datum.vertices)
        assert basis_dim(datum) == expected


def test_projective_and_injective_ranks():
    datum = named_datum("Bn", n=3)
    cd = coxeter_data(datum)
    for k, vertex in enumerate(cd.sequence):
        assert rank_vector(build_projective(datum, Q, vertex)) == cd.beta[k]
        assert rank_vector(build_injective(datum, Q, vertex)) == cd.gamma[k]


# crossing relations in verified instances, taken at the doubled symmetriser
# so both sides survive nilpotency; canonical forms must coincide
RELATION_CASES = [
    ("Bn", 3, "eps[2]^2 * a[2<-1]#1", "a[2<-1]#1 * eps[1]"),
    ("G21", None, "eps[3]^3 * a[3<-2]#1", "a[3<-2]#1 * eps[2]"),
    ("A11", None, "eps[2]^4 * a[2<-1]#1", "a[2<-1]#1 * eps[1]"),
    ("F41", None, "eps[4]^2 * a[4<-3]#1", "a[4<-3]#1 * eps[3]"),
    ("F41", None, "eps[4] * a[4<-5]#1", "a[4<-5]#1 * eps[5]"),
    ("F42", None, "eps[3]^2 * a[3<-4]#1", "a[3<-4]#1 * eps[4]"),
    ("BCn", 3, "eps[4]^2 * a[4<-3]#1", "a[4<-3]#1 * eps[3]"),
]


@pytest.mark.parametrize("family,n,lhs,rhs", RELATION_CASES)
def test_crossing_relations(family, n, lhs, rhs):
    doubled = named_datum(family, n=n, m=2) if n else named_datum(family, m=2)
    left = parse_path(doubled, lhs)
    right = parse_path(doubled, rhs)
    assert left is not None, "instance collapsed to zero at m=2"
    assert left == right
    # at the minimal symmetriser some instances vanish entirely, but the two
    # sides must still agree
    minimal = named_datum(family, n=n) if n else named_datum(family)
    assert parse_path(minimal, lhs) == parse_path(minimal, rhs)


def test_loop_nilpotency():
    datum = named_datum("Bn", n=3)
    for i in datum.vertices:
        assert parse_path(datum, "eps[%d]^%d" % (i, datum.d(i))) is None
        assert parse_path(datum, "eps[%d]^%d" % (i, datum.d(i) - 1)) is not None


def test_parallel_arrows_are_independent():
    datum = named_datum("A12")
    a1 = parse_path(datum, "a[2<-1]#1")
    a2 = parse_path(datum, "a[2<-1]#2")
    assert None not in (a1, a2) and a1 != a2


def test_parse_format_round_trip():
    datum = named_datum("G21", m=2)
    for text in ["eps[3]^2 * a[3<-2]#1 * a[2<-1]#1", "a[2<-1]#1 * eps[1]", "eps[2]"]:
        mono = parse_path(datum, text)
        assert mono is not None
        again = parse_path(datum, format_mono(mono))
        assert again == mono


def test_mono_mul_respects_composition():
    datum = named_datum("G21")
    a1 = arrow(datum, 2, 1)
    a2 = arrow(datum, 3, 2)
    prod = mono_mul(datum, a2, a1)
    assert prod == parse_path(datum, "a[3<-2]#1 * a[2<-1]#1")
    with pytest.raises(ValueError):
        mono_mul(datum, a1, a2)  # wrong ends is an error, not zero
    assert mono_mul(datum, unit(datum, 3), a2) == a2
    assert mono_mul(datum, loop(datum, 3, 2), loop(datum, 3, 1)) is None  # eps_3^3 = 0


def test_loop_checks_its_vertex():
    datum = named_datum("Bn", n=3)
    for v in (0, datum.n + 1):
        with pytest.raises(ValueError, match="no vertex"):
            loop(datum, v)
        with pytest.raises(ValueError, match="no vertex"):
            parse_path(datum, "eps[%d]" % v)


def _mult_matrix(datum, src, tgt, mono, end, left):
    """The matrix of y -> mono.y on paths(end, src) when ``left``, else of
    y -> y.mono on paths(tgt, end), read off the cells of ``_action``; mono
    runs from src to tgt, or is None, the zero path."""
    basis = algebra_basis(datum)
    if left:
        shape = (len(basis.paths(end, tgt)), len(basis.paths(end, src)))
    else:
        shape = (len(basis.paths(src, end)), len(basis.paths(tgt, end)))
    cells = dict.fromkeys(_action(datum, mono, end, left) if mono else (), 1)
    return Mat.from_dict(Q, shape, cells)


@pytest.mark.parametrize("family", ["Bn", "G21", "F41"])
def test_mult_matrix_matches_mono_mul(family):
    # the cells of multiplication by every basis monomial, one mono_mul per
    # basis path, on both sides at every end vertex
    datum = named_datum(family, n=3 if family == "Bn" else None)
    basis = algebra_basis(datum)
    for a in datum.vertices:
        for b in datum.vertices:
            for mono in basis.paths(a, b):
                for end in datum.vertices:
                    for left in (True, False):
                        cols = basis.paths(end, a) if left else basis.paths(b, end)
                        prods = [mono_mul(datum, mono, y) if left else mono_mul(datum, y, mono)
                                 for y in cols]
                        assert _action(datum, mono, end, left) == tuple(
                            (basis.index[prod], c) for c, prod in enumerate(prods) if prod is not None)


def test_indecomposables_are_fresh_modules():
    datum = named_datum("Bn", n=3)
    for build in (build_projective, build_injective):
        for v in datum.vertices:
            one, two = build(datum, Q, v), build(datum, Q, v)
            assert one == two
            assert one is not two
            assert not {id(one.dims), id(one.eps), id(one.arr)} & {id(two.dims), id(two.eps), id(two.arr)}


@pytest.mark.parametrize("family,n", [("Bn", 3), ("G21", None)])
def test_mult_matrices_compose(family, n):
    # L(z) is y -> z.y and R(z) is y -> y.z, so L(y.x) = L(y) L(x) and
    # R(y.x) = R(x) R(y) on paths to or from every end vertex
    datum = named_datum(family, n=n)
    basis = algebra_basis(datum)
    every = [p for a in datum.vertices for b in datum.vertices for p in basis.paths(a, b)]
    rng = random.Random(20261018)
    nonzero = 0
    for _ in range(40):
        x = rng.choice(every)
        y = rng.choice([p for c in datum.vertices for p in basis.paths(mono_target(x), c)])
        yx = mono_mul(datum, y, x)
        nonzero += yx is not None
        paths = {"x": (x.src, mono_target(x), x), "y": (y.src, mono_target(y), y),
                 "yx": (x.src, mono_target(y), yx)}
        for end in datum.vertices:
            L = {k: _mult_matrix(datum, *z, end, left=True) for k, z in paths.items()}
            R = {k: _mult_matrix(datum, *z, end, left=False) for k, z in paths.items()}
            assert L["yx"] == L["y"] @ L["x"]
            assert R["yx"] == R["x"] @ R["y"]
    assert nonzero >= 10


def _random_raw_path(datum, quiver_arrows, rng, max_len=4):
    src = rng.choice(list(datum.vertices))
    arrows = []
    v = src
    for _ in range(rng.randrange(max_len + 1)):
        outgoing = [key for key in quiver_arrows if key[1] == v]
        if not outgoing:
            break
        key = rng.choice(outgoing)
        arrows.append(key)
        v = key[0]
    verts = [src] + [key[0] for key in arrows]
    exps = [rng.randrange(2 * datum.d(u) + 2) for u in verts]
    return src, tuple(arrows), exps


@pytest.mark.parametrize("family,n", [("Bn", 3), ("G21", None), ("A12", None), ("F42", None)])
def test_rewrite_confluence(family, n):
    datum = named_datum(family, n=n) if n else named_datum(family)
    quiver_arrows = [(i, j, g) for (i, j) in datum.orientation
                     for g in range(1, datum.g(i, j) + 1)]
    rng = random.Random(20260814)
    for _ in range(400):
        src, arrows, exps = _random_raw_path(datum, quiver_arrows, rng)
        canonical = normalize(datum, src, arrows, list(exps))
        scrambled = normalize_random(datum, src, arrows, list(exps), rng)
        assert canonical == scrambled


def test_basis_paths_have_matching_ends():
    datum = named_datum("G22")
    basis = algebra_basis(datum)
    total = 0
    for src in datum.vertices:
        for tgt in datum.vertices:
            for mono in basis.paths(src, tgt):
                assert mono.src == src
                total += 1
    assert total == basis_dim(datum)
