"""Tests of the benchmark's reference computations.

Run from the root of the repository:

    python3 -m pytest perfbench -q

tauforge supplies the catalogue data and modules these tests feed in; the
properties themselves are checked with ``reference`` alone, and a few tests
cross-check the two.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
from tauforge import cartan, linalg, modrep, pathalg, rootsys, zoo  # noqa: E402
from workloads import plain_datum, plain_matrix, plain_module  # noqa: E402

P = 32003
FAMILIES = [("A11", None), ("A12", None), ("Bn", 3), ("Cn", 3), ("BCn", 3), ("BDn", 4),
            ("CDn", 4), ("F41", None), ("F42", None), ("G21", None), ("G22", None),
            ("Atilde", 4), ("Bn", 5), ("CDn", 6)]
CATALOGUE = [zoo.named_datum(f, n=n, m=m) for f, n in FAMILIES for m in (1, 2)]
IDS = [d.name for d in CATALOGUE]


@pytest.mark.parametrize("datum", CATALOGUE, ids=IDS)
def test_coxeter_fixes_delta(datum):
    D = plain_datum(datum)
    dlt = cartan.delta(datum)
    assert all(sum(D.c(i, j + 1) * dlt[j] for j in range(D.n)) == 0 for i in range(1, D.n + 1))
    assert ref.apply(ref.coxeter_matrix(D), dlt) == dlt
    assert ref.apply(ref.coxeter_inverse(D), dlt) == dlt


@pytest.mark.parametrize("datum", CATALOGUE, ids=IDS)
def test_coxeter_inverse_and_sink_order(datum):
    D = plain_datum(datum)
    order = ref.sink_order(D)
    assert sorted(order) == list(range(1, D.n + 1))
    for k, v in enumerate(order):
        # every arrow out of v ends at a vertex removed before v
        assert all(i in order[:k] for (i, j) in D.orientation if j == v)
    c, c_inv = ref.coxeter_matrix(D), ref.coxeter_inverse(D)
    for e in range(D.n):
        unit = tuple(int(t == e) for t in range(D.n))
        assert ref.apply(c, ref.apply(c_inv, unit)) == unit


@pytest.mark.parametrize("datum", CATALOGUE, ids=IDS)
def test_coxeter_matches_tauforge(datum):
    D = plain_datum(datum)
    assert ref.coxeter_matrix(D) == [list(r) for r in rootsys.coxeter_data(datum).c_matrix]


@pytest.mark.parametrize("datum", CATALOGUE[::2], ids=IDS[::2])
def test_coxeter_sends_projectives_to_minus_injectives(datum):
    F, D = ref.Scalars(), plain_datum(datum)
    field = linalg.Field.rational()
    c = ref.coxeter_matrix(D)
    for v in datum.vertices:
        p = ref.rank_vector(F, D, plain_module(F, pathalg.build_projective(datum, field, v)))
        i = ref.rank_vector(F, D, plain_module(F, pathalg.build_injective(datum, field, v)))
        assert ref.apply(c, p) == tuple(-x for x in i)


@pytest.mark.parametrize("datum", CATALOGUE, ids=IDS)
def test_symmetrised_form_is_DC(datum):
    D = plain_datum(datum)
    b = ref.bilinear_matrix(D)
    for r in range(D.n):
        for s in range(D.n):
            assert b[r][s] + b[s][r] == D.symmetriser[r] * D.cartan[r][s]
    assert ref.bilinear(D, cartan.delta(datum), cartan.delta(datum)) == 0


@pytest.mark.parametrize("datum", CATALOGUE, ids=IDS)
def test_form_matches_tauforge(datum):
    D = plain_datum(datum)
    units = [tuple(int(t == e) for t in range(D.n)) for e in range(D.n)]
    for a in units:
        for b in units:
            assert ref.bilinear(D, a, b) == rootsys.bilinear(datum, a, b)


def test_form_is_dim_hom_minus_dim_ext():
    datum = zoo.named_datum("Bn", n=3)
    field = linalg.Field.rational()
    F, D = ref.Scalars(), plain_datum(datum)
    mods = [M for _, M in zoo.module_battery(datum, field, 8)]
    for M in mods:
        for N in mods:
            rm = ref.rank_vector(F, D, plain_module(F, M))
            rn = ref.rank_vector(F, D, plain_module(F, N))
            assert modrep.hom_dim(M, N) - modrep.ext1_dim(M, N) == ref.bilinear(D, rm, rn)


@pytest.mark.parametrize("module_id,params", [
    ("Bn.Z", {"n": 3}), ("Bn.Y", {"n": 3}), ("CDn.Y", {"n": 4}), ("F41.T31", {}),
    ("G21.Y", {}), ("A11.homog", {"m": 2}), ("Bn.MlamB", {"n": 4, "lam": 3})])
@pytest.mark.parametrize("p", [None, P])
def test_relations_accept_catalogue_modules(module_id, params, p):
    field = linalg.Field.rational() if p is None else linalg.Field.prime(p)
    datum, M = zoo.build_named(module_id, field=field, **params)
    F = ref.Scalars(p)
    assert ref.check_relations(F, plain_datum(datum), plain_module(F, M)) == []
    assert ref.rank_vector(F, plain_datum(datum), plain_module(F, M)) is not None


def test_relations_reject_broken_modules():
    datum, M = zoo.build_named("Bn.Z", n=3)
    F, D = ref.Scalars(), plain_datum(datum)
    good = plain_module(F, M)
    key = next(k for k, a in sorted(good.arr.items()) if a.rows and good.dims[k[1]] > 1)
    a = good.arr[key]
    broken = ref.Module(good.dims, good.eps, dict(good.arr))
    rows = {i: dict(r) for i, r in a.rows.items()}
    rows.setdefault(0, {})[a.ncols - 1] = rows.get(0, {}).get(a.ncols - 1, 0) + 1
    broken.arr[key] = ref.Sparse(a.nrows, a.ncols, rows)
    assert ref.check_relations(F, D, broken)
    v = next(v for v in good.dims if good.dims[v] and D.d(v) == 1)
    n = good.dims[v]
    unipotent = ref.Module(good.dims, dict(good.eps), good.arr)
    unipotent.eps[v] = ref.identity(n)
    assert any("eps[%d]" % v in p for p in ref.check_relations(F, D, unipotent))


def test_rank_vector_rejects_non_free_vertex():
    datum = zoo.named_datum("Bn", n=3)     # d_2 = 2
    F, D = ref.Scalars(), plain_datum(datum)
    dims = {v: 0 for v in datum.vertices}
    dims[2] = 2
    eps = {v: ref.Sparse(dims[v], dims[v], {}) for v in datum.vertices}
    arr = {key: ref.Sparse(dims[key[0]], dims[key[1]], {}) for key in ref.arrow_keys(D)}
    M = ref.Module(dims, eps, arr)
    assert ref.check_relations(F, D, M) == []
    assert ref.rank_vector(F, D, M) is None           # eps = 0 on K^2: not free
    M.eps[2] = ref.Sparse(2, 2, {1: {0: 1}})
    assert ref.rank_vector(F, D, M) == (0, 1, 0, 0)


@pytest.mark.parametrize("p", [None, P])
def test_rank_matches_tauforge(p):
    rng = random.Random(7)
    F = ref.Scalars(p)
    field = linalg.Field.rational() if p is None else linalg.Field.prime(p)
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        k = rng.randint(1, min(m, n))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        dense = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        assert ref.rank(F, ref.from_dense(F, dense, (m, n))) == linalg.Mat.from_rows(field, dense).rank()


def _monomial(rng, F, n):
    """A random invertible monomial matrix and its inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [F.coerce(rng.choice([1, 2, 3, -1, -5])) for _ in range(n)]
    S = ref.Sparse(n, n, {perm[c]: {c: scale[c]} for c in range(n)})
    S_inv = ref.Sparse(n, n, {c: {perm[c]: F.inv(scale[c])} for c in range(n)})
    return S, S_inv


@pytest.mark.parametrize("p", [None, P])
def test_certificate_checker(p):
    field = linalg.Field.rational() if p is None else linalg.Field.prime(p)
    datum, rep = zoo.build_named("Bn.Y", n=3, field=field)
    F, D = ref.Scalars(p), plain_datum(datum)
    M = plain_module(F, rep)
    rng = random.Random(3)
    S, S_inv = {}, {}
    for v in datum.vertices:
        S[v], S_inv[v] = _monomial(rng, F, M.dims[v])
    N = ref.Module(dict(M.dims),
                   {v: ref.matmul(F, ref.matmul(F, S[v], e), S_inv[v]) for v, e in M.eps.items()},
                   {k: ref.matmul(F, ref.matmul(F, S[k[0]], a), S_inv[k[1]]) for k, a in M.arr.items()})
    assert ref.check_relations(F, D, N) == []
    assert ref.check_certificate(F, D, M, N, S) == []
    assert ref.check_certificate(F, D, N, M, S_inv) == []
    v = next(v for v in datum.vertices if M.dims[v] > 1)
    singular = {**S, v: ref.Sparse(M.dims[v], M.dims[v], {0: {0: 1}})}
    assert any("singular" in p for p in ref.check_certificate(F, D, M, N, singular))
    assert ref.check_certificate(F, D, M, M, S)        # S does not commute with M itself
    short = {**S, v: ref.identity(M.dims[v] - 1)}
    assert any("square" in p for p in ref.check_certificate(F, D, M, N, short))


def test_coboundary_test_detects_split_and_non_split():
    field = linalg.Field.prime(P)
    datum = zoo.named_datum("Bn", n=3)
    F, D = ref.Scalars(P), plain_datum(datum)
    P1 = pathalg.build_projective(datum, field, 1)
    from tauforge import artrans
    M = artrans.tau_inverse(P1).module
    basis = modrep.extension_cocycle_space(M, P1)
    plain = [{key: plain_matrix(F, mat) for key, mat in c.items()} for c in basis]
    pM, pN = plain_module(F, M), plain_module(F, P1)
    verdicts = [ref.is_coboundary(F, D, pM, pN, c) for c in plain]
    assert verdicts.count(False) > 0                  # Ext^1(tau^-1 P1, P1) != 0
    assert verdicts == [modrep.cocycle_is_coboundary(M, P1, c) for c in basis]
    zero = {key: ref.Sparse(m.nrows, m.ncols, {}) for key, m in plain[0].items()}
    assert ref.is_coboundary(F, D, pM, pN, zero)
    rng = random.Random(5)
    psi = {v: ref.from_dense(F, [[rng.randrange(P) for _ in range(pM.dims[v])]
                                 for _ in range(pN.dims[v])], (pN.dims[v], pM.dims[v]))
           for v in datum.vertices}
    exact = {("eps", v): ref.matmul(F, psi[v], pM.eps[v]) for v in datum.vertices}
    for key in pM.arr:
        lhs = ref.matmul(F, psi[key[0]], pM.arr[key])
        rhs = ref.matmul(F, pN.arr[key], psi[key[1]])
        neg = ref.Sparse(rhs.nrows, rhs.ncols, {i: {j: -x for j, x in r.items()} for i, r in rhs.rows.items()})
        exact[("arr", key)] = _add(F, lhs, neg)
    for v in datum.vertices:
        prod = ref.matmul(F, pN.eps[v], psi[v])
        neg = ref.Sparse(prod.nrows, prod.ncols, {i: {j: -x for j, x in r.items()} for i, r in prod.rows.items()})
        exact[("eps", v)] = _add(F, exact[("eps", v)], neg)
    assert ref.is_coboundary(F, D, pM, pN, exact)


def _add(F, A, B):
    rows = {i: dict(r) for i, r in A.rows.items()}
    for i, r in B.rows.items():
        tgt = rows.setdefault(i, {})
        for j, x in r.items():
            tgt[j] = F.reduce(tgt.get(j, 0) + x)
    rows = {i: {j: x for j, x in r.items() if x} for i, r in rows.items()}
    return ref.Sparse(A.nrows, A.ncols, {i: r for i, r in rows.items() if r})
