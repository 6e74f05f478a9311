"""Exact matrices: fields, primality, and every ``Mat`` operation against
sympy's ``DomainMatrix``, which the tests keep as the reference."""

import random
from fractions import Fraction
from itertools import islice

import pytest
from sympy import GF, QQ
from sympy import isprime as sympy_isprime
from sympy.polys.matrices import DomainMatrix

from tauforge.artrans import tau, tau_inverse, tau_walk
from tauforge.cartan import admissible_sequence
from tauforge.catalogue import named_datum
from tauforge.linalg import _NEG_UNITS, _UNITS, _ZEROS, Field, Mat, _neg_unit, _unit, isprime
from tauforge.modrep import cocycle_is_coboundary, end_analysis, extension_cocycle_space, hom_basis
from tauforge.pathalg import build_injective, build_projective
from tauforge.reflect import counit, reflect_minus, reflect_plus
from tauforge.zoo import module_battery

PRIMES = (2, 3, 7, 101, 32003, 2**31 - 1)
FIELDS = [Field.rational()] + [Field.prime(p) for p in PRIMES]

# OEIS A002997: every Carmichael number below 10**6
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
    52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
    252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
    488881, 512461, 530881, 552721, 656601, 658801, 670033, 748657, 825265,
    838201, 852841, 997633,
)


def _scalar(rng, field):
    """A random nonzero scalar; over QQ often a non-integral one."""
    if field.p is not None:
        return rng.randrange(1, field.p)
    num = rng.choice((-3, -2, -1, 1, 2, 3, 7))
    return Fraction(num, rng.choice((1, 1, 2, 3, 5))) if rng.random() < 0.5 else num


def _random_matrix(rng, field, m, n, density):
    p = field.p
    entries = {(i, j): _scalar(rng, field)
               for i in range(m) for j in range(n) if rng.random() < density}
    if m >= 3 and rng.random() < 0.5:
        # make the last row a combination of two others: rank-deficient
        if p is None:
            a, b = _scalar(rng, field), rng.choice((0, 1, Fraction(-1, 2)))
        else:
            a, b = rng.randrange(1, p), rng.randrange(p)
        for j in range(n):
            v = a * entries.get((0, j), 0) + b * entries.get((1, j), 0)
            entries[(m - 1, j)] = v if p is None else v % p
    return Mat.from_dict(field, (m, n), entries)


def _cases(rng, field):
    yield Mat.zeros(field, 0, 5)
    yield Mat.zeros(field, 5, 0)
    yield Mat.zeros(field, 0, 0)
    yield Mat.zeros(field, 4, 6)
    yield Mat.identity(field, 6)
    yield Mat.identity(field, 4).hstack(_random_matrix(rng, field, 4, 3, 0.6))
    for _ in range(60):
        m, n = rng.randint(0, 14), rng.randint(0, 14)
        yield _random_matrix(rng, field, m, n, rng.choice((0.1, 0.3, 0.6, 1.0)))


def _dm(A):
    """The DomainMatrix of A, built from ``A.rows()``."""
    K = QQ if A.field.p is None else GF(A.field.p)
    conv = (lambda x: K(x.numerator, x.denominator)) if A.field.p is None else K
    data = {}
    for i, row in enumerate(A.rows()):
        r = {j: conv(x) for j, x in enumerate(row) if x}
        if r:
            data[i] = r
    return DomainMatrix(data, A.shape, K)


def _rows(D, field):
    """Dense rows of a DomainMatrix as the scalars ``Mat.rows()`` returns."""
    m, n = D.shape
    if field.p is None:
        out = [[Fraction(0)] * n for _ in range(m)]
        conv = lambda e: Fraction(int(e.numerator), int(e.denominator))  # noqa: E731
    else:
        out = [[0] * n for _ in range(m)]
        conv = lambda e: int(e) % field.p  # noqa: E731
    for i, row in D.to_sparse().rep.to_sdm().items():
        for j, e in row.items():
            out[i][j] = conv(e)
    return out


def _same(got, D):
    """``got`` holds the matrix D: the same scalars, and equal to a Mat
    built from them, so its stored form is the canonical one."""
    want = _rows(D, got.field)
    assert got.shape == D.shape
    assert got.rows() == want
    assert got == Mat.from_rows(got.field, want, D.shape)


def _field_id(field):
    return repr(field)


@pytest.mark.parametrize("p", PRIMES)
def test_gfp_nullspace_is_sympy_basis(p):
    field = Field.prime(p)
    rng = random.Random(1000 + p)
    for A in _cases(rng, field):
        got = A.nullspace_cols()
        want = _dm(A).nullspace().transpose()
        assert got.shape == want.shape
        assert got.rows() == _rows(want, field)
        assert (A @ got).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_elimination_matches_domain_matrix(field):
    rng = random.Random(2000 + (field.p or 0))
    for A in _cases(rng, field):
        D = _dm(A)
        assert A.rank() == D.rank()
        R, piv = A.rref()
        DR, Dpiv = D.rref()
        assert piv == tuple(Dpiv)
        _same(R, DR)
        N = A.nullspace_cols()
        _same(N, D.nullspace().transpose())
        assert (A @ N).is_zero()
        m, n = A.shape
        k = rng.randint(1, 3)
        consistent = A @ _random_matrix(rng, field, n, k, 0.5)
        for rhs in (consistent, _random_matrix(rng, field, m, k, 0.5)):
            # the solution the old DomainMatrix code read off rref([A | rhs])
            aug_R, aug_piv = D.hstack(_dm(rhs)).rref()
            X = A.solve(rhs)
            if any(j >= n for j in aug_piv):
                assert X is None
                assert rhs is not consistent
                continue
            sdm = aug_R.to_sparse().rep.to_sdm()
            want = DomainMatrix({j: {c - n: e for c, e in sdm.get(r, {}).items() if c >= n}
                                 for r, j in enumerate(aug_piv)}, (n, k), D.domain)
            _same(X, want)
            assert A @ X == rhs


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(32003)], ids=_field_id)
def test_basis_coords_agree_with_solve(field):
    # B = A.nullspace_cols() has full column rank, so B @ X = Y has at most
    # one solution: the read-off and solve give it, or both give None
    rng = random.Random(4000 + (field.p or 0))
    cases = [Mat.identity(field, 5), Mat.zeros(field, 3, 6)]       # zero and full kernel
    cases += [_random_matrix(rng, field, rng.randint(0, 9), rng.randint(1, 12),
                             rng.choice((0.1, 0.3, 0.6))) for _ in range(60)]
    outside = 0
    for A in cases:
        B = A.nullspace_cols()
        n, r = B.shape
        k = rng.randint(1, 3)
        X0 = _random_matrix(rng, field, r, k, 0.5)
        assert B._coords(B._read_off(), B @ X0) == X0 == B.solve(B @ X0)
        Y = _random_matrix(rng, field, n, k, 0.5)
        X = B._coords(B._read_off(), Y)
        assert X == B.solve(Y)
        outside += X is None
    assert outside >= 20


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(32003)], ids=_field_id)
def test_basis_coords_checks_every_pivot_row(field):
    # Y agrees with B @ X0 on the free rows of B (row free[k] is den * e_k),
    # which fix the read-off X = X0, and differs on one other row
    rng = random.Random(4100 + (field.p or 0))
    tried = 0
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(2, 10)
        A = _random_matrix(rng, field, m, n, rng.choice((0.3, 0.6)))
        B = A.nullspace_cols()
        n, r = B.shape
        rows = B.rows()
        free = {max(i for i in range(n) if rows[i][k]) for k in range(r)}
        X0 = _random_matrix(rng, field, r, 2, 0.5)
        for i in sorted(set(range(n)) - free):
            bump = Mat.from_dict(field, (n, 2), {(i, rng.randrange(2)): _scalar(rng, field)})
            Y = B @ X0 + bump
            assert B._coords(B._read_off(), Y) is None
            tried += 1
    assert tried >= 40


@pytest.mark.parametrize("field", FIELDS, ids=_field_id)
def test_arithmetic_matches_domain_matrix(field):
    rng = random.Random(3000 + (field.p or 0))
    for _ in range(40):
        m, n, k = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        density = rng.choice((0.2, 0.6, 1.0))
        A, B = (_random_matrix(rng, field, m, n, density) for _ in range(2))
        C = _random_matrix(rng, field, n, k, density)
        E = _random_matrix(rng, field, m, k, density)
        F = _random_matrix(rng, field, k, n, density)
        DA, DB, DC, DE, DF = map(_dm, (A, B, C, E, F))
        _same(A @ C, DA.matmul(DC))
        _same(A + B, DA + DB)
        _same(A - B, DA - DB)
        _same(A - A, DA - DA)
        _same(-A, -DA)
        _same(A.transpose(), DA.transpose())
        _same(A.hstack(E, B), DA.hstack(DE, DB))
        a = rng.randint(0, m)
        b = rng.randint(a, m)
        _same(A.row_slice(a, b), DA[a:b, :])
        grid = {(0, 0): A, (1, 1): F, (0, 1): E}
        want = DA.hstack(DE).vstack(DomainMatrix.zeros((k, n), DA.domain).hstack(_dm(F @ C)))
        got = Mat.block(field, {**grid, (1, 1): F @ C}, [m, k], [n, k])
        _same(got, want)
    with pytest.raises(ValueError):
        Mat.zeros(field, 2, 3) @ Mat.zeros(field, 2, 3)
    with pytest.raises(ValueError):
        Mat.zeros(field, 2, 3).row_slice(1, 3)


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(3), Field.prime(32003)], ids=_field_id)
def test_powers_are_repeated_products(field):
    rng = random.Random(3100 + (field.p or 0))
    for _ in range(20):
        n, k = rng.randint(0, 5), rng.randint(1, 5)
        A = _random_matrix(rng, field, n, n, rng.choice((0.3, 0.7)))
        want = [A]
        for _ in range(k - 1):
            want.append(want[-1] @ A)
        assert A.powers(k) == want
        assert A.powers(0) == []
    with pytest.raises(ValueError):
        Mat.identity(field, 2).powers(-1)
    with pytest.raises(ValueError):
        Mat.zeros(field, 2, 3).powers(1)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 32004, 2**31 - 3])
def test_prime_field_refuses_non_prime(p):
    with pytest.raises(ValueError):
        Field.prime(p)
    with pytest.raises(ValueError):
        Field.from_json({"kind": "prime", "p": p})


def test_isprime_agrees_with_sympy():
    # the last one, 8589937621 * 17179875241 > 2**64, passes Miller-Rabin to
    # base 2, so only the Lucas half of Baillie-PSW can refuse it
    strong_pseudoprimes = (2047, 3215031751, 3825123056546413051, 147574056656752341661)
    mersenne = [2**e - 1 + d for e in (61, 89, 127) for d in (-2, 0, 2)]
    for n in [*range(10**5), *CARMICHAEL, *strong_pseudoprimes, *mersenne]:
        assert isprime(n) == sympy_isprime(n), n
    assert not any(isprime(n) for n in CARMICHAEL + strong_pseudoprimes)
    assert all(isprime(2**e - 1) for e in (61, 89, 127))


def test_prime_field_refuses_fraction_with_denominator_p():
    field = Field.prime(5)
    assert field.convert(Fraction(3, 4)) == 2
    with pytest.raises(ValueError):
        field.convert(Fraction(1, 10))


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(7)], ids=_field_id)
@pytest.mark.parametrize("value", [1.5, 2.0, True, "1/0", None])
def test_convert_refuses_inexact_scalars(field, value):
    with pytest.raises(ValueError):
        field.convert(value)


def test_from_rows_checks_the_row_count():
    Q = Field.rational()
    for rows in ([[0]], [[0], [1], [2]], []):
        with pytest.raises(ValueError, match="matrix rows"):
            Mat.from_rows(Q, rows, (2, 1))
    assert Mat.from_rows(Q, [[0], [1]], (2, 1)).shape == (2, 1)


# ---------------------------------------------------------------------------
# The shared unit rows and zero matrices


def _minus_one(field):
    return -1 if field.p is None else field.p - 1


def _unit_rows(maps):
    """``(row, table row)`` for each row {k: 1} or {k: -1} of the given
    matrices, -1 being p - 1 over GF(p), the table row being ``_unit(k)``
    or ``_neg_unit(k, p)`` of the matrix's field."""
    return [(row, _unit(k) if v == 1 else _neg_unit(k, m.field.p))
            for m in maps for row in m._data.values()
            if len(row) == 1 for k, v in row.items() if v in (1, _minus_one(m.field))]


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(7)], ids=_field_id)
def test_constructors_take_unit_rows_from_the_table(field):
    A = Mat.from_rows(field, [[1, 0, 2, 0], [0, 0, 0, 1], [2, 0, 4, 0]])
    for M in (Mat.identity(field, 4), A.rref()[0], A.transpose(), A.nullspace_cols()):
        units = _unit_rows([M])
        assert units and all(row is table for row, table in units)
    # x1 + x2 = 0: over QQ the kernel's pivot row is {1: -1}
    B = Mat.from_rows(field, [[0, 1, 1]]).nullspace_cols()
    if field.p is None:
        assert B._data[1] is _neg_unit(1)
    else:
        assert B._data[1] == {1: 6}


def test_zeros_is_one_matrix_per_field_and_shape():
    Q, F = Field.rational(), Field.prime(7)
    Z = Mat.zeros(Q, 2, 3)
    assert Z is Mat.zeros(Field.rational(), 2, 3)
    assert Z.shape == (2, 3) and Z.is_zero()
    assert Mat.zeros(F, 2, 3) is not Z and Mat.zeros(Q, 3, 2) is not Z
    A = Mat.from_rows(Q, [[1, 2, 0], [0, 1, 1]])
    assert (A - A) is Z and A.scale(0) is Z and Mat.zeros(Q, 2, 2) @ A is Z
    assert Z.transpose() is Mat.zeros(Q, 3, 2)


def test_a_tau_inverse_walk_keeps_only_shared_unit_rows():
    # every module of the walk is the transpose of a kernel read off a
    # canonical basis, so each of its unit rows is the table's, and each of
    # its zero maps is the one zero matrix of its shape
    Q = Field.rational()
    P1 = build_projective(named_datum("A11"), Q, 1)
    mods = list(islice(tau_walk(P1, tau_inverse), 10))
    assert len(mods) == 10
    maps = [m for M in mods for m in (*M.eps.values(), *M.arr.values())]
    units = _unit_rows(maps)
    assert units and all(row is table for row, table in units)
    assert any(v == -1 for row, _ in units for v in row.values())
    zeros = [m for m in maps if m.is_zero()]
    assert zeros and all(m is Mat.zeros(Q, m.nrows, m.ncols) for m in zeros)


@pytest.mark.parametrize("field", [Field.prime(32003), Field.prime(3), Field.prime(2)], ids=_field_id)
def test_a_tau_inverse_walk_over_gfp_keeps_only_shared_unit_rows(field):
    # over GF(p) the -1 of a kernel's pivot rows is stored as p - 1, and a
    # row of it is the one row of the field's table; over GF(2) -1 is 1
    P1 = build_projective(named_datum("A11"), field, 1)
    mods = list(islice(tau_walk(P1, tau_inverse), 10))
    assert len(mods) == 10
    units = _unit_rows([m for M in mods for m in (*M.eps.values(), *M.arr.values())])
    assert units and all(row is table for row, table in units)
    if field.p != 2:
        assert any(v == field.p - 1 for row, _ in units for v in row.values())
    assert 2 not in _NEG_UNITS


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(7), Field.prime(2)], ids=_field_id)
def test_from_dict_and_from_rows_take_unit_rows_from_the_table(field):
    m1 = _minus_one(field)
    rows = [[0, 1, 0], [m1, 0, 0], [1, 1, 0]]
    A = Mat.from_rows(field, rows)
    B = Mat.from_dict(field, (3, 3), {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})
    for M in (A, B):
        assert M._data[0] is _unit(1) and M._data[1] is _neg_unit(0, field.p)
        assert M._data[2] == {0: 1, 1: 1}
    assert A == B


def test_the_minus_one_rows_are_one_read_only_table_per_field():
    row = _neg_unit(3, 7)
    assert row == {3: 6} and row is _neg_unit(3, 7)
    assert _neg_unit(3, None) == {3: -1} and _neg_unit(3, 32003) == {3: 32002}
    with pytest.raises(TypeError):
        row[3] = 1
    assert row == {3: 6}
    # over GF(2) -1 is 1: the row is _unit(k), and no second table is made
    assert _neg_unit(3, 2) is _unit(3)
    assert 2 not in _NEG_UNITS


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(32003), Field.prime(3)], ids=_field_id)
def test_no_routine_writes_into_a_shared_unit_row(field):
    # a write into a shared row would change every matrix that holds it
    cd = named_datum("Bn", n=3)
    sink = admissible_sequence(cd)[0]
    mods = [M for _, M in module_battery(cd, field, 10)]
    walk = list(islice(tau_walk(build_injective(cd, field, 1), tau), 2))
    for M in mods[:6] + walk:
        plus = reflect_plus(cd, sink, M)
        counit(sink, reflect_minus(plus.datum, sink, plus), M)
        end_analysis(M)
    for M, N in [(mods[0], mods[5]), (mods[3], walk[1]), (walk[0], walk[1]), (mods[8], mods[9])]:
        hom_basis(M, N)
        for c in extension_cocycle_space(M, N):
            cocycle_is_coboundary(M, N, c)
    assert _UNITS
    assert all(row == {k: 1} for k, row in _UNITS.items())
    assert all(row == {k: -1 if p is None else p - 1}
               for p, table in _NEG_UNITS.items() for k, row in table.items())
    assert _ZEROS
    assert all(Z._data == {} and Z.shape == (m, n) and Z.field.p == p for (p, m, n), Z in _ZEROS.items())


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(7)], ids=_field_id)
def test_a_write_into_shared_storage_raises_at_the_write(field):
    # the shared rows and the empty _data of each shared zero matrix are
    # read-only views, so a stray write fails where it is made instead of
    # changing every matrix that holds them
    assert Mat.identity(field, 4)._data[3] is _unit(3)
    Z = Mat.zeros(field, 2, 3)
    for view, before in ((_unit(3), {3: 1}), (_neg_unit(3), {3: -1}), (Z._data, {})):
        with pytest.raises(TypeError):
            view[3] = 5
        with pytest.raises(TypeError):
            view[0] = {0: 1}
        with pytest.raises(TypeError):
            del view[3]
        assert view == before
    assert Z.is_zero() and Z is Mat.zeros(field, 2, 3)
