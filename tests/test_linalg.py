"""Exact matrices: fields, and the GF(p) nullspace against sympy's."""

import random
from fractions import Fraction

import pytest

from tauforge.linalg import Field, Mat

PRIMES = (2, 3, 7, 101, 32003, 2**31 - 1)


def _random_matrix(rng, field, m, n, density):
    p = field.p
    entries = {(i, j): rng.randrange(1, p)
               for i in range(m) for j in range(n) if rng.random() < density}
    if m >= 3 and rng.random() < 0.5:
        # make the last row a combination of two others: rank-deficient
        a, b = rng.randrange(1, p), rng.randrange(p)
        for j in range(n):
            entries[(m - 1, j)] = (a * entries.get((0, j), 0) + b * entries.get((1, j), 0)) % p
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


@pytest.mark.parametrize("p", PRIMES)
def test_gfp_nullspace_is_sympy_basis(p):
    field = Field.prime(p)
    rng = random.Random(1000 + p)
    for A in _cases(rng, field):
        got = A.nullspace_cols()
        want = A.dm.nullspace().transpose()
        assert got.shape == want.shape
        assert got.dm.rep.to_sdm() == want.to_sparse().rep.to_sdm()
        assert (A @ got).is_zero()


@pytest.mark.parametrize("p", [0, 1, 4, 9, 32004, 2**31 - 3])
def test_prime_field_refuses_non_prime(p):
    with pytest.raises(ValueError):
        Field.prime(p)
    with pytest.raises(ValueError):
        Field.from_json({"kind": "prime", "p": p})


def test_prime_field_refuses_fraction_with_denominator_p():
    field = Field.prime(5)
    assert field.to_scalar(field.convert(Fraction(3, 4))) == 2
    with pytest.raises(ValueError):
        field.convert(Fraction(1, 10))


def test_from_rows_checks_the_row_count():
    Q = Field.rational()
    for rows in ([[0]], [[0], [1], [2]], []):
        with pytest.raises(ValueError, match="matrix rows"):
            Mat.from_rows(Q, rows, (2, 1))
    assert Mat.from_rows(Q, [[0], [1]], (2, 1)).shape == (2, 1)
