"""Root lattice combinatorics for a Cartan datum.

Rank vectors live in Z^n (plain int tuples).  The Coxeter transformation
is taken along the sink-first admissible sequence, so that it matches the
action of the translation functors on rank vectors: projective P_{i_k}
has rank beta_k, injective I_{i_k} has rank gamma_k.
"""

from collections import namedtuple
from functools import lru_cache

from .cartan import DatumError, admissible_sequence


def simple_reflection(datum, i, v):
    """s_i(v): subtract (sum_j c_ij v_j) from coordinate i."""
    pairing = sum(datum.c(i, j + 1) * v[j] for j in range(datum.n))
    w = list(v)
    w[i - 1] -= pairing
    return tuple(w)


def bilinear(datum, a, b):
    """Homological pairing <a, b>; equals dim Hom - dim Ext^1 on rank
    vectors of locally free modules."""
    total = sum(datum.d(i) * a[i - 1] * b[i - 1] for i in datum.vertices)
    for (i, j) in datum.orientation:
        total -= datum.d(i) * abs(datum.c(i, j)) * a[j - 1] * b[i - 1]
    return total


def height(v):
    return sum(v)


def _unit(n, i):
    return tuple(1 if t == i - 1 else 0 for t in range(n))


def _delta_multiple(dlt, v):
    """The k with v = k.delta, or None; delta is strictly positive."""
    k = v[0] // dlt[0]
    return k if all(x == k * d for x, d in zip(v, dlt)) else None


def _matvec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _reflect_along(datum, order, v):
    """s_{i_k} ... s_{i_1}(v) for order = (i_1, ..., i_k): s_{i_1} first."""
    for i in order:
        v = simple_reflection(datum, i, v)
    return v


def _iteration_cap(datum):
    # generous fail-safe for the N search and orbit walks
    maxd = max(datum.symmetriser)
    maxc = max(abs(x) for row in datum.cartan for x in row)
    return 10 * datum.n * maxd * maxc


class CoxeterData(namedtuple("CoxeterData", ["sequence", "c_matrix", "c_inv_matrix", "beta", "gamma", "N", "nu"])):
    """beta[k] and gamma[k] are the ranks of P and I at sequence[k]; unless
    the datum is affine, N and nu are None, and otherwise N is the smallest
    N with c^N = id + delta.nu^T."""

    __slots__ = ()

    def c_apply(self, v, power=1):
        """c^power (v), by square-and-multiply: one matrix-vector product
        per set bit of |power| and one squaring per further bit."""
        m = self.c_matrix if power >= 0 else self.c_inv_matrix
        k = abs(power)
        while k:
            if k & 1:
                v = _matvec(m, v)
            k >>= 1
            if k:
                m = _matmul(m, m)
        return tuple(v)


@lru_cache(maxsize=None)
def coxeter_data(datum):
    seq = admissible_sequence(datum)
    n = datum.n
    # c = s_{i_n} ... s_{i_1} and c^-1 its reverse, column by column
    c = tuple(zip(*(_reflect_along(datum, seq, _unit(n, j)) for j in datum.vertices)))
    c_inv = tuple(zip(*(_reflect_along(datum, seq[::-1], _unit(n, j)) for j in datum.vertices)))
    # beta_k = s_{i_1} ... s_{i_{k-1}} (alpha_{i_k}), gamma_k = s_{i_n} ... s_{i_{k+1}} (alpha_{i_k})
    beta = tuple(_reflect_along(datum, seq[:k][::-1], _unit(n, ik)) for k, ik in enumerate(seq))
    gamma = tuple(_reflect_along(datum, seq[k + 1:], _unit(n, ik)) for k, ik in enumerate(seq))

    N = nu = None
    if datum.affine_kernel is not None:
        dlt = datum.affine_kernel
        power = c
        for step in range(1, _iteration_cap(datum) + 1):
            nu = tuple(_delta_multiple(dlt, [power[r][j] - (r == j) for r in range(n)])
                       for j in range(n))
            if None not in nu:
                N = step
                break
            power = _matmul(c, power)
        if N is None:
            raise DatumError("no Coxeter period found below the iteration cap")

    return CoxeterData(seq, c, c_inv, beta, gamma, N, nu)


def is_positive_root(datum, v):
    """'real', 'imaginary' or 'not_root', by the descent test: reflect
    towards the simples."""
    v = tuple(int(x) for x in v)
    if len(v) != datum.n or all(x == 0 for x in v):
        return "not_root"
    if any(x < 0 for x in v):
        return "not_root"
    while True:
        support = [i for i in datum.vertices if v[i - 1] != 0]
        if len(support) == 1 and v[support[0] - 1] == 1:
            return "real"
        pairings = [sum(datum.c(i, j + 1) * v[j] for j in range(datum.n))
                    for i in datum.vertices]
        if all(p <= 0 for p in pairings):
            # v stays positive, so a multiple of delta here is k.delta with k > 0
            if (all(p == 0 for p in pairings) and datum.affine_kernel is not None
                    and _delta_multiple(datum.affine_kernel, v) is not None):
                return "imaginary"
            return "not_root"
        i = next(i for i in datum.vertices if pairings[i - 1] > 0)
        v = simple_reflection(datum, i, v)
        if any(x < 0 for x in v):
            return "not_root"


# kind is 'preprojective' | 'preinjective' | 'regular' | 'not_root'; r is the
# translation exponent and vertex that of the projective or injective
# (preprojective/preinjective), period the Coxeter period (regular)
RootClass = namedtuple("RootClass", ["kind", "r", "vertex", "period"], defaults=(None, None, None))


def c_period(datum, v):
    """Smallest t >= 1 with c^t v = v, searched up to N (affine data) or the
    iteration cap."""
    cd = coxeter_data(datum)
    window = cd.N if cd.N is not None else _iteration_cap(datum)
    w = tuple(v)
    for t in range(1, window + 1):
        w = cd.c_apply(w)
        if w == tuple(v):
            return t
    return None


def classify_positive_root(datum, v):
    if is_positive_root(datum, v) == "not_root":
        return RootClass("not_root")
    cd = coxeter_data(datum)
    if datum.affine_kernel is not None:
        per = c_period(datum, v)
        if per is not None:
            return RootClass("regular", period=per)
        cap = cd.N * (height(v) + 2)
    else:
        cap = _iteration_cap(datum)
    for kind, ends, power in (("preprojective", cd.beta, 1), ("preinjective", cd.gamma, -1)):
        index = {end: cd.sequence[k] for k, end in enumerate(ends)}
        w = tuple(v)
        for r in range(cap + 1):
            if w in index:
                return RootClass(kind, r=r, vertex=index[w])
            if any(x < 0 for x in w):
                break
            w = cd.c_apply(w, power)
    return RootClass("not_root")


def enumerate_positive_roots(datum, max_height):
    """All positive roots of height <= max_height, by reflection closure of
    the simples plus the imaginary multiples of delta."""
    if max_height < 1:
        return []
    n = datum.n
    found = set()
    frontier = [_unit(n, i) for i in datum.vertices]
    for v in frontier:
        found.add(v)
    while frontier:
        nxt = []
        for v in frontier:
            for i in datum.vertices:
                w = simple_reflection(datum, i, v)
                if w in found or any(x < 0 for x in w) or height(w) > max_height:
                    continue
                found.add(w)
                nxt.append(w)
        frontier = nxt
    if datum.affine_kernel is not None:
        dlt = datum.affine_kernel
        k = 1
        while k * height(dlt) <= max_height:
            found.add(tuple(k * x for x in dlt))
            k += 1
    return sorted(found, key=lambda v: (height(v), v))
