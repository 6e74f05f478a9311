"""The sparse Gauss-Jordan kernels of ``Mat._eliminate``: ``_gfp_rref``
over GF(p) and ``_qq_rref`` over QQ.  Neither changes its input rows."""

from fractions import Fraction
from math import gcd, lcm


def _pivot_order(rows):
    """``(leading column, row index, row)`` in order of leading column, ties
    by row index."""
    return sorted([(min(row), i, row) for i, row in rows.items()])


def _gfp_rref(rows, p):
    """Sparse Gauss-Jordan over Z/p on ``{i: {j: int}}`` with entries in [0, p).

    Rows are taken in order of their leading column (ties by row index) and
    the pivot of each is the smallest column left after reduction.  Returns
    ``(R, den)``: R maps each pivot column to the rest of its normalised
    RREF row (pivot entry dropped, zeros omitted), and ``den`` is the
    product mod p of the raw pivots.
    """
    R = {}
    cols = {}  # column -> pivot columns of the rows of R that hold it
    den = 1
    for _, _, row in _pivot_order(rows):
        row = dict(row)
        for j in [j for j in row if j in R]:
            c = row.pop(j)
            for k, v in R[j].items():
                x = (row.get(k, 0) - c * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
        if not row:
            continue
        j = min(row)
        a = row.pop(j)
        den = den * a % p
        if a != 1:
            inv = pow(a, -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        # clear column j from the rows that hold it, keeping ``cols`` exact
        for pc in cols.pop(j, ()):
            other = R[pc]
            c = other.pop(j)
            for k, v in row.items():
                x = (other.get(k, 0) - c * v) % p
                if x:
                    if k not in other:
                        cols.setdefault(k, set()).add(pc)
                    other[k] = x
                else:
                    del other[k]
                    cols[k].discard(pc)
        R[j] = row
        for k in row:
            cols.setdefault(k, set()).add(j)
    return R, den


def _qq_rref(rows):
    """Sparse Gauss-Jordan over QQ on ``{i: {j: int or Fraction}}``, with the
    loop of ``_gfp_rref`` and the same result R (values in stored form).

    Unless all entries are integers, each row is first scaled to a primitive
    integer row, which leaves the RREF unchanged.  A row of R is then kept
    as the integer row ``lead[j] * (normalised row)``, and reducing by it
    cross-multiplies instead of dividing; when a multiplier other than 1 was
    used, the row content is divided out to keep the integers small.  Each
    row is divided by its pivot only at the end.
    """
    R = {}
    lead = {}  # pivot column -> pivot value of its integer row, > 0
    cols = {}  # column -> pivot columns of the rows of R that hold it
    integral = all(type(v) is int for row in rows.values() for v in row.values())
    for _, _, row in _pivot_order(rows):
        row = dict(row) if integral else _primitive(row)
        scaled = False
        for j in [j for j in row if j in R]:
            c = row.pop(j)
            a = lead[j]
            if a != 1:
                row = {k: a * v for k, v in row.items()}
                scaled = True
            for k, v in R[j].items():
                x = row.get(k, 0) - c * v
                if x:
                    row[k] = x
                else:
                    del row[k]
        if not row:
            continue
        if scaled:
            row = _primitive(row)
        j = min(row)
        a = row.pop(j)
        if a < 0:
            a = -a
            row = {k: -v for k, v in row.items()}
        # clear column j from the rows that hold it, keeping ``cols`` exact
        for pc in cols.pop(j, ()):
            other = R[pc]
            c = other.pop(j)
            if a != 1:
                for k in other:
                    other[k] *= a
            for k, v in row.items():
                x = other.get(k, 0) - c * v
                if x:
                    if k not in other:
                        cols.setdefault(k, set()).add(pc)
                    other[k] = x
                else:
                    del other[k]
                    cols[k].discard(pc)
            if a != 1:
                b = lead[pc] * a
                g = gcd(b, *other.values())
                if g != 1:
                    b //= g
                    for k in other:
                        other[k] //= g
                lead[pc] = b
        R[j] = row
        lead[j] = a
        for k in row:
            cols.setdefault(k, set()).add(j)
    for j, a in lead.items():
        if a != 1:
            R[j] = {k: (v // a if v % a == 0 else Fraction(v, a)) for k, v in R[j].items()}
    return R


def _primitive(row):
    """A new dict holding a positive multiple of ``row`` (ints and Fractions)
    whose entries are coprime integers."""
    den = lcm(*(v.denominator for v in row.values() if type(v) is not int))
    if den != 1:
        row = {k: v * den if type(v) is int else v.numerator * (den // v.denominator)
               for k, v in row.items()}
    g = gcd(*row.values())
    if g != 1:
        return {k: v // g for k, v in row.items()}
    return dict(row)
