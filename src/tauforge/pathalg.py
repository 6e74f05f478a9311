"""Paths in the quiver algebra of a datum, in canonical interleaved form.

A monomial path is stored as ``Monomial(src, arrows, exps)``: starting
vertex, the arrow keys (i, j, g) traversed in order of application, and one
loop exponent per visited vertex (``exps`` has length ``len(arrows) + 1``;
``exps[0]`` sits at the source).  In the algebra the word reads right to
left, e.g. ``eps[i]^exps[-1] . a_t . ... . a_1 . eps[src]^exps[0]``.

Canonical form: every exponent left of an arrow is smaller than the number
of source loops that arrow can absorb, and every exponent is below the
nilpotency degree of its vertex.  ``None`` plays the role of the zero path.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .cartan import build_quiver
from .linalg import Mat
from .modrep import Representation, make_rep

Monomial = namedtuple("Monomial", ["src", "arrows", "exps"])


def mono_target(mono):
    return mono.arrows[-1][0] if mono.arrows else mono.src


def _absorb(datum, key):
    """Loops at the source that one rewrite of this arrow consumes."""
    i, j, _ = key
    return datum.f(i, j)


def _emit(datum, key):
    """Loops at the target that one rewrite of this arrow emits."""
    i, j, _ = key
    return datum.f(j, i)


def normalize(datum, src, arrows, exps):
    """Canonical form of a raw path, or None when it is zero."""
    arrows = tuple(arrows)
    exps = list(exps)
    if len(exps) != len(arrows) + 1:
        raise ValueError("exponent list must have one entry per visited vertex")
    for t, key in enumerate(arrows):
        a = _absorb(datum, key)
        packets, exps[t] = divmod(exps[t], a)
        exps[t + 1] += packets * _emit(datum, key)
    v = src
    for t in range(len(arrows) + 1):
        if t:
            v = arrows[t - 1][0]
        if exps[t] >= datum.d(v):
            return None
    return Monomial(src, arrows, tuple(exps))


def loop(datum, v, k=1):
    if v not in datum.vertices:
        raise ValueError(f"no vertex {v}")
    return normalize(datum, v, (), (k,))


def arrow(datum, i, j, g=1):
    quiver = build_quiver(datum)
    if (i, j, g) not in quiver.arrows:
        raise ValueError(f"no arrow a[{i}<-{j}]#{g}")
    return Monomial(j, ((i, j, g),), (0, 0))


def mono_mul(datum, p, q):
    """The product p.q (q acts first), or None if it is zero."""
    if p is None or q is None:
        return None
    if mono_target(q) != p.src:
        raise ValueError("paths do not compose")
    exps = q.exps[:-1] + (q.exps[-1] + p.exps[0],) + p.exps[1:]
    return normalize(datum, q.src, q.arrows + p.arrows, exps)


# ---------------------------------------------------------------------------
# the finite basis of the algebra

class AlgebraBasis:
    def __init__(self, datum):
        quiver = build_quiver(datum)
        out_of = {v: sorted(quiver.arrows_out_of(v)) for v in quiver.vertices}
        by_pair = {(i, j): [] for i in quiver.vertices for j in quiver.vertices}

        def extend(src, arrow_path):
            at = arrow_path[-1][0] if arrow_path else src
            bounds = []
            for t, key in enumerate(arrow_path):
                v = src if t == 0 else arrow_path[t - 1][0]
                bounds.append(min(datum.d(v), _absorb(datum, key)))
            bounds.append(datum.d(at))

            def rec(t, exps):
                if t == len(bounds):
                    by_pair[(src, at)].append(Monomial(src, tuple(arrow_path), tuple(exps)))
                    return
                for e in range(bounds[t]):
                    rec(t + 1, exps + [e])

            rec(0, [])
            for key in out_of[at]:
                extend(src, arrow_path + [key])

        for i in quiver.vertices:
            extend(i, [])
        for lst in by_pair.values():
            lst.sort(key=lambda m: (len(m.arrows), m.arrows, m.exps))
        self.by_pair = by_pair
        self.index = {}
        for lst in by_pair.values():
            for t, m in enumerate(lst):
                self.index[m] = t

    def paths(self, src, tgt):
        return self.by_pair[(src, tgt)]


@lru_cache(maxsize=None)
def algebra_basis(datum):
    return AlgebraBasis(datum)


# ---------------------------------------------------------------------------
# projective and injective representations

@lru_cache(maxsize=None)
def _action(datum, mono, end, left):
    """The (row, col) cells of y -> mono.y on paths(end, mono.src) when
    ``left``, else of y -> y.mono on paths(mono target, end), indexed in the
    basis order; one cell per column at most."""
    basis = algebra_basis(datum)
    if left:
        cols = basis.paths(end, mono.src)
        prods = (mono_mul(datum, mono, y) for y in cols)
    else:
        cols = basis.paths(mono_target(mono), end)
        prods = (mono_mul(datum, y, mono) for y in cols)
    return tuple((basis.index[prod], c) for c, prod in enumerate(prods) if prod is not None)


@lru_cache(maxsize=None)
def _indecomposable_maps(datum, name, field, i, left):
    """P_i when ``left``, else I_i, one module kept per datum, ``name``
    (``datum.name``, which takes no part in the datum's equality) and field:
    the translates read the maps of their summands here."""
    basis = algebra_basis(datum)
    dims = {v: len(basis.paths(i, v) if left else basis.paths(v, i)) for v in datum.vertices}

    def action(mono):
        """The map of mono, dims[target] x dims[src], from the cells of its
        action on the paths; I_i reads them transposed."""
        shape = (dims[mono_target(mono)], dims[mono.src])
        cells = dict.fromkeys(_action(datum, mono, i, left), 1)
        if left:
            return Mat.from_dict(field, shape, cells)
        return Mat.from_dict(field, shape[::-1], cells).transpose()

    eps = {v: action(lv) for v in datum.vertices if (lv := loop(datum, v)) is not None}
    arr = {key: action(arrow(datum, *key)) for key in build_quiver(datum).arrows}
    return make_rep(datum, field, dims, eps, arr)


def _indecomposable(datum, field, i, left):
    """A new module P_i when ``left``, else I_i, over the caller's datum,
    sharing the maps of the one kept."""
    rep = _indecomposable_maps(datum, datum.name, field, i, left)
    return Representation(datum, field, dict(rep.dims), dict(rep.eps), dict(rep.arr))


def build_projective(datum, field, i):
    """P_i: paths out of vertex i, arrows acting by left composition."""
    return _indecomposable(datum, field, i, left=True)


def build_injective(datum, field, i):
    """I_i: dual of paths into vertex i, arrows acting by transposed right
    composition."""
    return _indecomposable(datum, field, i, left=False)


def transport_dual(datum, field, sources, targets, entries):
    """Carry a matrix of algebra elements between sums of projectives over
    to the corresponding map between sums of injectives.

    ``entries[(s, t)]``, {path: coefficient} on paths(targets[t], sources[s]),
    is the component P_{sources[s]} -> P_{targets[t]} by right composition.
    Returns the per-vertex blocks of the induced map on injectives
    (+I over sources -> +I over targets): transposed left multiplication by
    each entry.
    """
    basis = algebra_basis(datum)
    blocks = {}
    for v in datum.vertices:
        dims = {x: len(basis.paths(v, x)) for x in datum.vertices}
        roff = list(accumulate((dims[b] for b in targets), initial=0))
        coff = list(accumulate((dims[a] for a in sources), initial=0))
        # cell (r, c) of left multiplication by a term lands transposed at
        # (c, r) of block (t, s)
        cells = {}
        for (s, t), elt in entries.items():
            r0, c0 = roff[t], coff[s]
            for mono, coeff in elt.items():
                for r, c in _action(datum, mono, v, True):
                    key = (r0 + c, c0 + r)
                    cells[key] = cells[key] + coeff if key in cells else coeff
        blocks[v] = Mat.from_dict(field, (roff[-1], coff[-1]), cells)
    return blocks
