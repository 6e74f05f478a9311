"""Minimal projective presentations and the translate tau.

For a module M with minimal presentation  P1 --(r_st)--> P0 --> M --> 0
(entries r_st of the middle map are algebra elements acting by right
composition), the translate is the kernel of the transported map between
the corresponding injectives; the inverse translate is computed by the
same transport over the opposite algebra, conjugated by duality.
"""

from dataclasses import dataclass
from itertools import islice

from .cartan import build_quiver
from .linalg import Mat
from .modrep import (Morphism, Representation, direct_sum, dual_rep, is_isomorphic, kernel_rep,
                     local_free_rank, make_rep, rank_vector, zero_rep)
from .pathalg import (AlgebraElement, algebra_basis, build_injective, build_projective,
                      mono_target, transport_dual)
from .rootsys import classify_positive_root, coxeter_data


def is_zero_rep(rep):
    return all(d == 0 for d in rep.dims.values())


def _radical_complement(rep, v):
    """Columns of M_v completing the radical part to a basis (a lift of the
    top at v): the unit vectors e_k, in order, whose k is the last nonzero
    coordinate of no radical vector.  Those k are the pivots of the RREF of
    the radical's transpose with its coordinates reversed, whose rows are
    built directly from the entries of [eps_v | the arrows into v]."""
    dim = rep.dims[v]
    data, offset = {}, 0
    for A in (rep.eps[v], *(rep.arr[key] for key in build_quiver(rep.datum).arrows_into(v))):
        for i, j, x in A.items():
            data.setdefault(offset + j, {})[dim - 1 - i] = x
        offset += A.ncols
    _, piv = Mat(rep.field, (offset, dim), data).rref()
    last = {dim - 1 - j for j in piv}
    return [Mat(rep.field, (dim, 1), {k: {0: 1}}) for k in range(dim) if k not in last]


def _generators(rep):
    """(vertex, column) pairs spanning the top of rep."""
    gens = []
    for v in rep.datum.vertices:
        for col in _radical_complement(rep, v):
            gens.append((v, col))
    return gens


def _path_images(M, basis, b, U):
    """{w: [p @ U for the basis paths p from b to w]}."""
    images = {}
    return {w: [_path_image(M, U, images, p) for p in basis.paths(b, w)]
            for w in M.datum.vertices}


def _path_image(M, U, images, p):
    """p @ U, kept in ``images``.  Each path is applied through its parent:
    p with one loop less at the end, or else without its last arrow; parents
    are basis paths too, as their exponent bounds are weaker.  Not a closure
    calling itself: that is a reference cycle, which holds every image until
    the cyclic collector frees it."""
    if p not in images:
        if p.exps[-1]:
            parent = p._replace(exps=p.exps[:-1] + (p.exps[-1] - 1,))
            images[p] = M.eps[mono_target(p)] @ _path_image(M, U, images, parent)
        elif p.arrows:
            parent = p._replace(arrows=p.arrows[:-1], exps=p.exps[:-1])
            images[p] = M.arr[p.arrows[-1]] @ _path_image(M, U, images, parent)
        else:
            images[p] = U
    return images[p]


def projective_cover(M):
    """(P0, cover morphism, generator vertices).  The cover block at w holds,
    for each generator in turn, its images under the basis paths to w.  On a
    module (loops nilpotent) the cover is surjective; ``minimal_presentation``
    checks that on the kernel bases it takes of the blocks."""
    datum, field = M.datum, M.field
    gens = _generators(M)
    verts = tuple(v for v, _ in gens)
    if not gens:
        return zero_rep(datum, field), Morphism(zero_rep(datum, field), M,
                                                {v: Mat.zeros(field, M.dims[v], 0)
                                                 for v in datum.vertices}), verts
    basis = algebra_basis(datum)
    P0 = direct_sum([build_projective(datum, field, v) for v in verts])
    # one path walk per generator vertex b, on the generators at b side by
    # side; _generators lists them vertex by vertex, so generator t at b
    # owns the columns start + t * (number of paths from b to w)
    gens_at = {b: [k for v, u in gens if v == b for k, _, _ in u.items()]
               for b in dict.fromkeys(verts)}
    images = {b: _path_images(M, basis, b, Mat(field, (M.dims[b], len(ks)),
                                               {k: {t: 1} for t, k in enumerate(ks)}))
              for b, ks in gens_at.items()}
    blocks = {}
    for w in datum.vertices:
        data, start = {}, 0
        for b, ks in gens_at.items():
            n = len(basis.paths(b, w))
            for r, img in enumerate(images[b][w]):
                for i, t, x in img.items():
                    data.setdefault(i, {})[start + t * n + r] = x
            start += len(ks) * n
        blocks[w] = Mat(field, (M.dims[w], start), data)
    return P0, Morphism(P0, M, blocks), verts


@dataclass
class PresentationData:
    gens0: tuple              # projective indices of P0
    gens1: tuple              # projective indices of P1
    entries: dict             # (s, t) -> AlgebraElement in paths(gens0[t], gens1[s])
    cover: dict               # w -> the block of the cover P0 -> M at w


_presented = (None, None)     # the module presented last, and its presentation


def minimal_presentation(M):
    """The module presented last is kept with its presentation and matched
    by identity, so that Hom and Ext^1 dimensions out of one module, or an
    isomorphism test and the translate of one module, present it once.  No
    module is changed once built, and callers only read the presentation."""
    global _presented
    if _presented[0] is M:
        return _presented[1]
    datum = M.datum
    basis = algebra_basis(datum)
    P0, cover, gens0 = projective_cover(M)
    # one elimination per cover block: its rank is its width less the size
    # of its kernel basis.  A bad module can also leave the kernel without
    # its loop or arrow maps; if its cover misses part of it as well, that
    # is the fault reported, and only then are the ranks taken apart
    try:
        K, incl = kernel_rep(P0, cover.blocks)
        ranks = {v: block.ncols - incl.blocks[v].ncols for v, block in cover.blocks.items()}
    except RuntimeError:
        ranks = {v: block.rank() for v, block in cover.blocks.items()}
        if ranks == M.dims:
            raise
    if ranks != M.dims:
        raise RuntimeError("projective cover is not surjective (bad input module?)")
    kgens = _generators(K)
    gens1 = tuple(a for a, _ in kgens)
    # generator s = (a, e_k) of K maps to column k of incl[a] inside (P0)_a,
    # whose rows run over the basis paths from gens0[t] to a, t in turn; its
    # coefficient on such a path is entry (s, t) of the presentation
    cols = {a: {} for a in gens1}
    for a, col in cols.items():
        for r, k, x in incl.blocks[a].items():
            col.setdefault(k, []).append((r, x))
    owner = {a: [(t, p) for t, b in enumerate(gens0) for p in basis.paths(b, a)] for a in cols}
    cells = {}
    for s, (a, w) in enumerate(kgens):
        (k, _, _), = w.items()            # w is the unit vector e_k
        for r, x in cols[a][k]:
            t, path = owner[a][r]
            cells.setdefault((s, t), {})[path] = x
    entries = {(s, t): AlgebraElement(gens0[t], gens1[s], terms) for (s, t), terms in cells.items()}
    _presented = (M, PresentationData(gens0, gens1, entries, cover.blocks))
    return _presented[1]


@dataclass
class TauResult:
    module: Representation


def tau(M):
    """Kernel of the transported presentation map between injectives."""
    datum, field = M.datum, M.field
    pres = minimal_presentation(M)
    if not pres.gens1:
        return TauResult(zero_rep(datum, field))
    I1 = direct_sum([build_injective(datum, field, a) for a in pres.gens1])
    blocks = transport_dual(datum, field, pres.gens1, pres.gens0, pres.entries)
    K, _ = kernel_rep(I1, blocks)
    return TauResult(K)


def tau_inverse(M):
    """Dual of tau over the opposite algebra."""
    datum, field = M.datum, M.field
    dM = dual_rep(M)
    t = tau(dM)
    back = dual_rep(t.module)
    restored = make_rep(datum, field, dict(back.dims), dict(back.eps), dict(back.arr))
    return TauResult(restored)


def tau_walk(M, step):
    """Yield step(M), step(step(M)), ... for step tau or tau_inverse; the
    walk ends before the first zero module."""
    cur = step(M).module
    while not is_zero_rep(cur):
        yield cur
        cur = step(cur).module


@dataclass
class OrbitEntry:
    k: int
    module: Representation
    rank: tuple               # or None when not locally free


@dataclass
class TauOrbit:
    entries: list             # OrbitEntry, sorted by k
    period: int = None        # smallest r with tau^r M == M certified, if found

    def member(self, k):
        for e in self.entries:
            if e.k == k:
                return e
        return None


def default_window(datum):
    cox = coxeter_data(datum)
    return 2 * cox.N if cox.N else 2 * datum.n


def tau_orbit(M, window=None):
    datum = M.datum
    if window is None:
        window = default_window(datum)
    entries = [OrbitEntry(0, M, rank_vector(M))]
    period = None
    for k, cur in enumerate(islice(tau_walk(M, tau), window), start=1):
        entries.append(OrbitEntry(k, cur, rank_vector(cur)))
        if period is None and is_isomorphic(cur, M).verdict == "yes":
            period = k
    for k, cur in enumerate(islice(tau_walk(M, tau_inverse), window), start=1):
        entries.append(OrbitEntry(-k, cur, rank_vector(cur)))
    entries.sort(key=lambda e: e.k)
    return TauOrbit(entries, period)


@dataclass
class FreenessReport:
    status: str               # 'verified' | 'verified_on_window' | 'fails'
    period: int = None        # None with 'verified': both walks ended at zero


def _walk_local_freeness(M, window):
    """Walk the orbit of M both ways, at most ``window`` steps each, checking
    local freeness at every step; M is indecomposable, its End ring already
    known to be local with residue field k."""
    datum = M.datum

    def fails(rep):
        return any(local_free_rank(rep, v) is None for v in datum.vertices)

    if fails(M):
        return FreenessReport("fails")
    closed = 0
    for sign, step in ((1, tau), (-1, tau_inverse)):
        walked = 0
        for k, cur in enumerate(islice(tau_walk(M, step), window), start=1):
            if fails(cur):
                return FreenessReport("fails")
            if sign > 0 and is_isomorphic(cur, M).verdict == "yes":
                return FreenessReport("verified", period=k)
            walked = k
        closed += walked < window
    return FreenessReport("verified" if closed == 2 else "verified_on_window")


def classify_module(M):
    """Trichotomy via the rank vector's position in the root system."""
    r = rank_vector(M)
    if r is None:
        raise ValueError("module is not locally free; rank vector undefined")
    return classify_positive_root(M.datum, r)


def tau_period(M, cap):
    """Smallest r <= cap with a certified isomorphism tau^r M = M, or None."""
    for r, cur in enumerate(islice(tau_walk(M, tau), cap), start=1):
        if is_isomorphic(cur, M).verdict == "yes":
            return r
    return None
