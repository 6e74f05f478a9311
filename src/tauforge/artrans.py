"""Minimal projective presentations and the translate tau.

For a module M with minimal presentation  P1 --(r_st)--> P0 --> M --> 0
(entries r_st of the middle map are algebra elements acting by right
composition), the translate is the kernel of the transported map between
the corresponding injectives; the inverse translate is computed by the
same transport over the opposite algebra, conjugated by duality.  The sums
P0 and I1 are never assembled: both kernels read the maps of their
summands, the projectives and injectives that pathalg keeps, one by one.
"""

from dataclasses import dataclass
from itertools import islice

from .cartan import build_quiver
from .linalg import Mat
from .modrep import Representation, dual_rep, is_isomorphic, kernel_rep, rank_vector, zero_rep
from .pathalg import (AlgebraElement, _indecomposable_maps, algebra_basis, mono_target,
                      transport_dual)
from .rootsys import classify_positive_root, coxeter_data


def is_zero_rep(rep):
    return all(d == 0 for d in rep.dims.values())


def _radical_complement(rep, v):
    """The k, in order, whose unit vectors e_k of M_v complete the radical
    part to a basis (a lift of the top at v): those that are the last
    nonzero coordinate of no radical vector.  They are read off the pivots
    of one elimination of the radical's transpose with its coordinates
    reversed, whose rows are built directly from the entries of [eps_v |
    the arrows into v]."""
    dim = rep.dims[v]
    data, offset = {}, 0
    for A in (rep.eps[v], *(rep.arr[key] for key in build_quiver(rep.datum).arrows_into(v))):
        for i, j, x in A.items():
            data.setdefault(offset + j, {})[dim - 1 - i] = x
        offset += A.ncols
    R, _ = Mat(rep.field, (offset, dim), data)._eliminate(data)
    return [k for k in range(dim) if dim - 1 - k not in R]


def _generators(rep):
    """(vertex, k) pairs, e_k of M_vertex spanning the top of rep."""
    return [(v, k) for v in rep.datum.vertices for k in _radical_complement(rep, v)]


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
    """(generator vertices, cover blocks) of the cover P0 -> M, P0 the sum of
    the projectives P_b over the generator vertices b, which is never built.
    The cover block at w holds, for each generator in turn, its images under
    the basis paths to w.  On a module (loops nilpotent) the cover is
    surjective; ``minimal_presentation`` checks that on the kernel bases it
    takes of the blocks."""
    datum, field = M.datum, M.field
    gens = _generators(M)
    verts = tuple(v for v, _ in gens)
    basis = algebra_basis(datum)
    # one path walk per generator vertex b, on the generators at b side by
    # side; _generators lists them vertex by vertex, so generator t at b
    # owns the columns start + t * (number of paths from b to w)
    gens_at = {b: [k for v, k in gens if v == b] for b in dict.fromkeys(verts)}
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
    return verts, blocks


@dataclass
class PresentationData:
    gens0: tuple              # projective indices of P0
    gens1: tuple              # projective indices of P1
    entries: dict             # (s, t) -> AlgebraElement in paths(gens0[t], gens1[s])
    cover: dict               # w -> the block of the cover P0 -> M at w
    syzygy: Representation    # Omega M, the kernel of the cover; its top gives P1
    syzygy_pres: "PresentationData" = None    # that of Omega M, None until asked for


_presented = (None, None)     # the module presented last, and its presentation


def minimal_presentation(M):
    """The module presented last is kept with its presentation and matched
    by identity, so that Hom and Ext^1 dimensions out of one module, or an
    isomorphism test and the translate of one module, present it once.  The
    presentation of its syzygy is kept inside its own and leaves the module
    in the slot, so that Ext^1 out of a module that is not locally free,
    which reads Hom out of the syzygy, presents both once.  No module is
    changed once built, and callers only read the presentation."""
    global _presented
    held, pres = _presented
    if held is M:
        return pres
    if pres is not None and pres.syzygy is M:
        if pres.syzygy_pres is None:
            pres.syzygy_pres = _present(M)
        return pres.syzygy_pres
    _presented = (M, _present(M))
    return _presented[1]


def _present(M):
    datum, field = M.datum, M.field
    basis = algebra_basis(datum)
    gens0, blocks = projective_cover(M)
    # the sum of no projectives is the zero module.  One elimination per
    # cover block: its rank is its width less the size of its kernel basis.
    # A bad module can also leave the kernel without its loop or arrow maps;
    # if its cover misses part of it as well, that is the fault reported,
    # and only then are the ranks taken apart
    projectives = [_indecomposable_maps(datum, datum.name, field, b, True) for b in gens0]
    try:
        K, incl = kernel_rep(projectives or [zero_rep(datum, field)], blocks)
        ranks = {v: block.ncols - incl[v].ncols for v, block in blocks.items()}
    except RuntimeError:
        ranks = {v: block.rank() for v, block in blocks.items()}
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
        for r, k, x in incl[a].items():
            col.setdefault(k, []).append((r, x))
    owner = {a: [(t, p) for t, b in enumerate(gens0) for p in basis.paths(b, a)] for a in cols}
    cells = {}
    for s, (a, k) in enumerate(kgens):
        for r, x in cols[a][k]:
            t, path = owner[a][r]
            cells.setdefault((s, t), {})[path] = x
    entries = {(s, t): AlgebraElement(gens0[t], gens1[s], terms) for (s, t), terms in cells.items()}
    return PresentationData(gens0, gens1, entries, blocks, K)


@dataclass
class TauResult:
    module: Representation


def tau(M):
    """Kernel of the transported presentation map between injectives.  The
    translate is kept on M: a module walked twice, say by a battery and
    then by a check, is translated once."""
    if M._tau is None:
        M._tau = _translate(M)
    return TauResult(M._tau)


def _translate(M):
    datum, field = M.datum, M.field
    pres = minimal_presentation(M)
    if not pres.gens1:
        return zero_rep(datum, field)
    blocks = transport_dual(datum, field, pres.gens1, pres.gens0, pres.entries)
    injectives = [_indecomposable_maps(datum, datum.name, field, a, False) for a in pres.gens1]
    K, _ = kernel_rep(injectives, blocks)
    return K


def tau_inverse(M):
    """Dual of tau over the opposite algebra, the dual of that translate
    taken over M's datum."""
    return TauResult(dual_rep(tau(dual_rep(M)).module, M.datum))


def tau_walk(M, step):
    """Yield step(M), step(step(M)), ... for step tau or tau_inverse; the
    walk ends before the first zero module."""
    cur = step(M).module
    while not is_zero_rep(cur):
        yield cur
        cur = step(cur).module


def orbit_walk(M, window):
    """Yield (k, tau^k M, returned) for k = 1 .. window, ending before the
    first zero module; returned says that ``is_isomorphic`` certifies
    tau^k M = M, and the walk ends at the first k where it does.  Every
    search for a tau-period walks through here."""
    for k, cur in enumerate(islice(tau_walk(M, tau), window), start=1):
        returned = is_isomorphic(cur, M).verdict == "yes"
        yield k, cur, returned
        if returned:
            return


def default_window(datum):
    cox = coxeter_data(datum)
    return 2 * cox.N if cox.N else 2 * datum.n


def tau_orbit(M, window):
    """(ranks, period, witness): ranks maps each k in -window .. window with
    tau^k M nonzero to the rank vector of tau^k M; period is the first k <=
    window with tau^k M = M certified, and witness that tau^k M, both None
    when there is none.  Past a period p the rank at k is the rank at k mod
    p, a rank vector being an isomorphism invariant, so nothing is walked
    past p or backwards."""
    orbit = [M]
    for k, cur, returned in orbit_walk(M, window):
        if returned:
            ranks = [rank_vector(N) for N in orbit]
            return {j: ranks[j % k] for j in range(-window, window + 1)}, k, cur
        orbit.append(cur)
    ranks = {k: rank_vector(N) for k, N in enumerate(orbit)}
    ranks.update((-k, rank_vector(N)) for k, N in enumerate(islice(tau_walk(M, tau_inverse), window), start=1))
    return ranks, None, None


def _walk_local_freeness(M, window):
    """(status, period) of the walks of ``tau_orbit`` both ways, at most
    ``window`` steps each, every module on them locally free (GLS I's
    tau-local freeness); status is 'verified', 'verified_on_window' or
    'fails', and period is the tau-period found, None with 'verified' when
    both walks ended at zero.  M is indecomposable, its End ring already
    known to be local with residue field k."""
    if rank_vector(M) is None:
        return "fails", None
    ranks, period, _ = tau_orbit(M, window)
    if None in ranks.values():
        return "fails", None
    if period is not None:
        return "verified", period
    return ("verified" if -window < min(ranks) and max(ranks) < window else "verified_on_window"), None


def classify_module(M):
    """Trichotomy via the rank vector's position in the root system."""
    r = rank_vector(M)
    if r is None:
        raise ValueError("module is not locally free; rank vector undefined")
    return classify_positive_root(M.datum, r)
