"""Finite-dimensional representations of the quiver algebra of a datum.

A representation assigns to every vertex i a K-space K^{dims[i]}, to every
loop a nilpotent matrix eps[i], and to every arrow alpha^(g)_{ij} : j -> i
a matrix arr[(i,j,g)] : K^{dims[j]} -> K^{dims[i]}, subject to

  (H1)  eps_i ^ d_i = 0
  (H2)  eps_i ^ f_ji . alpha = alpha . eps_j ^ f_ij      for (i,j) in Omega.

Everything here is exact; the field is rational by default or Z/p.

The relations are stated once, as the residuals of ``_relation_residuals``.
A cochain c has one block per loop and arrow, a vertexwise map psi : M -> N
one per vertex, each family laid out in the row-major vec layout: the
blocks one after another, entry (r, c) of an n x m block at its offset +
r*m + c.  The Ext^1 cocycles are the kernel of the relation residuals of
one extension of M by N^k, one unit cochain in each block row.

Hom and Ext^1 come from one matrix, the relation matrix Hom(P0, N) ->
Hom(P1, N) of the minimal presentation P1 -> P0 -> M -> 0: Hom(M, N) is its
kernel, exact for every M because Hom(-, N) is left exact, and Ext^1(M, N)
is dim Hom(Omega M, N) less its rank, Omega M the syzygy (P1, giving the
cokernel, for locally free M).
``hom_basis`` returns the canonical basis of Hom(M, N) in the vec layout
of psi: map k is 1 at its last nonzero psi-coordinate j_k and 0 at every
other j, the basis ``nullspace_cols`` reads off the coboundary map
psi -> psi.M - N.psi over QQ, which the tests build as the reference.  So
``Mat._coords`` reads coordinates in it without an elimination.
"""

import random
from collections import namedtuple
from fractions import Fraction

from .cartan import build_quiver, opposite_datum
from .linalg import Mat


class Representation:
    """No module is changed once built, so ``tau`` and ``rank_vector`` keep
    their result on it; the kept values take no part in equality or repr."""

    __slots__ = ("datum", "field", "dims", "eps", "arr", "_tau", "_ranks")

    def __init__(self, datum, field, dims, eps, arr):
        # dims: vertex -> dimension; eps: vertex -> Mat; arr: (i, j, g) -> Mat
        self.datum, self.field, self.dims, self.eps, self.arr = datum, field, dims, eps, arr
        # the translate, None until taken; the rank vector, ... until taken
        # (None is the rank vector of a module that is not locally free)
        self._tau = None
        self._ranks = ...

    def _key(self):
        return self.datum, self.field, self.dims, self.eps, self.arr

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Representation else NotImplemented

    def __repr__(self):
        return "Representation(datum=%r, field=%r, dims=%r, eps=%r, arr=%r)" % self._key()

    def total_dim(self):
        return sum(self.dims.values())


def make_rep(datum, field, dims, eps=None, arr=None):
    """Build a representation, zero-filling any unspecified maps.  A
    dimension, loop or arrow map that the quiver of the datum lacks, and a
    negative dimension, are refused."""
    quiver = build_quiver(datum)
    eps = dict(eps or {})
    arr = dict(arr or {})
    for what, given, known in (("dimensions at non-existent vertices", dims, quiver.vertices),
                               ("loops at non-existent vertices", eps, quiver.vertices),
                               ("maps for non-existent arrows", arr, quiver.arrows)):
        extra = given.keys() - known
        if extra:
            raise ValueError(f"{what}: {sorted(extra)}")
    dims = {v: int(dims.get(v, 0)) for v in datum.vertices}
    negative = [v for v in datum.vertices if dims[v] < 0]
    if negative:
        raise ValueError(f"negative dimension at vertex {negative[0]}")
    for v in quiver.vertices:
        m = eps.get(v)
        if m is None:
            m = Mat.zeros(field, dims[v], dims[v])
        elif not isinstance(m, Mat):
            m = Mat.from_rows(field, m, (dims[v], dims[v]))
        if m.nrows != dims[v] or m.ncols != dims[v]:
            raise ValueError(f"eps[{v}] has shape {m.shape}, expected square of size {dims[v]}")
        eps[v] = m
    for key in quiver.arrows:
        i, j, _ = key
        m = arr.get(key)
        if m is None:
            m = Mat.zeros(field, dims[i], dims[j])
        elif not isinstance(m, Mat):
            m = Mat.from_rows(field, m, (dims[i], dims[j]))
        if m.nrows != dims[i] or m.ncols != dims[j]:
            raise ValueError(f"arrow {key} has shape {m.shape}, expected {(dims[i], dims[j])}")
        arr[key] = m
    return Representation(datum, field, dims, eps, arr)


def zero_rep(datum, field):
    return make_rep(datum, field, {})


def free_simple(datum, field, vertex):
    """E_vertex: the local ring K[x]/(x^d) sitting at one vertex, all arrows zero."""
    d = datum.d(vertex)
    eps = {vertex: Mat.from_dict(field, (d, d), {(t + 1, t): 1 for t in range(d - 1)})}
    return make_rep(datum, field, {vertex: d}, eps, {})


def _relation_residuals(rep):
    """The relations of rep as matrices that vanish exactly where they hold,
    keyed like the cochain layout: {("eps", v): eps_v^d_v, ("arr", key):
    eps_i^f_ji . A - A . eps_j^f_ij for the arrow key : j -> i with map A}."""
    datum = rep.datum
    top = {v: datum.d(v) for v in datum.vertices}
    for i, j, _ in rep.arr:
        top[i] = max(top[i], datum.f(j, i))
        top[j] = max(top[j], datum.f(i, j))
    run = {v: rep.eps[v].powers(top[v]) for v in datum.vertices}
    out = {("eps", v): run[v][datum.d(v) - 1] for v in datum.vertices}
    for (i, j, g), A in rep.arr.items():
        out[("arr", (i, j, g))] = run[i][datum.f(j, i) - 1] @ A - A @ run[j][datum.f(i, j) - 1]
    return out


def check_relations(rep):
    """Return a list of violated relation descriptions (empty when valid)."""
    datum = rep.datum
    bad = []
    for (kind, key), R in _relation_residuals(rep).items():
        if R.is_zero():
            continue
        if kind == "eps":
            bad.append(f"eps[{key}]^{datum.d(key)} != 0")
        else:
            i, j, g = key
            bad.append(f"eps[{i}]^{datum.f(j, i)} a[{i}<-{j}]#{g} != a[{i}<-{j}]#{g} eps[{j}]^{datum.f(i, j)}")
    return bad


def local_free_rank(rep, vertex):
    """Rank of rep at the vertex if free over K[x]/(x^d), else None."""
    d = rep.datum.d(vertex)
    dim = rep.dims[vertex]
    if dim == 0:
        return 0
    if dim % d != 0:
        return None
    r = dim // d
    run = rep.eps[vertex].powers(d)
    if not run[-1].is_zero():
        return None
    if d == 1:
        return r
    return r if run[-2].rank() == r else None


def rank_vector(rep):
    """Rank vector for a locally free representation, else None; kept on
    rep, so each module's ranks are taken once."""
    if rep._ranks is ...:
        ranks = []
        for v in rep.datum.vertices:
            r = local_free_rank(rep, v)
            if r is None:
                ranks = None
                break
            ranks.append(r)
        rep._ranks = ranks if ranks is None else tuple(ranks)
    return rep._ranks


def direct_sum(reps):
    if not reps:
        raise ValueError("direct sum of nothing (datum unknown)")
    datum, field = reps[0].datum, reps[0].field
    if any(r.datum != datum or r.field != field for r in reps):
        raise ValueError("direct sum across different data/fields")
    dims = {v: sum(r.dims[v] for r in reps) for v in datum.vertices}
    quiver = build_quiver(datum)
    row_dims = {v: [r.dims[v] for r in reps] for v in datum.vertices}

    def diagonal(maps, i, j):
        # a missing block is zero, so zero blocks are left out of each grid:
        # they are about half of the blocks in the sums that tau builds
        grid = {(t, t): m for t, m in enumerate(maps) if not m.is_zero()}
        return Mat.block(field, grid, row_dims[i], row_dims[j])

    eps = {v: diagonal([r.eps[v] for r in reps], v, v) for v in quiver.vertices}
    arr = {key: diagonal([r.arr[key] for r in reps], *key[:2]) for key in quiver.arrows}
    return make_rep(datum, field, dims, eps, arr)


def dual_rep(rep, datum=None):
    """K-dual as a module over the opposite datum (all arrows reversed),
    given as ``datum`` when the caller holds it."""
    eps = {v: rep.eps[v].transpose() for v in rep.datum.vertices}
    arr = {(j, i, g): A.transpose() for (i, j, g), A in rep.arr.items()}
    return make_rep(datum or opposite_datum(rep.datum), rep.field, dict(rep.dims), eps, arr)


# ---------------------------------------------------------------------------
# morphisms

class Morphism(namedtuple("Morphism", ["src", "dst", "blocks"])):
    __slots__ = ()      # blocks: vertex -> Mat (dims_dst[v] x dims_src[v])

    def is_iso(self):
        return all(b.is_invertible() for b in self.blocks.values())

    def is_morphism(self):
        """Does the map commute with every loop and arrow?"""
        M, N = self.src, self.dst
        return (all((self.blocks[v] @ M.eps[v] - N.eps[v] @ self.blocks[v]).is_zero()
                    for v in M.datum.vertices)
                and all((self.blocks[key[0]] @ A - N.arr[key] @ self.blocks[key[1]]).is_zero()
                        for key, A in M.arr.items()))

    def compose(self, other):
        """self o other."""
        return Morphism(other.src, self.dst,
                        {v: self.blocks[v] @ other.blocks[v] for v in self.blocks})


def _layout(blocks):
    """Vec layout of named blocks ``[(key, nrows, ncols)]``: key -> (offset,
    nrows, ncols), blocks one after another, each in row-major order."""
    at, offset = {}, 0
    for key, n, m in blocks:
        at[key] = (offset, n, m)
        offset += n * m
    return at


def _size(at):
    return sum(n * m for _, n, m in at.values())


def _unvec(field, at, cols):
    """One family of blocks {key: Mat} per column of ``cols``, read in the
    layout ``at``: one pass over the entries in order of coordinate, which
    walks the blocks in order of offset."""
    vecs = [{key: {} for key in at} for _ in range(cols.ncols)]
    blocks = iter(at.items())
    key, (offset, n, m) = None, (0, 0, 0)
    for u, t, v in sorted(cols.items(), key=lambda cell: cell[0]):
        while u >= offset + n * m:
            key, (offset, n, m) = next(blocks)
        vecs[t][key][divmod(u - offset, m)] = v
    return [{key: Mat.from_dict(field, at[key][1:], entries) for key, entries in vec.items()}
            for vec in vecs]


def _vec(field, at, blocks):
    """The column vector of a family of blocks in the layout ``at``."""
    entries = {}
    for key, (offset, _, m) in at.items():
        for r, c, v in blocks[key].items():
            entries[offset + r * m + c, 0] = v
    return Mat.from_dict(field, (_size(at), 1), entries)


def _cochain_layouts(M, N):
    """Layouts of the vertexwise maps psi : M -> N and of the cochains c."""
    vertices = M.datum.vertices
    psi_at = _layout([(v, N.dims[v], M.dims[v]) for v in vertices])
    chain_at = _layout([(("eps", v), N.dims[v], M.dims[v]) for v in vertices]
                       + [(("arr", key), N.dims[key[0]], M.dims[key[1]])
                          for key in build_quiver(M.datum).arrows])
    return psi_at, chain_at


def hom_basis(M, N):
    """The canonical basis of Hom(M, N) as a list of Morphisms (see the
    module docstring), from the kernel of the relation matrix.  A kernel
    vector lists the images n_t in N of the generators of P0; the map it
    gives is f_w = Phi_w . sigma_w at each vertex w, where column (t, p) of
    Phi_w is the path p applied to n_t and sigma_w is a right inverse of the
    cover block at w.  The ranks of the relation matrix are kept for
    hom_dim and ext1_dim of the pair."""
    global _ranked
    pres, walks, rel = _relation_system(M, N)
    X = rel.nullspace_cols()
    e = X.ncols
    _ranked = (M, N, (rel.nrows, rel.ncols, rel.ncols - e))
    if not e:
        return []
    field = M.field
    psi_at, _ = _cochain_layouts(M, N)
    # the images n_t of the generators, one column per kernel vector
    n, start = [], 0
    for b in pres.gens0:
        n.append(X.row_slice(start, start + N.dims[b]))
        start += N.dims[b]
    cells = {}
    for w, cover in pres.cover.items():
        m = M.dims[w]
        if not m or not N.dims[w]:
            continue
        # a right inverse of the cover: S^-1 in the rows of its pivot columns S
        inverse = {}
        for c, j, y in cover.solve(Mat.identity(field, m)).items():
            inverse.setdefault(c, {})[j] = y
        # column c of the cover block is path p applied to generator t
        owner = [(t, k) for t, b in enumerate(pres.gens0) for k in range(len(walks[b][w]))]
        offset = psi_at[w][0]
        for c in sorted(inverse):
            t, k = owner[c]
            images = walks[pres.gens0[t]][w][k] @ n[t]
            for i, col, x in images.items():
                for j, y in inverse[c].items():
                    key = (offset + i * m + j, col)
                    cells[key] = cells[key] + x * y if key in cells else x * y
    V = Mat.from_dict(field, (_size(psi_at), e), cells)
    # the canonical basis is the RREF of the span with its coordinates reversed
    U = V.nrows
    R, _ = Mat.from_dict(field, (e, U), {(k, U - 1 - j): x for j, k, x in V.items()}).rref()
    basis = Mat.from_dict(field, (U, e), {(U - 1 - q, e - 1 - r): x for r, q, x in R.items()})
    return [Morphism(M, N, blocks) for blocks in _unvec(field, psi_at, basis)]


def hom_dim(M, N):
    """dim Hom(M, N): the kernel of the relation matrix, exact for every M
    because Hom(-, N) is left exact."""
    _, ncols, rank = _relation_rank(M, N)
    return ncols - rank


def kernel_rep(summands, blocks):
    """Kernel of the map with per-vertex ``blocks`` out of the direct sum of
    the modules ``summands``, and the blocks incl of its inclusion.  The sum
    is never built: ``Mat._diag_times`` multiplies the summands' maps into
    incl[j] at their offsets.  The kernel at v has the canonical basis
    incl[v] from ``nullspace_cols``, its maps read in that basis by
    ``Mat._coords``, from ``_read_off`` of each basis, taken once."""
    datum, field = summands[0].datum, summands[0].field
    incl = {v: blocks[v].nullspace_cols() for v in datum.vertices}
    dims = {v: incl[v].ncols for v in datum.vertices}
    read = {v: incl[v]._read_off() for v in datum.vertices}

    def restrict(i, j, diag, what):
        image = incl[j]._diag_times(diag, incl[i].nrows)
        if image.is_zero():
            return Mat.zeros(field, dims[i], dims[j])
        sol = incl[i]._coords(read[i], image)
        if sol is None:
            raise RuntimeError("kernel not stable under %s (not a morphism?)" % what)
        return sol

    eps = {v: restrict(v, v, [S.eps[v] for S in summands], "loop") for v in datum.vertices}
    arr = {key: restrict(key[0], key[1], [S.arr[key] for S in summands], "arrow")
           for key in build_quiver(datum).arrows}
    return Representation(datum, field, dims, eps, arr), incl


def cokernel_rep(f):
    """Cokernel of the morphism f : X -> Y, D ker(D f), over Y's datum."""
    K, _ = kernel_rep([dual_rep(f.dst)], {v: b.transpose() for v, b in f.blocks.items()})
    return dual_rep(K, f.dst.datum)


# ---------------------------------------------------------------------------
# End-ring analysis

# local: End M is local with residue field k
EndData = namedtuple("EndData", ["dim", "local"])


def end_analysis(M):
    """dim End M, and whether End M is local with residue field k.

    On the canonical basis, with b_s b_t = sum_k c_st^k b_k, End M is local
    with residue field k exactly when
      (i)  each basis map b has minimal polynomial (x - lam_b)^r, lam_b in k;
      (ii) b -> lam_b is multiplicative: sum_k c_st^k lam_k = lam_s lam_t.
    Then ker lam is an ideal of codimension 1 spanned by the nilpotents
    b - lam_b; no simple algebra is spanned by nilpotents, which have
    reduced trace 0, so ker lam is the radical (Auslander-Reiten-Smalo,
    I.4).  The minimal polynomial of b is the first relation of the Krylov
    chain 1, b, b^2, ... in coordinates.  lam_b is read off it without
    dividing by r, which p may divide: for r = q s with q the largest power
    of p dividing r (q = 1 over QQ), (x - lam)^r = (x^q - lam^q)^s and
    lam^q = lam, so lam = -(coefficient of x^(r-q)) / s.
    """
    basis = hom_basis(M, M)
    e = len(basis)
    field = M.field
    if e == 0:
        return EndData(0, False)

    at, _ = _cochain_layouts(M, M)
    V = Mat.hstack(*(_vec(field, at, b.blocks) for b in basis))
    read = V._read_off()

    def coords(maps):
        X = V._coords(read, Mat.hstack(*(_vec(field, at, m) for m in maps)))
        if X is None:       # V is the canonical basis, den 1
            raise RuntimeError("product of endomorphisms escaped End basis")
        return X

    one = coords([{v: Mat.identity(field, M.dims[v]) for v in M.datum.vertices}])
    lams, left = [], []
    for bs in basis:
        L = coords([bs.compose(bt).blocks for bt in basis])     # x -> b_s x
        chain = [one]
        for _ in range(e):
            chain.append(L @ chain[-1])
        f = Mat.hstack(*chain).nullspace_cols().col_vector(0)
        r = max(i for i, c in enumerate(f) if c)
        f = [field.convert(Fraction(c, f[r])) for c in f[:r + 1]]   # monic, x^0 first
        q = 1
        while field.p and r % (q * field.p) == 0:
            q *= field.p
        lam = field.convert(Fraction(-f[r - q], r // q))
        power = [1]
        for _ in range(r):
            power = [field.convert(a - lam * b) for a, b in zip([0] + power, power + [0])]
        if power != f:
            return EndData(e, False)
        lams.append(lam)
        left.append(L)
    want = [ls * lt for ls in lams for lt in lams]
    return EndData(e, Mat.from_rows(field, [lams]) @ Mat.hstack(*left) == Mat.from_rows(field, [want]))


# ---------------------------------------------------------------------------
# extensions and Ext^1

def extension_cocycle_space(M, N):
    """Basis of the linear space of valid extension cocycles for
    0 -> N -> E -> M -> 0 in block form [[N, c], [0, M]]: the cochains c for
    which E satisfies (H1) and (H2).  The residuals of E_c are linear in c,
    E_c being block upper-triangular with no product of two c blocks, so the
    system is read off one extension of M by N^k, k the number of cochain
    coordinates, whose cocycle q is the unit cochain at coordinate q: column
    q is block row q of the N^k-by-M corner of each residual.  Only
    perfbench and the tests call it."""
    field = M.field
    _, at = _cochain_layouts(M, N)
    k = _size(at)
    E = _extension(M, N, _unvec(field, at, Mat.identity(field, k)))
    cells = {}
    for (kind, key), R in _relation_residuals(E).items():
        offset, n, m = at[kind, key]
        j = key if kind == "eps" else key[1]
        top, left = k * n, k * N.dims[j]
        for r, c, x in R.items():
            if r < top and c >= left:
                q, r = divmod(r, n)
                cells[offset + r * m + c - left, q] = x
    return _unvec(field, at, Mat.from_dict(field, (k, k), cells).nullspace_cols())


def cocycle_is_coboundary(M, N, cocycle):
    """Does the extension E_c of M by N split?  Hom(M, -) is left exact, so
    E_c splits exactly when dim Hom(M, E_c) = dim Hom(M, N) + dim End M
    (Auslander-Reiten-Smalo I.5); a cochain that is not a cocycle raises
    ValueError in ``build_extension``.  Only perfbench and the tests call it."""
    return hom_dim(M, build_extension(M, N, cocycle)) == hom_dim(M, N) + hom_dim(M, M)


def _extension(M, N, cocycles):
    """Middle term of 0 -> N^k -> E -> M -> 0 in block form: N^k then M at
    each vertex, cocycle q in block row q of the block column of M; only
    the cocycle functions around it call it."""
    datum, field, k = M.datum, M.field, len(cocycles)
    dims = {v: [N.dims[v]] * k + [M.dims[v]] for v in datum.vertices}

    def stacked(key, of_N, of_M, i, j):
        grid = {(q, q): of_N for q in range(k)} | {(q, k): c[key] for q, c in enumerate(cocycles)}
        return Mat.block(field, {**grid, (k, k): of_M}, dims[i], dims[j])

    return make_rep(datum, field, {v: sum(d) for v, d in dims.items()},
                    {v: stacked(("eps", v), N.eps[v], M.eps[v], v, v) for v in datum.vertices},
                    {key: stacked(("arr", key), N.arr[key], M.arr[key], *key[:2]) for key in M.arr})


def build_extension(M, N, cocycle):
    """Middle term of 0 -> N -> E -> M -> 0: for perfbench and the tests."""
    E = _extension(M, N, [cocycle])
    bad = check_relations(E)
    if bad:
        raise ValueError(f"cocycle does not satisfy the relations: {bad}")
    return E


def _relation_system(M, N):
    """The minimal presentation P1 -> P0 -> M -> 0, the images in N of the
    basis paths from each generator b of P0 as {b: {w: images}}, and the
    relation matrix Hom(P0, N) -> Hom(P1, N) with Hom(P_b, N) = N_b: one
    block row per generator of P1, one block column per generator of P0,
    entry (s, t) of the presentation acting on N through the path images."""
    if M.datum != N.datum or M.field != N.field:
        raise ValueError("Hom between representations of different data/fields")
    from .artrans import _path_images, minimal_presentation
    from .pathalg import algebra_basis
    field, basis = N.field, algebra_basis(N.datum)
    pres = minimal_presentation(M)
    walks = {b: _path_images(N, basis, b, Mat.identity(field, N.dims[b])) for b in set(pres.gens0)}
    blocks = {}
    for (s, t), elt in pres.entries.items():
        a, b = pres.gens1[s], pres.gens0[t]
        acc = Mat.zeros(field, N.dims[a], N.dims[b])
        for mono, coeff in elt.items():
            acc = acc + walks[b][a][basis.index[mono]].scale(coeff)
        blocks[(s, t)] = acc
    rel = Mat.block(field, blocks, [N.dims[a] for a in pres.gens1], [N.dims[b] for b in pres.gens0])
    return pres, walks, rel


_ranked = (None, None, None)     # the pair ranked last, and (nrows, ncols, rank)


def _relation_rank(M, N):
    """(nrows, ncols, rank) of the relation matrix of (M, N).  The pair
    ranked last is kept, matched by ``is``, so hom_dim then ext1_dim on one
    pair ranks it once; modules are not changed after they are built."""
    global _ranked
    if _ranked[0] is M and _ranked[1] is N:
        return _ranked[2]
    rel = _relation_system(M, N)[2]
    _ranked = (M, N, (rel.nrows, rel.ncols, rel.rank()))
    return _ranked[2]


def ext1_dim(M, N):
    """dim Hom(Omega M, N) - rank of the relation matrix, by 0 -> Omega M ->
    P0 -> M -> 0.  Omega M is P1 for locally free M, of projective dimension
    <= 1 (Geiss-Leclerc-Schroer I), and dim Hom(P1, N) the matrix's rows."""
    nrows, _, rank = _relation_rank(M, N)
    if rank_vector(M) is None:
        from .artrans import minimal_presentation
        nrows = hom_dim(minimal_presentation(M).syzygy, N)
    return nrows - rank


def is_rigid(M):
    return ext1_dim(M, M) == 0


# ---------------------------------------------------------------------------
# isomorphism testing

# verdict: 'yes' | 'no' | 'unknown'
IsoResult = namedtuple("IsoResult", ["verdict", "certificate", "reason"], defaults=(None, ""))


def _invariants_differ(M, N):
    if M.dims != N.dims:
        return "dimension vectors differ"
    for v in M.datum.vertices:
        k = M.datum.d(v) - 1
        for m, n in zip(M.eps[v].powers(k), N.eps[v].powers(k)):
            if m.rank() != n.rank():
                return f"loop rank profile differs at vertex {v}"
    for key in M.arr:
        if M.arr[key].rank() != N.arr[key].rank():
            return f"arrow rank differs at {key}"
    return None


def is_isomorphic(M, N):
    """Isomorphism test with certificate, seeded for repeatable verdicts.

    'yes' comes with an invertible basis map of Hom(M, N), or, for an End M
    that is not local, an invertible combination of them found by a seeded
    search.  'no' comes from invariants, asymmetric Hom dimensions, or a
    local End M with no invertible basis map: an isomorphism phi would make
    Hom(M, N) = phi . End M, whose non-isomorphisms phi . rad End M form a
    hyperplane, and a basis does not lie in a hyperplane.
    """
    if M.datum != N.datum or M.field != N.field:
        return IsoResult("no", reason="different datum or field")
    obstruction = _invariants_differ(M, N)
    if obstruction:
        return IsoResult("no", reason=obstruction)
    if M.total_dim() == 0:
        return IsoResult("yes", certificate=Morphism(M, N, dict(M.eps)))
    basis = hom_basis(M, N)
    if not basis:
        return IsoResult("no", reason="Hom(M, N) = 0 with equal dimensions")
    for b in basis:
        if b.is_iso():
            return IsoResult("yes", certificate=b)
    # an isomorphism forces symmetric Hom dimensions; the two calls on N
    # share one presentation of N
    if hom_dim(N, M) != len(basis) or hom_dim(N, N) != hom_dim(M, M):
        return IsoResult("no", reason="Hom dimensions are asymmetric")
    if end_analysis(M).local:
        return IsoResult("no", reason="End M is local and no basis map of Hom(M, N) is invertible")
    # End M is not local (Z + Z, say): until Fitting's lemma splits it, search
    rng = random.Random(0)
    for trial in range(20):
        coeffs = [rng.randint(-1 - trial // 4, 1 + trial // 4) for _ in basis]
        cand = Morphism(M, N, {v: sum((b.blocks[v].scale(c) for c, b in zip(coeffs, basis) if c),
                                      Mat.zeros(M.field, N.dims[v], M.dims[v])) for v in M.datum.vertices})
        if cand.is_iso():
            return IsoResult("yes", certificate=cand)
    return IsoResult("unknown", reason="End M is not local and no invertible combination in 20 samples")

