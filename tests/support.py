"""Test-side helpers: a reader and writer for path literals, independent
routes to results the package computes another way, which the tests
compare, the independent checker of ``perfbench/reference.py`` with the
conversions into its plain matrices and modules, the End-checked orbit
walk that only the tests call, and a broken multiplication map for the
reflection functor's unstable-kernel branch."""

import functools
import importlib.util
import re
from pathlib import Path

from tauforge.linalg import Mat
from tauforge.artrans import _walk_local_freeness, default_window, is_zero_rep
from tauforge.modrep import Morphism, direct_sum, end_analysis, extension_cocycle_space, zero_rep
from tauforge.pathalg import (Monomial, _absorb, _emit, algebra_basis, arrow, build_projective, loop,
                              mono_mul)

_TOKEN = re.compile(
    r"e\[(?P<unit>\d+)\]"
    r"|eps\[(?P<loopv>\d+)\](?:\^(?P<exp>\d+))?"
    r"|a\[(?P<to>\d+)<-(?P<fr>\d+)\](?:#(?P<g>\d+))?")


def unit(datum, v):
    """The trivial path e_v."""
    if v not in datum.vertices:
        raise ValueError(f"no vertex {v}")
    return Monomial(v, (), (0,))


def parse_path(datum, text):
    """Parse a path literal such as ``"a[2<-1]#1 eps[1]^3"`` (whitespace or
    ``*`` separated, rightmost letter acts first, as ``format_mono`` writes
    it) into canonical form."""
    letters = []
    cleaned = text.replace("*", " ")
    for chunk in cleaned.split():
        m = _TOKEN.fullmatch(chunk)
        if not m:
            raise ValueError(f"cannot parse path letter {chunk!r}")
        if m.group("unit"):
            letters.append((unit, int(m.group("unit"))))
        elif m.group("loopv"):
            letters.append((loop, int(m.group("loopv")), int(m.group("exp") or 1)))
        else:
            letters.append((arrow, int(m.group("to")), int(m.group("fr")), int(m.group("g") or 1)))
    if not letters:
        raise ValueError("empty path literal")
    mono = None
    for make, *args in reversed(letters):     # rightmost acts first
        piece = make(datum, *args)
        mono = piece if mono is None else mono_mul(datum, piece, mono)
        if mono is None:
            return None
    return mono


def format_mono(mono):
    """The path literal of a canonical path, as ``parse_path`` reads it."""
    if mono is None:
        return "0"
    parts = []
    v = mono.src
    if mono.exps[0]:
        parts.append(f"eps[{v}]" + (f"^{mono.exps[0]}" if mono.exps[0] > 1 else ""))
    for t, (i, j, g) in enumerate(mono.arrows):
        parts.append(f"a[{i}<-{j}]#{g}")
        e = mono.exps[t + 1]
        if e:
            parts.append(f"eps[{i}]" + (f"^{e}" if e > 1 else ""))
    if not parts:
        return f"e[{mono.src}]"
    return " ".join(reversed(parts))


def basis_dim(datum):
    """Dimension of the algebra: the number of basis paths."""
    basis = algebra_basis(datum)
    return sum(len(basis.paths(a, b)) for a in datum.vertices for b in datum.vertices)


def normalize_random(datum, src, arrows, exps, rng):
    """Same result as ``pathalg.normalize``, applying one applicable rewrite
    at a time in random order.  Used to exercise confluence."""
    arrows = tuple(arrows)
    exps = list(exps)
    verts = [src] + [key[0] for key in arrows]
    while True:
        moves = []
        for t, v in enumerate(verts):
            if exps[t] >= datum.d(v):
                moves.append(("kill", t))
            if t < len(arrows) and exps[t] >= _absorb(datum, arrows[t]):
                moves.append(("push", t))
        if not moves:
            return Monomial(src, arrows, tuple(exps))
        kind, t = rng.choice(moves)
        if kind == "kill":
            return None
        exps[t] -= _absorb(datum, arrows[t])
        exps[t + 1] += _emit(datum, arrows[t])


def coboundary_matrix(M, N):
    """The coboundary map of the pair, built here entry by entry: its
    columns are the coordinates of the maps psi in the vec layout of
    ``modrep`` (the blocks psi_v : M_v -> N_v vertex by vertex, each
    row-major), and its rows the equations psi_v eps_v = eps_v psi_v and
    psi_i M(a) = N(a) psi_j for each arrow a : j -> i."""
    field, vertices = M.field, M.datum.vertices
    at, size = {}, 0
    for v in vertices:
        at[v] = size
        size += N.dims[v] * M.dims[v]
    equations = []
    for (i, j), A, B in ([((v, v), M.eps[v], N.eps[v]) for v in vertices]
                         + [((key[0], key[1]), A, N.arr[key]) for key, A in M.arr.items()]):
        A, B = A.rows(), B.rows()
        for r in range(N.dims[i]):
            for c in range(M.dims[j]):
                row = {}
                for b in range(M.dims[i]):      # (psi_i A)[r][c]
                    u = at[i] + r * M.dims[i] + b
                    row[u] = row.get(u, 0) + A[b][c]
                for a in range(N.dims[j]):      # - (B psi_j)[r][c]
                    u = at[j] + a * M.dims[j] + c
                    row[u] = row.get(u, 0) - B[r][a]
                equations.append(row)
    return Mat.from_dict(field, (len(equations), size),
                         {(k, u): x for k, row in enumerate(equations) for u, x in row.items()})


def hom_basis_delta(M, N):
    """Hom(M, N) as the kernel of the coboundary map: the ``nullspace_cols``
    matrix of ``coboundary_matrix``."""
    return coboundary_matrix(M, N).nullspace_cols()


def ext1_dim_cocycle(M, N):
    """dim Ext^1(M, N) as cocycles modulo coboundaries, against the
    presentation route of ``modrep.ext1_dim``: the coboundaries are the
    image of the coboundary map, so their dimension is its rank."""
    return len(extension_cocycle_space(M, N)) - coboundary_matrix(M, N).rank()


@functools.cache
def reference():
    """``perfbench/reference.py``, which imports nothing of tauforge and shares
    no elimination code with ``tauforge.linalg``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    return ref


def plain(mat):
    """A Mat as a matrix of the reference checker."""
    ref = reference()
    return ref.from_dense(ref.Scalars(mat.field.p), mat.rows(), mat.shape)


def plain_datum(datum):
    return reference().Datum(datum.cartan, datum.symmetriser, datum.orientation)


def plain_module(M):
    return reference().Module(dict(M.dims), {v: plain(m) for v, m in M.eps.items()},
                              {key: plain(m) for key, m in M.arr.items()})


def reference_relation_problems(M):
    """The relations M breaks, by the reference checker."""
    ref = reference()
    return ref.check_relations(ref.Scalars(M.field.p), plain_datum(M.datum), plain_module(M))


def reference_certificate_problems(f):
    """The problems of the map f as an isomorphism, by the reference checker."""
    ref = reference()
    return ref.check_certificate(ref.Scalars(f.src.field.p), plain_datum(f.src.datum), plain_module(f.src),
                                 plain_module(f.dst), {v: plain(b) for v, b in f.blocks.items()})


def reference_monomorphism_problems(f):
    """The problems of the map f as an injective morphism, by the reference
    checker: the loops and arrows its blocks do not intertwine, and the
    vertices where it is not injective."""
    ref = reference()
    F = ref.Scalars(f.src.field.p)
    M, N = plain_module(f.src), plain_module(f.dst)
    phi = {v: plain(b) for v, b in f.blocks.items()}
    problems = ["not injective at %d" % v for v in M.dims if ref.rank(F, phi[v]) != M.dims[v]]
    problems += ["eps[%d]" % v for v in M.dims
                 if not ref.equal(ref.matmul(F, phi[v], M.eps[v]), ref.matmul(F, N.eps[v], phi[v]))]
    problems += ["a[%d<-%d]#%d" % key for key, a in sorted(M.arr.items())
                 if not ref.equal(ref.matmul(F, phi[key[0]], a), ref.matmul(F, N.arr[key], phi[key[1]]))]
    return problems


class NotIndecomposable(ValueError):
    pass


def is_tau_locally_free(M, window=None):
    """(status, period) of the walks of the orbit of an indecomposable M both
    ways, checking local freeness at every step; M whose End ring is not
    local with residue field k is refused."""
    if is_zero_rep(M):
        raise NotIndecomposable("zero module")
    end = end_analysis(M)
    if not end.local:
        raise NotIndecomposable("endomorphism ring is not local with residue field k")
    return _walk_local_freeness(M, default_window(M.datum) if window is None else window)


def apply_monomial(rep, mono):
    """Evaluate a canonical path on the representation, letter by letter: a
    matrix from dims[mono.src] to the path target."""
    m = Mat.identity(rep.field, rep.dims[mono.src])
    for _ in range(mono.exps[0]):
        m = rep.eps[mono.src] @ m
    for t, key in enumerate(mono.arrows):
        m = rep.arr[key] @ m
        for _ in range(mono.exps[t + 1]):
            m = rep.eps[key[0]] @ m
    return m


def presentation_map(pres, P0):
    """The map P1 -> P0 of a minimal presentation, into the module P0 of
    `projective_cover`: the generator of the s-th summand P_a of P1 goes to
    the sum over t of entry (s, t) in the t-th summand of P0, and a basis
    path p of P_a to p acting on that image."""
    datum, field = P0.datum, P0.field
    basis = algebra_basis(datum)
    images = []
    for s, a in enumerate(pres.gens1):
        cells, offset = {}, 0
        for t, b in enumerate(pres.gens0):
            for mono, coeff in pres.entries.get((s, t), {}).items():
                cells[(offset + basis.index[mono], 0)] = coeff
            offset += len(basis.paths(b, a))
        images.append((a, Mat.from_dict(field, (P0.dims[a], 1), cells)))
    P1 = (direct_sum([build_projective(datum, field, a) for a in pres.gens1])
          if pres.gens1 else zero_rep(datum, field))
    blocks = {w: Mat.zeros(field, P0.dims[w], 0).hstack(
        *(apply_monomial(P0, p) @ x for a, x in images for p in basis.paths(a, w)))
        for w in datum.vertices}
    return Morphism(P1, P0, blocks)


def unstable_multiplication(k, M, slots):
    """A stand-in for ``reflect._multiplication``: a map out of the tensor
    space T at k whose kernel is spanned by the first unit vector of slot 0
    alone.  Where slot 0 is (j, g, 0) with f(j, k) > 1, the loop of T takes
    that vector into slot 1, so the kernel is not stable under the loop."""
    n = sum(M.dims[j] for j, _, _ in slots)
    return Mat.from_dict(M.field, (n - 1, n), {(r, r + 1): 1 for r in range(n - 1)})
