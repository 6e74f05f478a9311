"""Test-side helpers: a reader for path literals, and independent routes to
results the package computes another way, which the tests compare."""

import re

from tauforge.modrep import extension_cocycle_space, hom_dim
from tauforge.pathalg import Monomial, _absorb, _emit, arrow, loop, mono_mul

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


def ext1_dim_cocycle(M, N):
    """dim Ext^1(M, N) as cocycles modulo coboundaries, against the
    presentation route of ``modrep.ext1_dim``."""
    z = len(extension_cocycle_space(M, N))
    shifts = sum(N.dims[v] * M.dims[v] for v in M.datum.vertices)
    return z - shifts + hom_dim(M, N)
