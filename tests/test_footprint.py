"""The cost of compiling the package, which a cold start without a bytecode
cache pays once per module, what a cold start imports, and the rows that
kept modules hold."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import tauforge
from tauforge import artrans
from tauforge.artrans import tau
from tauforge.catalogue import named_datum
from tauforge.linalg import Field, Mat
from tauforge.modrep import Morphism, Representation, hom_basis
from tauforge.zoo import module_battery

SRC = Path(tauforge.__file__).resolve().parent


def _compile_peak(path):
    """Peak bytes that tracemalloc sees while ``compile`` runs on the file,
    the lesser of two runs: a run that interns a string when the table of
    interned strings is full pays for the table's growth, however small the
    file."""
    source = path.read_text()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def test_no_module_compiles_much_larger_than_linalg():
    """CPython frees the compiler's scratch memory when compile() returns,
    but the allocator keeps it resident, so the largest module compiled in a
    process without a bytecode cache sets a high-water mark that perfbench's
    peak_rss_mb keeps.  A module whose compile peak outgrows linalg.py's by
    far raises the peak of every workload: split it instead."""
    base = _compile_peak(SRC / "linalg.py")
    ratios = {path.name: round(_compile_peak(path) / base, 2) for path in sorted(SRC.glob("*.py"))}
    assert {name: r for name, r in ratios.items() if r > 1.1} == {}


def test_a_cold_start_loads_no_dataclasses_machinery():
    """dataclasses imports inspect, and with it ast and dis: 0.88 MiB that a
    fresh process would load before the package's modules compile."""
    code = "import sys, tauforge.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _reachable_mats(*roots):
    """Every ``Mat`` reachable from the roots through containers,
    representations, morphisms and matrices."""
    seen, stack, mats = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not isinstance(obj, (dict, list, tuple, Representation, Morphism, Mat)):
            continue
        seen.add(id(obj))
        if type(obj) is Mat:
            mats.append(obj)
        stack.extend(gc.get_referents(obj))
    return mats


def test_no_module_map_or_hom_basis_over_gfp_keeps_an_unshared_unit_row():
    """A row {k: 1} or {k: p - 1} is the one row of its field's table
    wherever it is kept: in the modules of a battery, their translates and
    the Hom bases between them, and the cover blocks of a kept
    presentation.  Over GF(32003), with the first 30 modules of the B3
    battery, their translates and five Hom bases, 100 such rows were not the
    table's while only the rows {k: 1} of some routines were shared, and
    GF(p) rows {k: p - 1} never were; the kept cover held 2 more while its
    blocks were built from raw rows."""
    F = Field.prime(32003)
    mods = [M for _, M in module_battery(named_datum("Bn", n=3), F, 30)]
    taus = [tau(M).module for M in mods]
    # the first five pairs i < j of the battery with Hom(M_i, M_j) != 0
    bases = [hom_basis(mods[i], mods[j]) for i, j in ((0, 8), (1, 9), (1, 16), (1, 17), (1, 18))]
    assert all(bases)
    # the cover of the module presented last, which minimal_presentation keeps
    cover = artrans._presented[1].cover
    unshared = {id(row) for m in _reachable_mats(mods, taus, bases, cover) for row in m._data.values()
                if type(row) is dict and len(row) == 1 and next(iter(row.values())) in (1, F.p - 1)}
    assert len(unshared) == 0
