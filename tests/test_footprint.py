"""The cost of compiling the package, which a cold start without a bytecode
cache pays once per module."""

import tracemalloc
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).resolve().parent


def _compile_peak(path):
    """Peak bytes that tracemalloc sees while ``compile`` runs on the file."""
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_module_compiles_much_larger_than_linalg():
    """CPython frees the compiler's scratch memory when compile() returns,
    but the allocator keeps it resident, so the largest module compiled in a
    process without a bytecode cache sets a high-water mark that perfbench's
    peak_rss_mb keeps.  A module whose compile peak outgrows linalg.py's by
    far raises the peak of every workload: split it instead."""
    base = _compile_peak(SRC / "linalg.py")
    ratios = {path.name: round(_compile_peak(path) / base, 2) for path in sorted(SRC.glob("*.py"))}
    assert {name: r for name, r in ratios.items() if r > 1.3} == {}
