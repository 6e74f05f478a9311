"""Spans around tauforge's public functions, installed from outside.

``install`` wraps every public function of each tauforge module, the public
methods of ``Mat``, ``Morphism`` and ``AlgebraBasis``, and rebinds every
module attribute that refers to a wrapped function, so names re-imported
into other modules (``from .modrep import hom_dim``) are traced too.  Each
call becomes one span: name, start, end and parent, kept in flat arrays in
memory and written out once, when the run ends.  ``layer_metrics`` turns the
spans into the per-layer counts and self times named in the README.
"""

import array
import functools
import gzip
import importlib
import json
import time

LAYERS = ("linalg", "cartan", "rootsys", "pathalg", "modrep", "artrans", "reflect", "zoo", "cli")
# (layer, class) -> the special methods traced besides the public ones
CLASSES = {
    ("linalg", "Mat"): ("__matmul__", "__add__", "__sub__", "__neg__"),
    ("modrep", "Morphism"): (),
    ("pathalg", "AlgebraBasis"): ("__init__",),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array.array("l")
        self.parents = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.iso_yes = 0
        self.elim_cells = 0
        self._stack = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` runs
        after the span closes."""
        nid = self._id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return traced

    def note_verdict(self, args, result):
        self.iso_yes += result.verdict == "yes"

    def note_cells(self, args, result):
        """rows x cols of the matrix eliminated (with the right-hand side for solve)."""
        mat = args[0]
        self.elim_cells += mat.nrows * (mat.ncols + (args[1].ncols if len(args) > 1 else 0))

    def write(self, path):
        """Spans as {"names": [...], "spans": [[name, start_us, end_us, parent], ...]}."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[n, round((s - t0) * 1e6), round((e - t0) * 1e6), p]
                 for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))


def install(tracer):
    """Wrap tauforge's public functions and methods."""
    modules = {layer: importlib.import_module("tauforge." + layer) for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            span = "%s.%s" % (layer, name)
            note = tracer.note_verdict if span == "modrep.is_isomorphic" else None
            wrapped[id(obj)] = (obj, tracer.wrap(span, obj, note))
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    for (layer, class_name), special in CLASSES.items():
        cls = getattr(modules[layer], class_name)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in special:
                continue
            span = "%s.%s.%s" % (layer, class_name, name)
            note = tracer.note_cells if span in GROUPS["linalg.elim"] else None
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(span, attr.__func__)))
            elif callable(attr) and not isinstance(attr, (staticmethod, type)):
                setattr(cls, name, tracer.wrap(span, attr, note))


# metric group -> the span names it sums
_ELIM = ("rank", "rref", "nullspace_cols", "column_space_cols", "solve", "inv")
_CONSTRUCT = ("from_rows", "from_dict", "zeros", "identity", "block")
GROUPS = {
    "linalg.elim": {"linalg.Mat." + m for m in _ELIM},
    "linalg.rank": {"linalg.Mat.rank"},
    "linalg.nullspace": {"linalg.Mat.nullspace_cols"},
    "linalg.matmul": {"linalg.Mat.__matmul__"},
    "linalg.construct": {"linalg.Mat." + m for m in _CONSTRUCT},
    "pathalg.projective": {"pathalg.build_projective", "pathalg.build_injective"},
    "pathalg.transport": {"pathalg.transport_dual"},
    "pathalg.basis": {"pathalg.algebra_basis", "pathalg.AlgebraBasis.__init__"},
    "modrep.hom": {"modrep.hom_basis", "modrep.hom_dim"},
    "modrep.ext1": {"modrep.ext1_dim"},
    "modrep.iso": {"modrep.is_isomorphic"},
    "modrep.kernel": {"modrep.kernel_rep"},
    "modrep.apply_monomial": {"modrep.apply_monomial"},
    "artrans.tau": {"artrans.tau", "artrans.tau_inverse"},
    "artrans.cover": {"artrans.projective_cover"},
    "artrans.presentation": {"artrans.minimal_presentation"},
    "reflect.functor": {"reflect.reflect_plus", "reflect.reflect_minus"},
    "reflect.coxeter": {"reflect.coxeter_functor"},
    "zoo.battery": {"zoo.module_battery"},
    "zoo.check": {"zoo.verify_proposition", "zoo.run_suite"},
    "cli": {"cli.main"},
}


def layer_metrics(tracer):
    """Counts and self times per layer, plus the useful-work ratios."""
    names = tracer.names
    n = len(tracer.starts)
    duration = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += duration[i]
    # ancestor flags: 1 = inside is_isomorphic, 2 = inside a translate
    flag_of = {"modrep.is_isomorphic": 1, "artrans.tau": 2, "artrans.tau_inverse": 2}
    inside = [0] * n
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    counts = {"iso_attempts": 0, "iso_hom_systems": 0, "translates": 0, "translate_ranks": 0}
    for i, (nid, parent) in enumerate(zip(tracer.name_ids, tracer.parents)):
        name = names[nid]
        above = inside[parent] if parent >= 0 else 0
        inside[i] = above | flag_of.get(name, 0)
        calls[nid] += 1
        self_s[nid] += duration[i] - child[i]
        if above & 1 and name == "modrep.Morphism.is_iso":
            counts["iso_attempts"] += 1
        if above & 1 and name in GROUPS["modrep.hom"]:
            counts["iso_hom_systems"] += 1
        if above & 2 and name == "artrans.minimal_presentation":
            counts["translates"] += 1
        if above & 2 and name == "linalg.Mat.rank":
            counts["translate_ranks"] += 1

    def group(key):
        members = GROUPS[key]
        ids = [i for i, name in enumerate(names) if name in members]
        return sum(calls[i] for i in ids), sum(self_s[i] for i in ids)

    def ratio(a, b):
        return a / b if b else 0.0

    g = {key: group(key) for key in GROUPS}
    rootsys = sum(self_s[i] for i, name in enumerate(names) if name.startswith("rootsys."))
    return {
        "linalg.elim.calls": (g["linalg.elim"][0], "count"),
        "linalg.elim.self_s": (g["linalg.elim"][1], "s"),
        "linalg.elim.cells": (tracer.elim_cells, "count"),
        "linalg.rank.calls": (g["linalg.rank"][0], "count"),
        "linalg.nullspace.calls": (g["linalg.nullspace"][0], "count"),
        "linalg.nullspace.self_s": (g["linalg.nullspace"][1], "s"),
        "linalg.matmul.calls": (g["linalg.matmul"][0], "count"),
        "linalg.matmul.self_s": (g["linalg.matmul"][1], "s"),
        "linalg.construct.calls": (g["linalg.construct"][0], "count"),
        "linalg.construct.self_s": (g["linalg.construct"][1], "s"),
        "pathalg.projective.calls": (g["pathalg.projective"][0], "count"),
        "pathalg.projective.self_s": (g["pathalg.projective"][1], "s"),
        "pathalg.transport.self_s": (g["pathalg.transport"][1], "s"),
        "pathalg.basis.self_s": (g["pathalg.basis"][1], "s"),
        "modrep.hom_systems": (g["modrep.hom"][0], "count"),
        "modrep.hom.self_s": (g["modrep.hom"][1], "s"),
        "modrep.ext1.calls": (g["modrep.ext1"][0], "count"),
        "modrep.ext1.self_s": (g["modrep.ext1"][1], "s"),
        "modrep.iso.calls": (g["modrep.iso"][0], "count"),
        "modrep.iso.self_s": (g["modrep.iso"][1], "s"),
        "modrep.iso_attempts": (counts["iso_attempts"], "count"),
        "modrep.iso_attempts_per_yes": (ratio(counts["iso_attempts"], tracer.iso_yes), "ratio"),
        "modrep.hom_systems_per_iso": (ratio(counts["iso_hom_systems"], g["modrep.iso"][0]), "ratio"),
        "modrep.kernel.calls": (g["modrep.kernel"][0], "count"),
        "modrep.kernel.self_s": (g["modrep.kernel"][1], "s"),
        "modrep.apply_monomial.calls": (g["modrep.apply_monomial"][0], "count"),
        "modrep.apply_monomial.self_s": (g["modrep.apply_monomial"][1], "s"),
        "artrans.translates": (counts["translates"], "count"),
        "artrans.tau.self_s": (g["artrans.tau"][1], "s"),
        "artrans.cover.self_s": (g["artrans.cover"][1], "s"),
        "artrans.presentation.self_s": (g["artrans.presentation"][1], "s"),
        "artrans.rank_calls_per_translate": (ratio(counts["translate_ranks"], counts["translates"]), "ratio"),
        "reflect.functor.calls": (g["reflect.functor"][0], "count"),
        "reflect.functor.self_s": (g["reflect.functor"][1], "s"),
        "reflect.coxeter.calls": (g["reflect.coxeter"][0], "count"),
        "rootsys.self_s": (rootsys, "s"),
        "zoo.battery.self_s": (g["zoo.battery"][1], "s"),
        "zoo.check.self_s": (g["zoo.check"][1], "s"),
        "cli.self_s": (g["cli"][1], "s"),
    }
