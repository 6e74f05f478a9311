"""Theorem A spot-check: every positive root of an affine datum up to a
height bound is realized, the preprojective and preinjective ones by
translates, the regular ones by rank arithmetic on tubes and delta."""

import itertools

from .artrans import tau, tau_inverse, tau_walk
from .cartan import delta
from .catalogue import _FAMILIES, BadParams, UnknownType, named_datum
from .linalg import Field
from .modrep import rank_vector
from .pathalg import build_injective, build_projective
from .rootsys import _delta_multiple, classify_positive_root, coxeter_data, enumerate_positive_roots
from .zoo import _build_id, _report, _stated_tubes, _vec_add



def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _c_cycle_order(datum, ranks):
    """Order tube mouth ranks so consecutive entries are Coxeter translates."""
    cd = coxeter_data(datum)
    pool = list(ranks)
    order = [pool.pop(0)]
    while pool:
        nxt = tuple(cd.c_apply(order[-1]))
        if nxt not in pool:
            raise ValueError("mouth ranks do not form a single Coxeter orbit")
        pool.remove(nxt)
        order.append(nxt)
    if tuple(cd.c_apply(order[-1])) != tuple(order[0]):
        raise ValueError("mouth rank orbit does not close")
    return order


def _tube_sum_covers(root, cycles, dlt):
    """Where root is the rank of a module of a tube, given by its cycle of
    mouth ranks: the sum of ``length`` consecutive mouths, at most one
    cycle, plus ``extraDelta`` times delta.  A cycle sums to m.delta and a
    longer module adds whole cycles, so m divides ``extraDelta``."""
    for cyc in cycles:
        r = len(cyc)
        m = _delta_multiple(dlt, [sum(col) for col in zip(*cyc)])
        for start in range(r):
            acc = (0,) * len(dlt)
            for length in range(1, r + 1):
                acc = _vec_add(acc, cyc[(start + length - 1) % r])
                rem = _vec_sub(root, acc)
                extra = _delta_multiple(dlt, rem)
                if min(rem) >= 0 and extra is not None and extra % m == 0:
                    return {"length": length, "extraDelta": extra}
    return None


def theorem_a_spotcheck(type_id, n=None, height_bound=25, field=None):
    """Certify that every positive root up to the height bound is realized:
    preprojective and preinjective roots by explicit translate iterates,
    regular roots numerically by tube mouth sums or homogeneous modules."""
    row = _FAMILIES.get(type_id)
    if row is None or not row.spotcheck:
        known = [family for family, r in _FAMILIES.items() if r.spotcheck]
        raise UnknownType("no spot-check support for %r; known: %s" % (type_id, ", ".join(known)))
    if not isinstance(height_bound, int) or not 1 <= height_bound <= 40:
        raise BadParams("height bound must be an integer between 1 and 40")
    field = field if field is not None else Field.rational()
    datum = named_datum(type_id, n=row.size[1] if n is None and row.size else n)
    dlt = delta(datum)
    roots = enumerate_positive_roots(datum, height_bound)
    cycles = [
        _c_cycle_order(datum, [tuple(rank_vector(_build_id(datum, field, mid))) for mid, _ in stated])
        for stated, _ in _stated_tubes(datum, type_id)
    ]
    problems = []
    preproj = {}
    preinj = {}
    regular = []
    for root in roots:
        cls = classify_positive_root(datum, root)
        if cls.kind == "preprojective":
            preproj.setdefault(cls.vertex, []).append((cls.r, root))
        elif cls.kind == "preinjective":
            preinj.setdefault(cls.vertex, []).append((cls.r, root))
        elif cls.kind == "regular":
            regular.append(root)
        else:
            problems.append("enumerated root %s was not classified" % (root,))

    def realize(needs, seed, step):
        count = 0
        for vertex in sorted(needs):
            wanted = sorted(needs[vertex])
            start = seed(vertex)
            walk = itertools.islice(tau_walk(start, step), wanted[-1][0])
            ranks = [rank_vector(start)] + [rank_vector(M) for M in walk]
            for depth, root in wanted:
                # past the end of the walk the translates are zero
                got = ranks[depth] if depth < len(ranks) else (0,) * datum.n
                if got is None or tuple(got) != tuple(root):
                    problems.append(
                        "root %s: translate depth %d of vertex %d realized rank %s" % (root, depth, vertex, got)
                    )
                else:
                    count += 1
        return count

    realized_pp = realize(preproj, lambda v: build_projective(datum, field, v), tau_inverse)
    realized_pi = realize(preinj, lambda v: build_injective(datum, field, v), tau)

    via_tube = 0
    via_homog = 0
    for root in regular:
        cover = _tube_sum_covers(root, cycles, dlt)
        if cover is not None:
            via_tube += 1
            continue
        if row.homog and _delta_multiple(dlt, root):
            via_homog += 1
            continue
        problems.append("regular root %s is not covered" % (root,))
    evidence = {
        "datum": datum.name,
        "heightBound": height_bound,
        "roots": len(roots),
        "preprojective": realized_pp,
        "preinjective": realized_pi,
        "regularViaTubes": via_tube,
        "regularViaHomogeneous": via_homog,
    }
    return _report("thmA.%s" % type_id, problems, evidence)
