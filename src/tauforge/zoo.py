"""Scripted checks of the catalogue's claims and of GLS I.

`verify_proposition` runs named verification scenarios that certify the
advertised properties (rank vectors, rigidity, tube periods, endomorphism
dimensions) with explicit isomorphism certificates; `spotcheck` cross-checks
the root classification against realized modules.
"""

import itertools
from collections import namedtuple
from fractions import Fraction

from .artrans import (_walk_local_freeness, default_window, is_zero_rep, orbit_walk, tau, tau_inverse,
                      tau_walk)
from .cartan import admissible_sequence, delta
from .catalogue import (_FAMILIES, _MODULE_TABLE, BadParams, _mod_Atilde_interval, _spread, _take_params,
                        build_named, named_datum)
from .linalg import Field
from .modrep import (
    cokernel_rep,
    end_analysis,
    ext1_dim,
    free_simple,
    hom_basis,
    hom_dim,
    is_isomorphic,
    is_rigid,
    rank_vector,
)
from .pathalg import build_injective, build_projective
from .reflect import coxeter_functor, counit, reflect_minus, reflect_plus, twist, unit
from .rootsys import _unit, bilinear, c_period, coxeter_data, is_positive_root, simple_reflection


class UnknownCheck(ValueError):
    """Requested check id is not registered."""


# --------------------------------------------------------------------------
# reports


class CheckReport(namedtuple("CheckReport", ["check_id", "status", "evidence"])):
    """status is 'pass' or 'fail'."""

    __slots__ = ()

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {"checkId": self.check_id, "status": self.status, "evidence": _jsonable(self.evidence)}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _report(check_id, problems, evidence):
    evidence = dict(evidence)
    if problems:
        evidence["problems"] = list(problems)
    return CheckReport(check_id, "fail" if problems else "pass", evidence)


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# --------------------------------------------------------------------------
# tube certification


def _stated_tubes(datum, family):
    """The family's tubes at this datum's size, each as a list of (mouth id,
    stated rank) in tau-order and the stated dim End or None."""
    tubes = []
    for tube in _FAMILIES[family].tubes:
        run = range(tube.simples, datum.n) if tube.simples else ()
        stated = [("E%d" % k, _unit(datum.n, k)) for k in run]
        stated += [(mid, _spread(rank, datum.n)) for mid, rank in tube.mouths]
        tubes.append((stated, tube.end))
    return tubes


def _build_id(datum, field, module_id):
    """A module named by a catalogue id, or by E<k> for the simple at k."""
    if module_id.startswith("E"):
        return free_simple(datum, field, int(module_id[1:]))
    return _MODULE_TABLE[module_id][1](datum, field)


def _certify_tube(datum, field, stated, expected_end):
    """Certify one tube: stated mouth invariants plus a closed tau-orbit
    through exactly the stated mouths (isomorphism certificates checked)."""
    mouths = [(mid.rpartition(".")[2], _build_id(datum, field, mid)) for mid, _ in stated]
    problems = []
    mouth_ev = []
    for (label, M), (_, want) in zip(mouths, stated):
        rk = rank_vector(M)
        ed = end_analysis(M)
        rigid = is_rigid(M)
        mouth_ev.append(
            {
                "label": label,
                "rank": list(rk) if rk is not None else None,
                "endDim": ed.dim,
                "residueDim": 1 if ed.local else None,
                "rigid": rigid,
            }
        )
        if rk is None or tuple(rk) != tuple(want):
            problems.append("%s: rank %s, expected %s" % (label, rk, tuple(want)))
        if not rigid:
            problems.append("%s: not rigid" % label)
        if not ed.local:
            problems.append("%s: endomorphism ring not local" % label)
        if expected_end is not None and ed.dim != expected_end:
            problems.append("%s: dim End = %d, stated %d" % (label, ed.dim, expected_end))
    order = [mouths[0][0]]
    remaining = list(mouths[1:])
    closed = False
    for _, cur, returned in orbit_walk(mouths[0][1], len(mouths)):
        if not remaining:
            closed = returned
            break
        hit = next((idx for idx, (_, cand) in enumerate(remaining)
                    if is_isomorphic(cur, cand).verdict == "yes"), None)
        if hit is None:
            break
        order.append(remaining.pop(hit)[0])
    if remaining:
        problems.append("tau-orbit left the stated mouth set after %s" % order[-1])
    elif not closed:
        problems.append("tau-orbit failed to close after %d steps" % len(mouths))
    evidence = {
        "period": len(mouths),
        "tauOrder": order,
        "orbitClosed": closed,
        "mouths": mouth_ev,
    }
    return problems, evidence


def _tube_check(check_id, field, family, *tube_indices, n=None):
    datum = named_datum(family, n=n)
    tubes = _stated_tubes(datum, family)
    problems = []
    tube_ev = []
    for idx in tube_indices:
        probs, ev = _certify_tube(datum, field, *tubes[idx])
        problems.extend(probs)
        tube_ev.append(ev)
    evidence = {"datum": datum.name, "delta": list(delta(datum))}
    if len(tube_ev) == 1:
        evidence.update(tube_ev[0])
    else:
        evidence["tubes"] = tube_ev
    return _report(check_id, problems, evidence)


def _check_typeBD2(check_id, field, family, *tube_indices, n):
    report = _tube_check(check_id, field, family, *tube_indices, n=n)
    datum = named_datum(family, n=n)
    stated, _ = _stated_tubes(datum, family)[tube_indices[0]]
    a = stated[0][1]
    pairing = bilinear(datum, a, a)
    report.evidence["selfPairing"] = pairing
    if pairing != 1:
        problems = report.evidence.get("problems", []) + ["<rank M2, rank M2> = %d, expected 1" % pairing]
        return _report(check_id, problems, report.evidence)
    return report


# --------------------------------------------------------------------------
# homogeneous modules and interval modules


def _homog_entry(module_id, datum, M, extras, problems, items):
    dlt = delta(datum)
    rk = rank_vector(M)
    entry = dict(extras)
    entry["id"] = module_id
    entry["rank"] = list(rk) if rk is not None else None
    if rk is None or tuple(rk) != dlt:
        problems.append("%s %s: rank %s, expected delta %s" % (module_id, extras, rk, dlt))
    shifted = tau(M).module
    fixed = is_isomorphic(shifted, M).verdict == "yes"
    entry["tauFixed"] = fixed
    if not fixed:
        problems.append("%s %s: tau M is not isomorphic to M" % (module_id, extras))
    items.append(entry)


def _check_homog(check_id, field, family, n):
    """The homogeneous modules of the fixed-size families, then the family's
    deformation family M_lam at size n.  A lam that is 0 in the field (lam = 2
    over GF(2)) gives no module; its refusal is one problem of the report."""
    fixed = [row.homog for row in _FAMILIES.values() if row.homog and row.size is None]
    deformed = _FAMILIES[family].homog
    problems = []
    items = []
    refused = {}
    for m in (1, 2):
        for module_id in fixed:
            datum, M = build_named(module_id, field=field, m=m)
            _homog_entry(module_id, datum, M, {"m": m}, problems, items)
        for lam in (1, 2):
            try:
                datum, M = build_named(deformed, field=field, n=n, m=m, lam=lam)
            except BadParams as exc:
                refused.setdefault(lam, "%s lam=%d: %s" % (deformed, lam, exc))
                continue
            _homog_entry(deformed, datum, M, {"m": m, "lam": lam}, problems, items)
    problems += refused.values()
    evidence = {"modules": items}
    if not refused:
        _, M1 = build_named(deformed, field=field, n=n, m=1, lam=1)
        _, M2 = build_named(deformed, field=field, n=n, m=1, lam=2)
        # recorded for information only; no stated expectation either way
        evidence["distinctLambdaIso"] = {"verdict": is_isomorphic(M1, M2).verdict, "asserted": False}
    return _report(check_id, problems, evidence)


def _check_intervals(check_id, field, family, n, m):
    datum = named_datum(family, n=n, m=m)
    problems = []
    checked = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            length = (j - i) % n + 1
            if length == n:
                continue  # full cycle: not a proper interval
            M = _mod_Atilde_interval(datum, field, m, i, j)
            ed = end_analysis(M)
            if ed.dim != m:
                problems.append("M(%d,%d): dim End = %d, expected %d" % (i, j, ed.dim, m))
            if not is_rigid(M):
                problems.append("M(%d,%d): not rigid" % (i, j))
            rk = rank_vector(M)
            want = tuple(1 if (v - i) % n < length else 0 for v in range(1, n + 1))
            if rk is None or tuple(rk) != want:
                problems.append("M(%d,%d): rank %s, expected %s" % (i, j, rk, want))
            checked += 1
    evidence = {"datum": datum.name, "properIntervals": checked, "endDim": m}
    return _report(check_id, problems, evidence)


def _check_lem0(check_id, field, family, n):
    datum = named_datum(family, n=n)
    problems = []
    periodic = []
    for i in datum.vertices:
        r = c_period(datum, _unit(datum.n, i))
        if r is None:
            continue
        periodic.append({"vertex": i, "period": r})
        M = free_simple(datum, field, i)
        closed = False
        for step, cur, returned in orbit_walk(M, r):
            if rank_vector(cur) is None:
                problems.append("E%d: tau^%d iterate is not locally free" % (i, step))
                break
            closed = returned and step == r
            if step < r and not is_rigid(cur):
                problems.append("E%d: tau^%d iterate is not rigid" % (i, step))
        else:
            if not closed:
                problems.append("E%d: tau^%d E is not isomorphic to E" % (i, r))
        if not is_rigid(M):
            problems.append("E%d: not rigid" % i)
    evidence = {"datum": datum.name, "periodicSimples": periodic}
    return _report(check_id, problems, evidence)


# --------------------------------------------------------------------------
# non-rigid tubes and counterexample modules


def _exact_sequence(X, Y, Z):
    """A canonical basis map f of Hom(X, Y) injective at every vertex whose
    cokernel is certified isomorphic to Z, so that 0 -> X -> Y -> Z -> 0 is
    exact (Auslander-Reiten-Smalo I.5), or None.  It does not split when Y
    is indecomposable, as the End check of Y shows."""
    injective = (f for f in hom_basis(X, Y) if all(b.rank() == X.dims[v] for v, b in f.blocks.items()))
    return next((f for f in injective if is_isomorphic(cokernel_rep(f), Z).verdict == "yes"), None)


def _check_main2(check_id, field, family, n=None):
    datum = named_datum(family, n=n)
    z_id, y_id, x_id, y_end = _FAMILIES[family].pair
    Z, Y, X = (_build_id(datum, field, mid) for mid in (z_id, y_id, x_id))
    # Z and its extension Y by the mouth X both have the period of X's tube
    tubes = _stated_tubes(datum, family)
    expected_period = next(len(stated) for stated, _ in tubes if x_id in dict(stated))
    dlt = delta(datum)
    problems = []
    evidence = {"datum": datum.name, "delta": list(dlt)}

    rz = rank_vector(Z)
    evidence["Z"] = {"rank": list(rz) if rz is not None else None}
    if rz is None or tuple(rz) != dlt:
        problems.append("Z: rank %s, expected delta %s" % (rz, dlt))
    edz = end_analysis(Z)
    evidence["Z"]["endDim"] = edz.dim
    if edz.dim != 1:
        problems.append("Z: dim End = %d, expected 1" % edz.dim)
    self_ext = ext1_dim(Z, Z)
    evidence["Z"]["selfExt"] = self_ext
    if self_ext != 1:
        problems.append("Z: dim Ext^1(Z, Z) = %d, expected 1" % self_ext)
    pz = next((k for k, _, returned in orbit_walk(Z, expected_period + 1) if returned), None)
    evidence["Z"]["tauPeriod"] = pz
    if pz != expected_period:
        problems.append("Z: tau-period %s, expected %d" % (pz, expected_period))

    edy = end_analysis(Y)
    evidence["Y"] = {"endDim": edy.dim, "residueDim": 1 if edy.local else None}
    if not edy.local:
        problems.append("Y: endomorphism ring not local")
    if edy.dim != y_end:
        problems.append("Y: dim End = %d, expected %d" % (edy.dim, y_end))
    if edy.local:  # the orbit walk takes Y indecomposable
        status, py = _walk_local_freeness(Y, default_window(datum))
        evidence["Y"]["tauLocallyFree"] = status
        evidence["Y"]["tauPeriod"] = py
        if status != "verified" or py != expected_period:
            problems.append(
                "Y: tau-local-freeness %s with period %s, expected verified period %d"
                % (status, py, expected_period)
            )
    ry = rank_vector(Y)
    want = _vec_add(dlt, rank_vector(X))
    evidence["Y"]["rank"] = list(ry) if ry is not None else None
    if ry is None or tuple(ry) != want:
        problems.append("Y: rank %s, expected delta + rank X = %s" % (ry, want))
    root_status = is_positive_root(datum, ry) if ry is not None else None
    evidence["Y"]["rankRootStatus"] = root_status
    if root_status != "not_root":
        problems.append("Y: rank vector unexpectedly a root (%s)" % (root_status or "?"))

    reproduced = _exact_sequence(X, Y, Z) is not None
    evidence["Y"]["extensionRoute"] = reproduced
    if not reproduced:
        problems.append("Y: no extension of Z by X reproduces Y")
    return _report(check_id, problems, evidence)


# --------------------------------------------------------------------------
# functor contract suites


_batteries = {}    # (datum, name, field) -> (modules so far, generator of the rest)


def module_battery(datum, field, size):
    """The first ``size`` of the indecomposable locally free modules for
    exercising functor contracts: generalised simples, projectives,
    injectives, then translate iterates.  Each datum and field has one
    battery, grown on demand, so a battery is a prefix of every larger one
    and shares its module objects, with the translates they keep.  Data
    that differ only in name are equal, so the name is part of the key: the
    modules carry the caller's datum."""
    mods, rest = _batteries.setdefault((datum, datum.name, field), ([], _battery_modules(datum, field)))
    while len(mods) < size:
        mods.append(next(rest))
    return mods[:size]


def _battery_modules(datum, field):
    """Every battery member in order: the walks run round-robin, one step
    each per round; affine walks from projectives and injectives never
    reach zero."""
    proj = {v: build_projective(datum, field, v) for v in datum.vertices}
    inj = {v: build_injective(datum, field, v) for v in datum.vertices}
    yield from (("E%d" % v, free_simple(datum, field, v)) for v in datum.vertices)
    yield from (("P%d" % v, proj[v]) for v in datum.vertices)
    yield from (("I%d" % v, inj[v]) for v in datum.vertices)
    walks = [("tau^-%d.P%d", v, tau_walk(proj[v], tau_inverse)) for v in datum.vertices]
    walks += [("tau^%d.I%d", v, tau_walk(inj[v], tau)) for v in datum.vertices]
    for k in itertools.count(1):
        for label, v, walk in walks:
            yield label % (k, v), next(walk)


def _contract_data(family, n):
    return [named_datum("A11"), named_datum(family, n=n)]


def _check_prop2_1(check_id, field, family, n, size):
    problems = []
    datum_ev = []
    total = 0
    for datum in _contract_data(family, n) + [named_datum("G21")]:
        mods = module_battery(datum, field, size)
        pairs = 0
        for la, M in mods:
            for lb, N in mods:
                lhs = hom_dim(M, N) - ext1_dim(M, N)
                rhs = bilinear(datum, rank_vector(M), rank_vector(N))
                if lhs != rhs:
                    problems.append(
                        "%s: <%s, %s> pairing %d, homological value %d" % (datum.name, la, lb, rhs, lhs)
                    )
                pairs += 1
        datum_ev.append({"datum": datum.name, "pairs": pairs})
        total += pairs
    return _report(check_id, problems, {"data": datum_ev, "pairs": total})


def _support(M):
    return {v for v in M.datum.vertices if M.dims[v] > 0}


def _check_prop2_4(check_id, field, family, n, size):
    problems = []
    datum_ev = []
    for datum in _contract_data(family, n):
        sink = admissible_sequence(datum)[0]
        source = next(v for v in datum.vertices if datum.is_source(v))
        verified = 0
        for label, M in module_battery(datum, field, size):
            base = rank_vector(M)
            if _support(M) <= {sink}:
                continue
            plus = reflect_plus(datum, sink, M)
            want = tuple(simple_reflection(datum, sink, base))
            got = rank_vector(plus)
            if got is None or tuple(got) != want:
                problems.append("%s/%s: rank F+ = %s, expected s_k = %s" % (datum.name, label, got, want))
            back = reflect_minus(plus.datum, sink, plus)
            if counit(sink, back, M) is None:
                problems.append("%s/%s: F-F+ round trip lost the module" % (datum.name, label))
            if _support(M) <= {source}:
                continue
            minus = reflect_minus(datum, source, M)
            got = rank_vector(minus)
            want = tuple(simple_reflection(datum, source, base))
            if got is None or tuple(got) != want:
                problems.append("%s/%s: rank F- = %s, expected s_k = %s" % (datum.name, label, got, want))
            forth = reflect_plus(minus.datum, source, minus)
            if unit(source, M, forth) is None:
                problems.append("%s/%s: F+F- round trip lost the module" % (datum.name, label))
            verified += 1
        datum_ev.append({"datum": datum.name, "modules": verified, "sink": sink, "source": source})
        if verified < 30:
            problems.append("%s: only %d modules exercised" % (datum.name, verified))
    return _report(check_id, problems, {"data": datum_ev})


def _check_prop2_6(check_id, field, family, n, size):
    problems = []
    datum_ev = []
    for datum in _contract_data(family, n):
        verified = 0
        for label, M in module_battery(datum, field, size):
            lhs = tau(M).module
            rhs = twist(coxeter_functor(datum, "+", M))
            if is_zero_rep(lhs) and is_zero_rep(rhs):
                verified += 1
                continue
            if is_zero_rep(lhs) != is_zero_rep(rhs):
                problems.append("%s/%s: exactly one of tau M, T C+ M vanished" % (datum.name, label))
                continue
            if is_isomorphic(lhs, rhs).verdict != "yes":
                problems.append("%s/%s: tau M and T C+ M are not isomorphic" % (datum.name, label))
                continue
            verified += 1
        datum_ev.append({"datum": datum.name, "modules": verified})
        if verified < 30:
            problems.append("%s: only %d modules exercised" % (datum.name, verified))
    return _report(check_id, problems, {"data": datum_ev})


def _check_prop2_7(check_id, field, family, n, size):
    problems = []
    datum_ev = []
    for datum in _contract_data(family, n):
        cd = coxeter_data(datum)
        exercised = 0
        comparisons = 0
        for label, M in module_battery(datum, field, size):
            base = rank_vector(M)
            steps = 0
            # projectives die; the identity is vacuous past the end of the walk
            for k, cur in enumerate(itertools.islice(tau_walk(M, tau), 3), start=1):
                want = cd.c_apply(base, k)
                got = rank_vector(cur)
                if got is None or tuple(got) != tuple(want):
                    problems.append(
                        "%s/%s: rank tau^%d = %s, expected c^%d = %s" % (datum.name, label, k, got, k, want)
                    )
                steps += 1
                comparisons += 1
            if steps:
                exercised += 1
        datum_ev.append({"datum": datum.name, "modules": exercised, "comparisons": comparisons})
        if exercised < 30:
            problems.append("%s: only %d modules exercised" % (datum.name, exercised))
    return _report(check_id, problems, {"data": datum_ev})


# --------------------------------------------------------------------------
# check registry


# check id -> (check, datum family whose n it takes, tube indices for the tube
# checks, parameters a caller may set with their defaults); a check of a sized
# family also takes n, by default the family's
_CHECK_TABLE = {
    "prop:homog": (_check_homog, "Bn", (), {}),
    "typeA": (_check_intervals, "Atilde", (), {"m": 2}),
    "typeB": (_tube_check, "Bn", (0,), {}),
    "typeC": (_tube_check, "Cn", (0,), {}),
    "typeBC": (_tube_check, "BCn", (0,), {}),
    "typeBD1": (_tube_check, "BDn", (0,), {}),
    "typeBD2": (_check_typeBD2, "BDn", (1,), {}),
    "typeCD1": (_tube_check, "CDn", (0,), {}),
    "typeCD2": (_tube_check, "CDn", (1,), {}),
    "typeF1": (_tube_check, "F41", (0, 1), {}),
    "typeF22": (_tube_check, "F42", (0, 1), {}),
    "typeG1": (_tube_check, "G21", (0,), {}),
    "typeG2": (_tube_check, "G22", (0,), {}),
    "lem0": (_check_lem0, "Bn", (), {}),
    "main2.Bn": (_check_main2, "Bn", (), {}),
    "main2.CDn": (_check_main2, "CDn", (), {}),
    "main2.F41": (_check_main2, "F41", (), {}),
    "main2.G21": (_check_main2, "G21", (), {}),
    "prop2.1": (_check_prop2_1, "Bn", (), {"size": 10}),
    "prop2.4": (_check_prop2_4, "Bn", (), {"size": 38}),
    "prop2.6": (_check_prop2_6, "Bn", (), {"size": 30}),
    "prop2.7": (_check_prop2_7, "Bn", (), {"size": 38}),
}


def all_check_ids():
    return sorted(_CHECK_TABLE)


def verify_proposition(check_id, field=None, **params):
    """Run one named check; returns a CheckReport with pass/fail evidence."""
    if check_id not in _CHECK_TABLE:
        raise UnknownCheck("unknown check id %r; known: %s" % (check_id, ", ".join(all_check_ids())))
    fn, family, args, defaults = _CHECK_TABLE[check_id]
    size = _FAMILIES[family].size
    if size is not None:
        defaults = dict(defaults, n=size[1])
    merged = _take_params({k: v for k, v in params.items() if v is not None}, defaults)
    field = field if field is not None else Field.rational()
    return fn(check_id, field, family, *args, **merged)


def select_check_ids(filter_id=None):
    """The check ids a filter selects, in check-id order: the one check it
    names exactly, otherwise every id that contains it."""
    ids = all_check_ids()
    if not filter_id:
        return ids
    if filter_id in ids:
        return [filter_id]
    return [cid for cid in ids if filter_id in cid]


def run_suite(filter_id=None, field=None, n=None):
    """Run the checks that ``select_check_ids(filter_id)`` picks, in
    deterministic check-id order."""
    reports = []
    for check_id in select_check_ids(filter_id):
        params = {}
        if n is not None and _FAMILIES[_CHECK_TABLE[check_id][1]].size is not None:
            params["n"] = n
        reports.append(verify_proposition(check_id, field=field, **params))
    return reports

