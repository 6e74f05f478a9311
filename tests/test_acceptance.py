"""Acceptance gate: one test per release criterion, exact arithmetic only.

Each test prints a single `criterion N (<label>): PASS|FAIL` line so the
suite output doubles as the release report.
"""

import random

from support import basis_dim, normalize_random
from tauforge.cartan import delta
from tauforge.catalogue import named_datum
from tauforge.pathalg import normalize
from tauforge.rootsys import (
    classify_positive_root,
    coxeter_data,
    c_period,
    enumerate_positive_roots,
    is_positive_root,
)
from tauforge.spotcheck import theorem_a_spotcheck
from tauforge.zoo import verify_proposition

ALL_DATA = [
    ("A11", {}),
    ("A12", {}),
    ("Bn", {"n": 3}),
    ("Cn", {"n": 3}),
    ("BCn", {"n": 3}),
    ("BDn", {"n": 4}),
    ("CDn", {"n": 4}),
    ("F41", {}),
    ("F42", {}),
    ("G21", {}),
    ("G22", {}),
    ("Atilde", {"n": 4}),
]


def _random_raw_path(datum, quiver_arrows, rng, max_len=4):
    src = rng.choice(list(datum.vertices))
    arrows = []
    v = src
    for _ in range(rng.randrange(max_len + 1)):
        outgoing = [key for key in quiver_arrows if key[1] == v]
        if not outgoing:
            break
        key = rng.choice(outgoing)
        arrows.append(key)
        v = key[0]
    verts = [src] + [key[0] for key in arrows]
    exps = [rng.randrange(2 * datum.d(u) + 2) for u in verts]
    return src, tuple(arrows), exps


def _changed(reports, unchanged_report):
    return ["%s report differs from its pinned digest" % r.check_id
            for r in reports if not unchanged_report(r)]


def _verdict(num, label, ok, detail=""):
    print("criterion %d (%s): %s%s" % (num, label, "PASS" if ok else "FAIL",
                                       " " + detail if detail else ""))
    assert ok, "criterion %d (%s) failed %s" % (num, label, detail)


def test_criterion_1_delta_values():
    expected = {
        ("A11", None): (2, 1),
        ("A12", None): (1, 1),
        ("Bn", 3): (1, 1, 1, 1),
        ("Bn", 4): (1, 1, 1, 1, 1),
        ("Bn", 5): (1, 1, 1, 1, 1, 1),
        ("G21", None): (1, 2, 1),
    }
    bad = []
    for (family, n), want in expected.items():
        cd = named_datum(family, n=n) if n else named_datum(family)
        if delta(cd) != want:
            bad.append((family, n, delta(cd)))
    _verdict(1, "kernel vectors", not bad, str(bad) if bad else "")


def test_criterion_2_bilinear_form_vs_homology(unchanged_report):
    report = verify_proposition("prop2.1")
    changed = _changed([report], unchanged_report)
    ok = report.passed and report.evidence["pairs"] >= 50 and not changed
    _verdict(2, "form = hom - ext on %d pairs" % report.evidence["pairs"], ok,
             report.evidence.get("failures", "") or "; ".join(changed))


def test_criterion_3_good_tubes(unchanged_report):
    single = {
        ("typeB", 3): 3,
        ("typeB", 4): 4,
        ("typeC", None): 3,
        ("typeBC", None): 3,
        ("typeG1", None): 2,
        ("typeG2", None): 2,
    }
    problems = []
    pinned = {}     # check id -> report at its suite defaults (typeB: n=3)
    for (cid, n), period in single.items():
        rep = verify_proposition(cid, n=n) if n else verify_proposition(cid)
        if n in (None, 3):
            pinned[cid] = rep
        if not rep.passed:
            problems.append("%s failed" % cid)
        elif rep.evidence["period"] != period:
            problems.append("%s period %s" % (cid, rep.evidence["period"]))
        elif not all(m["rigid"] for m in rep.evidence["mouths"]):
            problems.append("%s non-rigid mouth" % cid)
    g1 = pinned["typeG1"]
    if [m["endDim"] for m in g1.evidence["mouths"]] != [3, 3]:
        problems.append("typeG1 end dims")
    for pair, want in [(("typeBD1", "typeBD2"), {3, 2}),
                       (("typeCD1", "typeCD2"), {3, 2})]:
        got = set()
        for cid in pair:
            rep = pinned[cid] = verify_proposition(cid)
            if not rep.passed:
                problems.append("%s failed" % cid)
            else:
                got.add(rep.evidence["period"])
        if got != want:
            problems.append("%s periods %s" % ("/".join(pair), sorted(got)))
    for cid in ("typeF1", "typeF22"):
        rep = pinned[cid] = verify_proposition(cid)
        if not rep.passed:
            problems.append("%s failed" % cid)
            continue
        periods = sorted(t["period"] for t in rep.evidence["tubes"])
        if periods != [2, 3]:
            problems.append("%s tube periods %s" % (cid, periods))
        if not all(m["rigid"] for t in rep.evidence["tubes"] for m in t["mouths"]):
            problems.append("%s non-rigid mouth" % cid)
    rank3 = next(t for t in pinned["typeF22"].evidence["tubes"] if t["period"] == 3)
    if [m["endDim"] for m in rank3["mouths"]] != [1, 1, 1]:
        problems.append("typeF22 rank-3 end dims")
    pinned["typeA"] = verify_proposition("typeA")
    if not pinned["typeA"].passed:
        problems.append("typeA failed")
    problems += _changed(pinned.values(), unchanged_report)
    _verdict(3, "good tubes with certificates", not problems, "; ".join(problems))


def test_criterion_4_homogeneous_modules(unchanged_report):
    report = verify_proposition("prop:homog")
    expected_rank = {
        "A11.homog": (2, 1),
        "A12.homog": (1, 1),
        "G21.homog": (1, 2, 1),
        "Bn.MlamB": (1, 1, 1, 1),
    }
    entries = report.evidence["modules"]
    problems = []
    if not report.passed:
        problems.append("check failed")
    for e in entries:
        if not e["tauFixed"]:
            problems.append("%s m=%s not tau-fixed" % (e["id"], e["m"]))
        if tuple(e["rank"]) != expected_rank[e["id"]]:
            problems.append("%s rank %s" % (e["id"], e["rank"]))
    for mid in expected_rank:
        ms = sorted({e["m"] for e in entries if e["id"] == mid})
        if ms != [1, 2]:
            problems.append("%s multipliers %s" % (mid, ms))
    lams = sorted({e["lam"] for e in entries if e["id"] == "Bn.MlamB"})
    if len(lams) < 2:
        problems.append("only one lambda value: %s" % lams)
    problems += _changed([report], unchanged_report)
    _verdict(4, "homogeneous tau-fixed modules", not problems, "; ".join(problems))


def test_criterion_5_nonrigid_counterexamples(unchanged_report):
    table = {
        "main2.Bn": (3, 3),
        "main2.CDn": (2, 3),
        "main2.F41": (3, 3),
        "main2.G21": (2, 4),
    }
    problems = []
    for cid, (z_period, y_end) in table.items():
        rep = verify_proposition(cid)
        problems += _changed([rep], unchanged_report)
        if not rep.passed:
            problems.append("%s failed" % cid)
            continue
        z, y = rep.evidence["Z"], rep.evidence["Y"]
        if tuple(z["rank"]) != tuple(rep.evidence["delta"]):
            problems.append("%s Z rank" % cid)
        if z["endDim"] != 1 or z["selfExt"] != 1 or z["tauPeriod"] != z_period:
            problems.append("%s Z invariants %s" % (cid, z))
        if y["endDim"] != y_end or y["residueDim"] != 1:
            problems.append("%s Y end ring" % cid)
        if y["tauLocallyFree"] != "verified" or y["tauPeriod"] != z_period:
            problems.append("%s Y freeness" % cid)
        if y["rankRootStatus"] != "not_root":
            problems.append("%s Y rank is a root" % cid)
    _verdict(5, "non-rigid tau-periodic families", not problems, "; ".join(problems))


def test_criterion_6_functor_contracts(unchanged_report):
    problems = []
    for cid in ("prop2.4", "prop2.6", "prop2.7"):
        rep = verify_proposition(cid)
        problems += _changed([rep], unchanged_report)
        if not rep.passed:
            problems.append("%s failed" % cid)
            continue
        for entry in rep.evidence["data"]:
            if entry["modules"] < 30:
                problems.append("%s %s only %d modules"
                                % (cid, entry["datum"], entry["modules"]))
    _verdict(6, "reflection/translation contracts", not problems, "; ".join(problems))


def test_criterion_7_root_machinery_vs_enumeration():
    problems = []
    total = 0
    for family, kwargs in (("Bn", {"n": 3}), ("A11", {})):
        cd = named_datum(family, **kwargs)
        cox = coxeter_data(cd)
        dlt = delta(cd)
        roots = enumerate_positive_roots(cd, 30)
        total += len(roots)
        kinds = {"preprojective": 0, "preinjective": 0, "regular": 0}
        for v in roots:
            status = is_positive_root(cd, v)
            imaginary = all(x % dlt[t] == 0 for t, x in enumerate(v)) and \
                len({x // dlt[t] for t, x in enumerate(v)}) == 1
            if status not in ("real", "imaginary"):
                problems.append("%s: %s not recognised" % (cd.name, v))
                continue
            if (status == "imaginary") != imaginary:
                problems.append("%s: %s real/imaginary mismatch" % (cd.name, v))
            cls = classify_positive_root(cd, v)
            if cls.kind not in kinds:
                problems.append("%s: %s unclassified" % (cd.name, v))
                continue
            kinds[cls.kind] += 1
            if cls.kind == "preprojective":
                if cox.c_apply(cox.beta[cox.sequence.index(cls.vertex)], -cls.r) != v:
                    problems.append("%s: bad projective witness %s" % (cd.name, v))
                if c_period(cd, v) is not None:
                    problems.append("%s: %s also periodic" % (cd.name, v))
            elif cls.kind == "preinjective":
                if cox.c_apply(cox.gamma[cox.sequence.index(cls.vertex)], cls.r) != v:
                    problems.append("%s: bad injective witness %s" % (cd.name, v))
                if c_period(cd, v) is not None:
                    problems.append("%s: %s also periodic" % (cd.name, v))
            else:
                if c_period(cd, v) is None:
                    problems.append("%s: %s not periodic" % (cd.name, v))
        if sum(kinds.values()) != len(roots):
            problems.append("%s: trichotomy does not partition" % cd.name)
        if min(kinds.values()) == 0:
            problems.append("%s: empty class %s" % (cd.name, kinds))
        probes = {"B3": [(1, 0, 0, 1), (2, 0, 0, 0), (1, 0, 1, 0)],
                  "A11": [(2, 2), (0, 2), (1, 2)]}[cd.name]
        for w in probes:
            if is_positive_root(cd, w) != "not_root":
                problems.append("%s: %s accepted" % (cd.name, w))
    _verdict(7, "trichotomy on %d roots" % total, not problems,
             "; ".join(problems[:4]))


def test_criterion_8_dimension_formula_and_confluence():
    problems = []
    rng = random.Random(20260814)
    for family, kwargs in ALL_DATA:
        for m in (1, 2):
            cd = named_datum(family, m=m, **kwargs)
            cox = coxeter_data(cd)
            lhs = basis_dim(cd)
            rhs = sum(cd.d(j + 1) * beta[j]
                      for beta in cox.beta for j in range(cd.n))
            if lhs != rhs:
                problems.append("%s: dim %d != %d" % (cd.name, lhs, rhs))
                continue
            quiver_arrows = [(i, j, g) for (i, j) in cd.orientation
                             for g in range(1, cd.g(i, j) + 1)]
            for _ in range(1000):
                src, arrows, exps = _random_raw_path(cd, quiver_arrows, rng)
                a = normalize(cd, src, arrows, list(exps))
                b = normalize_random(cd, src, arrows, list(exps), rng)
                if a != b:
                    problems.append("%s: rewrite not confluent" % cd.name)
                    break
    _verdict(8, "dimension formula + confluence", not problems, "; ".join(problems))


def test_criterion_9_root_realization_spotcheck():
    report = theorem_a_spotcheck("Bn", n=3, height_bound=25)
    ev = report.evidence
    covered = (ev["preprojective"] + ev["preinjective"]
               + ev["regularViaTubes"] + ev["regularViaHomogeneous"])
    ok = report.passed and covered == ev["roots"] and ev["roots"] > 0
    _verdict(9, "all %d roots realized" % ev["roots"], ok)
