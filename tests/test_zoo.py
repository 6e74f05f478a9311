"""Catalogue construction, named checks, and the spot-check driver."""

import hashlib
import json

import pytest

from support import (plain, plain_datum, plain_module, reference, reference_certificate_problems,
                     reference_monomorphism_problems)
from tauforge import artrans, catalogue, modrep, zoo
from tauforge.artrans import tau
from tauforge.cartan import CartanDatum, delta
from tauforge.catalogue import (BadParams, UnknownId, UnknownType, _Row, build_named, datum_from_name, named_datum,
                                named_module_ids)
from tauforge.linalg import Field
from tauforge.modio import rep_to_json
from tauforge.modrep import check_relations, rank_vector
from tauforge.spotcheck import _tube_sum_covers, theorem_a_spotcheck
from tauforge.zoo import (
    CheckReport,
    UnknownCheck,
    all_check_ids,
    module_battery,
    run_suite,
    verify_proposition,
)


# ---------------------------------------------------------------------------
# Named data


def test_named_datum_names_and_delta():
    cases = [
        (("A11",), {}, "A11", (2, 1)),
        (("Bn",), {"n": 3}, "B3", (1, 1, 1, 1)),
        (("Bn",), {"n": 3, "m": 2}, "B3m2", (1, 1, 1, 1)),
        (("CDn",), {"n": 4, "m": 2}, "CD4m2", (1, 1, 2, 2, 1)),
        (("Atilde",), {"n": 4}, "At4", (1, 1, 1, 1)),
        (("F41",), {}, "F41", (1, 2, 3, 2, 1)),
        (("G22",), {}, "G22", (1, 2, 3)),
    ]
    for args, kwargs, name, dlt in cases:
        cd = named_datum(*args, **kwargs)
        assert cd.name == name
        assert delta(cd) == dlt


def test_named_datum_errors():
    with pytest.raises(UnknownId):
        named_datum("Zn", n=3)
    with pytest.raises(BadParams):
        named_datum("Bn")            # n required
    with pytest.raises(BadParams):
        named_datum("G21", n=5)      # fixed-size family takes no n
    with pytest.raises(BadParams):
        named_datum("Bn", n=1)       # chains need at least two vertices
    with pytest.raises(BadParams):
        named_datum("BDn", n=2)      # branched families need n >= 3
    with pytest.raises(BadParams):
        named_datum("Bn", n=3, m=0)


# least and default n of each sized family; fixed-size families take none
FAMILY_SIZES = {
    "A11": (None,), "A12": (None,), "Bn": (2, 3), "Cn": (2, 3), "BCn": (2, 3),
    "BDn": (3, 4), "CDn": (3, 4), "F41": (None,), "F42": (None,), "G21": (None,),
    "G22": (None,), "Atilde": (3, 4),
}


@pytest.mark.parametrize("family", list(FAMILY_SIZES))
def test_datum_from_name_round_trips(family):
    for n in FAMILY_SIZES[family]:
        for m in (1, 2):
            datum = named_datum(family, n=n, m=m)
            back = datum_from_name(datum.name)
            assert back == datum and back.name == datum.name


def test_datum_from_name_reads_m1_and_refuses_other_names():
    assert datum_from_name("B3m1") == named_datum("Bn", n=3)
    assert datum_from_name("B3m1").name == "B3"
    with pytest.raises(UnknownId):
        datum_from_name("Q9")
    with pytest.raises(BadParams, match="fixed size"):
        datum_from_name("A113")     # A11 takes no n
    with pytest.raises(BadParams, match="n >= 3"):
        datum_from_name("At2")


def test_named_datum_refuses_a_large_n_before_building_it(monkeypatch):
    assert named_datum("Bn", n=catalogue._MAX_N).n == catalogue._MAX_N + 1

    def built(*args, **kwargs):
        raise AssertionError("a refused datum was built")

    monkeypatch.setattr(catalogue, "_cartan", built)
    monkeypatch.setattr(catalogue, "validate_datum", built)
    with pytest.raises(BadParams, match="n <= %d" % catalogue._MAX_N):
        datum_from_name("B20000")
    with pytest.raises(BadParams, match="n <= %d" % catalogue._MAX_N):
        named_datum("CDn", n=catalogue._MAX_N + 1)


# ---------------------------------------------------------------------------
# Named modules


def test_every_catalogued_module_builds():
    fixed = {"Bn": {"n": 3}, "Cn": {"n": 3}, "BCn": {"n": 3},
             "BDn": {"n": 4}, "CDn": {"n": 4},
             "Atilde": {"n": 4, "i": 1, "j": 2}}
    ids = named_module_ids()
    assert len(ids) >= 35
    for module_id in ids:
        family = module_id.split(".")[0]
        kwargs = fixed.get(family, {})
        cd, M = build_named(module_id, **kwargs)
        assert check_relations(M) == []
        assert M.total_dim() > 0


def _rows(M, key):
    return [list(row) for row in M.arr[key].rows()]


def test_row_rule_maps_a_label_at_both_ends_to_itself():
    M = _Row(("x", "x y"))(named_datum("A11"), Field.rational())
    assert _rows(M, (2, 1, 1)) == [[1], [0]]


def test_row_rule_gives_the_second_parallel_arrow_nothing():
    M = _Row(("x", "x"))(named_datum("A12"), Field.rational())
    assert _rows(M, (2, 1, 1)) == [[1]]
    assert _rows(M, (2, 1, 2)) == [[0]]


def test_row_rule_with_explicit_entries_and_one_ended_labels():
    # B3: 2 <- 1, 3 <- 2, 4 <- 3
    M = _Row(("f", "p>f g>h", "p>f", ""), ((2, 1, "f", "g"), (2, 1, "f", "f", 2)))(
        named_datum("Bn", n=3), Field.rational())
    assert _rows(M, (2, 1, 1)) == [[0], [3], [1], [0]]
    assert _rows(M, (3, 2, 1)) == [[1, 0, 0, 0], [0, 1, 0, 0]]   # g and h are not at 3


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(32003)], ids=["QQ", "GF32003"])
def test_row_scales_by_m_with_interleaved_chains_and_per_t_entries(field):
    # A11.homog at m = 2: the labels (u, t), (v, t) at vertex 1 and the chain
    # (w0,0)>(w1,0)>(w2,0)>(w3,0)>(w0,1)>... at vertex 2, with u -> w0 and
    # v -> w1 for each t
    row = catalogue._MODULE_TABLE["A11.homog"][1]
    assert isinstance(row, _Row)
    M = row(named_datum("A11", m=2), field, 2)
    assert M.dims == {1: 4, 2: 8}
    assert _rows(M, (2, 1, 1)) == [[1, 0, 0, 0], [0, 0, 1, 0], [0] * 4, [0] * 4,
                                   [0, 1, 0, 0], [0, 0, 0, 1], [0] * 4, [0] * 4]
    assert [list(r) for r in M.eps[1].rows()] == [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    assert [list(r) for r in M.eps[2].rows()] == [[int(r == c + 1) for c in range(8)] for r in range(8)]
    assert check_relations(M) == []
    assert rep_to_json(M) == rep_to_json(build_named("A11.homog", field=field, m=2)[1])
    # only the two modules that check parameters are functions, ending in a row
    assert sorted(mid for mid, (_, builder, _) in catalogue._MODULE_TABLE.items()
                  if not isinstance(builder, _Row)) == ["Atilde.interval", "Bn.MlamB"]


def test_module_rank_spot_checks():
    _, MB = build_named("Bn.MB", n=4)
    assert rank_vector(MB) == (2, 1, 1, 1, 2)
    _, MC = build_named("Cn.MC", n=3)
    assert rank_vector(MC) == (1, 1, 1, 1)
    _, Y = build_named("CDn.Y", n=4)
    assert rank_vector(Y) == (3, 1, 4, 4, 2)
    _, T = build_named("F42.T22")
    assert rank_vector(T) == (0, 1, 1, 2, 0)


def test_module_field_parameter():
    cd, M = build_named("G21.T21", field=Field.prime(5))
    assert M.field.p == 5
    assert check_relations(M) == []


def test_module_param_errors():
    with pytest.raises(UnknownId):
        build_named("G21.nope")
    with pytest.raises(BadParams):
        build_named("Bn.MB")                     # n required
    with pytest.raises(BadParams):
        build_named("Bn.MlamB", n=3, lam=0)      # lambda must be nonzero
    with pytest.raises(BadParams):
        build_named("G21.Z", n=3)                # unexpected parameter
    with pytest.raises(BadParams):
        build_named("Atilde.interval", n=4, i=1, j=9)


# ---------------------------------------------------------------------------
# Named verification scenarios


def test_check_ids_and_unknown():
    ids = all_check_ids()
    assert "typeB" in ids and "main2.G21" in ids and "prop:homog" in ids
    assert ids == sorted(ids)
    with pytest.raises(UnknownCheck):
        verify_proposition("nope")


def test_type_g1_evidence():
    report = verify_proposition("typeG1")
    assert isinstance(report, CheckReport)
    assert report.passed
    assert report.evidence["period"] == 2
    assert report.evidence["orbitClosed"] is True
    mouths = report.evidence["mouths"]
    assert [m["endDim"] for m in mouths] == [3, 3]
    assert all(m["rigid"] for m in mouths)


def test_type_b_parametrized():
    r3 = verify_proposition("typeB", n=3)
    r4 = verify_proposition("typeB", n=4)
    assert r3.passed and r4.passed
    assert r3.evidence["period"] == 3
    assert r4.evidence["period"] == 4


def test_type_bd2_keeps_the_tube_problems_when_the_self_pairing_fails(monkeypatch):
    monkeypatch.setattr(zoo, "_tube_check", lambda check_id, *args, **params:
                        zoo._report(check_id, ["a tube problem"], {"datum": "BD4"}))
    monkeypatch.setattr(zoo, "bilinear", lambda datum, a, b: 2)
    report = verify_proposition("typeBD2")
    assert not report.passed
    assert report.evidence["selfPairing"] == 2
    assert report.evidence["problems"] == ["a tube problem", "<rank M2, rank M2> = 2, expected 1"]


def test_main2_bn_evidence():
    report = verify_proposition("main2.Bn", n=3)
    assert report.passed
    z = report.evidence["Z"]
    assert z["rank"] == [1, 1, 1, 1]
    assert z["endDim"] == 1 and z["selfExt"] == 1 and z["tauPeriod"] == 3
    y = report.evidence["Y"]
    assert y["endDim"] == 3
    assert y["tauLocallyFree"] == "verified" and y["tauPeriod"] == 3
    assert y["rankRootStatus"] == "not_root"
    assert y["extensionRoute"] is True


_MAIN2_FAMILIES = ["Bn", "CDn", "F41", "G21"]


def _main2_triple(family, field):
    """(X, Y, Z) of the main2 check of the family at its suite size."""
    size = catalogue._FAMILIES[family].size
    datum = named_datum(family, n=size[1] if size else None)
    z_id, y_id, x_id, _ = catalogue._FAMILIES[family].pair
    return tuple(zoo._build_id(datum, field, mid) for mid in (x_id, y_id, z_id))


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("family", _MAIN2_FAMILIES)
def test_main2_exact_sequence_passes_the_independent_checker(family, field):
    # f : X -> Y is an injective morphism and coker f = Z by a certificate
    # the reference checker accepts; X and Z swapped give no such f
    X, Y, Z = _main2_triple(family, field)
    f = zoo._exact_sequence(X, Y, Z)
    assert (f.src, f.dst) == (X, Y) and reference_monomorphism_problems(f) == []
    res = modrep.is_isomorphic(modrep.cokernel_rep(f), Z)
    assert res.verdict == "yes" and reference_certificate_problems(res.certificate) == []
    assert zoo._exact_sequence(Z, Y, X) is None


@pytest.mark.parametrize("family", _MAIN2_FAMILIES)
def test_main2_with_the_split_extension_fails_on_its_end_ring(monkeypatch, family):
    # X + Z is an extension of Z by X too: the sequence test accepts it, and
    # the check fails because End Y is not local, which is what makes the
    # sequence of Y non-split
    X, _, Z = _main2_triple(family, Field.rational())
    y_id = catalogue._FAMILIES[family].pair[1]
    build = zoo._build_id
    monkeypatch.setattr(zoo, "_build_id", lambda datum, field, mid:
                        modrep.direct_sum([X, Z]) if mid == y_id else build(datum, field, mid))
    report = verify_proposition("main2." + family)
    assert not report.passed
    assert report.evidence["Y"]["extensionRoute"] is True
    assert "Y: endomorphism ring not local" in report.evidence["problems"]


def test_report_json_schema(unchanged_report):
    report = verify_proposition("lem0", n=3)
    assert unchanged_report(report)
    blob = report.to_json()
    assert set(blob) == {"checkId", "status", "evidence"}
    assert blob["checkId"] == "lem0"
    assert blob["status"] == "pass"


@pytest.mark.parametrize("check_id", all_check_ids())
def test_report_over_prime_field_is_pinned(unchanged_report, check_id):
    # reports carry no field and their evidence does not depend on it, so
    # the digests pinned over QQ hold over GF(32003) too
    assert unchanged_report(verify_proposition(check_id, field=Field.prime(32003)))


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(32003)], ids=["QQ", "GF32003"])
def test_main2_checks_reach_no_unknown_verdict(monkeypatch, unchanged_report, field):
    # the tau-period walks of Z compare bricks whose one Hom basis map is not
    # invertible: the local End rule answers them "no", not "unknown"
    verdicts = []

    def recorded(M, N):
        res = modrep.is_isomorphic(M, N)
        verdicts.append(res.verdict)
        return res

    for module in (artrans, zoo):
        monkeypatch.setattr(module, "is_isomorphic", recorded)
    for check_id in ("main2.Bn", "main2.CDn", "main2.F41", "main2.G21"):
        assert unchanged_report(verify_proposition(check_id, field=field))
    assert "yes" in verdicts and "no" in verdicts
    assert "unknown" not in verdicts


def test_every_suite_certificate_passes_the_independent_checker(monkeypatch):
    # every "yes" certificate, counit and unit the suite builds over QQ and
    # GF(32003) is checked again as an isomorphism by perfbench/reference.py,
    # whose elimination shares no code with tauforge.linalg
    ref = reference()
    recorded = []

    def is_isomorphic(M, N):
        res = modrep.is_isomorphic(M, N)
        if res.verdict == "yes":
            recorded.append(("iso", res.certificate))
        return res

    def recording(kind, fn):
        def wrapped(*args):
            f = fn(*args)
            if f is not None:
                recorded.append((kind, f))
            return f
        return wrapped

    for module in (artrans, zoo):
        monkeypatch.setattr(module, "is_isomorphic", is_isomorphic)
    monkeypatch.setattr(zoo, "counit", recording("counit", zoo.counit))
    monkeypatch.setattr(zoo, "unit", recording("unit", zoo.unit))
    for field in (Field.rational(), Field.prime(32003)):
        assert all(r.passed for r in run_suite(field=field))

    problems = []
    for kind, f in recorded:
        problems += ["%s over %r: %s" % (kind, f.src.field, p)
                     for p in ref.check_certificate(ref.Scalars(f.src.field.p), plain_datum(f.src.datum),
                                                    plain_module(f.src), plain_module(f.dst),
                                                    {v: plain(b) for v, b in f.blocks.items()})]
    assert problems == []
    kinds = [kind for kind, _ in recorded]
    assert kinds.count("iso") >= 2 * 109 and {"counit", "unit"} <= set(kinds)


def test_run_suite_filter_and_order():
    reports = run_suite(filter_id="typeG")
    assert [r.check_id for r in reports] == ["typeG1", "typeG2"]
    assert all(r.passed for r in reports)
    again = run_suite(filter_id="typeG")
    assert [r.to_json() for r in again] == [r.to_json() for r in reports]


@pytest.mark.parametrize("name", ["named_datum", "build_named", "module_battery", "all_check_ids"])
def test_zoo_keeps_the_names_perfbench_calls(name):
    # perfbench/workloads.py reaches these through tauforge.zoo
    assert callable(getattr(zoo, name))


@pytest.mark.parametrize("name", ["module_battery", "verify_proposition", "run_suite"])
def test_the_traced_zoo_functions_are_defined_in_zoo(name):
    # perfbench's tracer wraps only the functions a layer defines itself: its
    # groups zoo.battery and zoo.check would read zero if these moved away
    assert getattr(zoo, name).__module__ == "tauforge.zoo"


# ---------------------------------------------------------------------------
# Module batteries


def _a11_battery_labels(size):
    """The A11 battery's labels: simples, projectives, injectives, then one
    tau^-1 step from each projective and one tau step from each injective
    per round."""
    labels = ["%s%d" % (kind, v) for kind in "EPI" for v in (1, 2)]
    k = 0
    while len(labels) < size:
        k += 1
        labels += ["tau^-%d.P%d" % (k, v) for v in (1, 2)] + ["tau^%d.I%d" % (k, v) for v in (1, 2)]
    return labels[:size]


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(32003)], ids=["QQ", "GF32003"])
def test_a_battery_is_a_prefix_of_every_larger_one(field):
    # the sizes of prop2.1, prop2.6 and prop2.4/2.7: one battery per datum
    # hands each the same module objects, so a translate kept on a module
    # by one check is read by the next
    datum = named_datum("A11")
    batteries = {size: module_battery(datum, field, size) for size in (10, 30, 38)}
    assert [label for label, _ in batteries[38]] == _a11_battery_labels(38)
    for size, battery in batteries.items():
        assert [label for label, _ in battery] == _a11_battery_labels(size)
        assert all(M is big for (_, M), (_, big) in zip(battery, batteries[38]))


def test_equal_data_with_different_names_get_separate_batteries():
    named = named_datum("Bn", n=3)
    renamed = CartanDatum(named.cartan, named.symmetriser, named.orientation, named.affine_kernel)
    assert renamed == named
    Q = Field.rational()
    first, second = module_battery(named, Q, 20), module_battery(renamed, Q, 20)
    assert [label for label, _ in first] == [label for label, _ in second]
    assert not any(M is N for (_, M), (_, N) in zip(first, second))
    for datum, battery in ((named, first), (renamed, second)):
        translates = [M for label, M in battery if label.startswith("tau")]
        assert len(translates) == 8
        for M in translates + [tau(M).module for M in translates]:
            assert M.datum.name == datum.name


# ---------------------------------------------------------------------------
# Spot-check driver


def test_spotcheck_trivial_bound():
    report = theorem_a_spotcheck("G21", height_bound=1)
    assert report.check_id == "thmA.G21"
    assert report.passed


def test_spotcheck_small_window_counts():
    report = theorem_a_spotcheck("Bn", n=3, height_bound=6)
    assert report.passed
    ev = report.evidence
    assert ev["roots"] == (ev["preprojective"] + ev["preinjective"]
                           + ev["regularViaTubes"] + ev["regularViaHomogeneous"])
    assert ev["roots"] > 0


def test_spotcheck_errors():
    with pytest.raises(UnknownType):
        theorem_a_spotcheck("Hn")
    with pytest.raises(BadParams):
        theorem_a_spotcheck("Bn", n=3, height_bound=0)
    with pytest.raises(BadParams):
        theorem_a_spotcheck("Bn", n=3, height_bound=99)


def test_a_tube_reaches_multiples_of_delta_only_by_whole_cycles():
    # the mouths (1, 0) and (1, 2) sum to 2 delta: a module of the tube is a
    # run of consecutive mouths plus whole cycles, so 4 delta and (1, 2) +
    # 2 delta are reached, and 3 delta and (1, 2) + delta are not
    cycles, dlt = [[(1, 0), (1, 2)]], (1, 1)
    assert _tube_sum_covers((4, 4), cycles, dlt) == {"length": 2, "extraDelta": 2}
    assert _tube_sum_covers((3, 4), cycles, dlt) == {"length": 1, "extraDelta": 2}
    assert _tube_sum_covers((3, 3), cycles, dlt) is None
    assert _tube_sum_covers((2, 3), cycles, dlt) is None


def test_multiples_of_delta_no_tube_reaches_are_counted_as_homogeneous():
    # G21's tube sums to 3 delta: of the multiples of delta up to height 25,
    # 3 delta and 6 delta are tube roots, and delta, 2, 4 and 5 delta are not
    ev = theorem_a_spotcheck("G21").evidence
    assert (ev["regularViaTubes"], ev["regularViaHomogeneous"]) == (6, 4)


# sha256 of json.dumps(theorem_a_spotcheck(T).to_json(), sort_keys=True) at
# the default size and height over QQ; the stated tubes feed the mouth-rank
# cycles that cover the regular roots
SPOTCHECK_SHA256 = {
    "A11": "482d000df1c48af18faef3e71423a82a2e91779034b0c281f8c6598749cfed37",
    "A12": "35bbbe0d04c3f1f6413f7686377af95654d12cd3ba58e2b368edd23d7986db14",
    "Bn": "9a2578ae20918945a9899d049586ba77a2a2f89f7a556331641459f9dd60107d",
    "Cn": "5ff0ae1d3f55a90c2f99c149fa6e20ab2ef882aab8956eb8fcc99323349f7066",
    "BCn": "bb20ccfcd0aa0a1d0d01064f669499384265c9489dca9fbb33162f2de6e68264",
    "BDn": "25c8903c01645aad4107c996c1645ceadb7d4c9cc002ee80d448986a5fc19948",
    "CDn": "33e8511268dce8d88de997b382b5d018a0e581c36e3fd1b7d6aecd314c78fe8f",
    "F41": "59d04beacacd2e5d9c844fa233a2d404c237fb1d70fbfd8ef4a321164040464f",
    "F42": "091f32327b75868d246f40e60e586c32c679c675bcae3821f4b5dcafd1c8fc0b",
    "G21": "a536af920d82b532083162f84e161dffc1e0633a8aa088006c9c0327664342ce",
    "G22": "9929a38ff0a3aae5d834dbb3135be7be27b49c8c84b34b01a8f5890c9850e784",
}


@pytest.mark.parametrize("type_id", list(SPOTCHECK_SHA256))
def test_spotcheck_report_is_pinned(type_id):
    text = json.dumps(theorem_a_spotcheck(type_id).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SPOTCHECK_SHA256[type_id]
