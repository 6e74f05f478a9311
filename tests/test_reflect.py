"""Reflection functors, the twist, and the folded Coxeter functor."""

import pytest

from support import unstable_multiplication
from tauforge import reflect, zoo
from tauforge.artrans import is_zero_rep, tau
from tauforge.cartan import admissible_sequence, reflect_orientation
from tauforge.catalogue import build_named, named_datum
from tauforge.linalg import Field, Mat
from tauforge.modrep import (
    check_relations,
    free_simple,
    is_isomorphic,
    make_rep,
    rank_vector,
)
from tauforge.pathalg import build_projective
from tauforge.reflect import (
    ContractViolation,
    NotASink,
    NotASource,
    counit,
    coxeter_functor,
    reflect_minus,
    reflect_plus,
    twist,
    unit,
)
from tauforge.rootsys import simple_reflection
from tauforge.zoo import module_battery

Q = Field.rational()


def b3():
    return named_datum("Bn", n=3)


def test_sink_source_guards():
    cd = b3()
    seq = admissible_sequence(cd)
    sink, source = seq[0], seq[-1]
    M = free_simple(cd, Q, source)
    with pytest.raises(NotASink):
        reflect_plus(cd, source, M)
    with pytest.raises(NotASource):
        reflect_minus(cd, sink, M)


def test_reflect_requires_matching_datum():
    cd = b3()
    other = named_datum("Cn", n=3)
    M = free_simple(other, Q, 1)
    with pytest.raises(ValueError):
        reflect_plus(cd, admissible_sequence(cd)[0], M)


def test_reflection_transports_rank():
    cd, Z = build_named("Bn.Z", n=3)
    k = admissible_sequence(cd)[0]          # the unique sink
    out = reflect_plus(cd, k, Z)
    assert out.datum == reflect_orientation(cd, k)
    assert check_relations(out) == []
    assert rank_vector(out) == tuple(simple_reflection(cd, k, rank_vector(Z)))


def test_a_kernel_the_loop_leaves_is_a_contract_violation(monkeypatch):
    cd, Z = build_named("CDn.Z", n=3)
    k = admissible_sequence(cd)[0]
    assert [(j, a) for j, _, a in reflect._slots(cd, k)] == [(3, 0), (3, 1)]
    monkeypatch.setattr(reflect, "_multiplication", unstable_multiplication)
    with pytest.raises(ContractViolation, match="^kernel not stable under the loop at the sink$"):
        reflect_plus(cd, k, Z)


def test_reflection_round_trip_certified():
    cd, Z = build_named("G21.Z")
    k = admissible_sequence(cd)[0]
    plus = reflect_plus(cd, k, Z)
    back = reflect_minus(plus.datum, k, plus)
    assert back.datum == cd
    res = is_isomorphic(back, Z)
    assert res.verdict == "yes"
    assert res.certificate.is_iso()


def test_reflection_kills_top_simple():
    cd = b3()
    k = admissible_sequence(cd)[0]
    E = free_simple(cd, Q, k)
    out = reflect_plus(cd, k, E)
    assert is_zero_rep(out)


def test_twist_involution_preserves_relations():
    cd, Y = build_named("G21.Y")
    T = twist(Y)
    assert check_relations(T) == []
    assert T.dims == Y.dims
    assert twist(T) == Y


def test_coxeter_functor_returns_original_orientation():
    cd, Z = build_named("Bn.Z", n=3)
    C = coxeter_functor(cd, "+", Z)
    assert C.datum == cd
    assert check_relations(C) == []
    with pytest.raises(ValueError):
        coxeter_functor(cd, "x", Z)


def test_coxeter_functor_kills_projective():
    cd = b3()
    P = build_projective(cd, Q, 2)
    assert is_zero_rep(coxeter_functor(cd, "+", P))


def test_tau_agrees_with_twisted_coxeter_plus():
    # Independent constructions of the translate must agree module-by-module.
    for module_id, kwargs in [("G21.Z", {}), ("Bn.Z", {"n": 3}), ("G21.T21", {})]:
        cd, M = build_named(module_id, **kwargs)
        via_tau = tau(M).module
        via_cox = twist(coxeter_functor(cd, "+", M))
        if is_zero_rep(via_tau):
            assert is_zero_rep(via_cox)
            continue
        res = is_isomorphic(via_tau, via_cox)
        assert res.verdict == "yes"
        assert res.certificate.is_iso()


def test_coxeter_minus_inverts_coxeter_plus():
    cd, Z = build_named("G21.Z")
    C = coxeter_functor(cd, "+", Z)
    back = coxeter_functor(cd, "-", C)
    assert is_isomorphic(back, Z).verdict == "yes"


def _round_trips(cd, field, size):
    """(label, M, F-F+M at the sink, F+F-M at the source) over the battery."""
    sink = admissible_sequence(cd)[0]
    source = next(v for v in cd.vertices if cd.is_source(v))
    for label, M in module_battery(cd, field, size):
        plus = reflect_plus(cd, sink, M)
        minus = reflect_minus(cd, source, M)
        yield (label, M, reflect_minus(plus.datum, sink, plus),
               reflect_plus(minus.datum, source, minus))


@pytest.mark.parametrize("field", [Q, Field.prime(32003)], ids=["QQ", "GF32003"])
def test_round_trip_maps_agree_with_is_isomorphic(field):
    # members supported at the sink or the source alone do not come back,
    # so both answers occur
    cd = b3()
    sink = admissible_sequence(cd)[0]
    source = next(v for v in cd.vertices if cd.is_source(v))
    seen = set()
    for _, M, back, forth in _round_trips(cd, field, 20):
        for f, X in ((counit(sink, back, M), back), (unit(source, M, forth), forth)):
            iso = is_isomorphic(X, M).verdict == "yes"
            assert (f is not None) == iso
            assert f is None or (f.is_morphism() and f.is_iso())
            seen.add(iso)
    assert seen == {True, False}


def _zero_an_arrow_into(X, k):
    """X with its first nonzero arrow into k set to zero, or None."""
    key = next((key for key in sorted(X.arr) if key[0] == k and not X.arr[key].is_zero()), None)
    if key is None:
        return None
    zero = Mat.zeros(X.field, *X.arr[key].shape)
    return make_rep(X.datum, X.field, dict(X.dims), dict(X.eps), {**X.arr, key: zero})


def test_broken_round_trip_gets_no_certificate(monkeypatch):
    cd = b3()
    sink = admissible_sequence(cd)[0]
    broken = set()
    for label, M, back, _ in _round_trips(cd, Q, 12):
        bad = _zero_an_arrow_into(back, sink)
        if bad is not None:
            assert counit(sink, back, M) is not None
            assert counit(sink, bad, M) is None
            broken.add(label)
    assert broken

    real = reflect_minus

    def lossy(datum, k, M, check_rank=True):
        out = real(datum, k, M, check_rank)
        if k == sink and out.datum == cd:
            return _zero_an_arrow_into(out, k) or out
        return out

    monkeypatch.setattr(zoo, "reflect_minus", lossy)
    problems = zoo.verify_proposition("prop2.4", size=12).evidence["problems"]
    lost = {p.split("/")[1].split(":")[0] for p in problems
            if p.startswith("B3/") and p.endswith("F-F+ round trip lost the module")}
    assert lost == broken


def test_prop2_4_needs_no_isomorphism_search(monkeypatch):
    def refuse(M, N):
        raise AssertionError("prop2.4 called is_isomorphic")

    monkeypatch.setattr(zoo, "is_isomorphic", refuse)
    assert zoo.verify_proposition("prop2.4", size=34).passed
