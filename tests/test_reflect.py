"""Reflection functors, the twist, and the folded Coxeter functor."""

import pytest

from tauforge.artrans import is_zero_rep, tau
from tauforge.cartan import admissible_sequence, reflect_orientation
from tauforge.linalg import Field
from tauforge.modrep import (
    check_relations,
    free_simple,
    is_isomorphic,
    rank_vector,
)
from tauforge.pathalg import build_projective
from tauforge.reflect import (
    NotASink,
    NotASource,
    coxeter_functor,
    reflect_minus,
    reflect_plus,
    twist,
)
from tauforge.rootsys import simple_reflection
from tauforge.zoo import build_named, named_datum

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
