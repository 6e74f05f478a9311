"""Translation machinery: presentations, tau in both directions, orbits."""

from itertools import islice

import pytest

from support import (NotIndecomposable, apply_monomial, ext1_dim_cocycle, is_tau_locally_free,
                     presentation_map)
from tauforge import artrans, modrep, pathalg
from tauforge.artrans import (
    _generators,
    _radical_complement,
    _walk_local_freeness,
    classify_module,
    default_window,
    is_zero_rep,
    minimal_presentation,
    orbit_walk,
    projective_cover,
    tau,
    tau_inverse,
    tau_orbit,
    tau_walk,
)
from tauforge.linalg import Field, Mat
from tauforge.modio import rep_to_json
from tauforge.modrep import (
    Morphism,
    direct_sum,
    ext1_dim,
    free_simple,
    hom_dim,
    local_free_rank,
    make_rep,
    rank_vector,
    is_isomorphic,
    kernel_rep,
    zero_rep,
)
from tauforge.pathalg import algebra_basis, build_injective, build_projective, transport_dual
from tauforge.cartan import CartanDatum, build_quiver, datum_to_json, delta
from tauforge.catalogue import _FAMILIES, build_named, named_datum
from tauforge.rootsys import coxeter_data
from tauforge.zoo import _build_id, _stated_tubes, module_battery

Q = Field.rational()


def b3():
    return named_datum("Bn", n=3)


# ---------------------------------------------------------------------------
# Projectives and injectives are the orbit endpoints


def test_tau_kills_projectives():
    cd = b3()
    for v in cd.vertices:
        P = build_projective(cd, Q, v)
        assert is_zero_rep(tau(P).module)


def test_tau_inverse_kills_injectives():
    cd = b3()
    for v in cd.vertices:
        I = build_injective(cd, Q, v)
        assert is_zero_rep(tau_inverse(I).module)


def test_tau_round_trip_on_non_projective():
    cd = b3()
    E2 = free_simple(cd, Q, 2)
    T = tau(E2).module
    back = tau_inverse(T).module
    assert is_isomorphic(back, E2).verdict == "yes"


# ---------------------------------------------------------------------------
# Rank transport agrees with the Coxeter transformation


def test_tau_rank_is_coxeter_image():
    cd = b3()
    cox = coxeter_data(cd)
    E2 = free_simple(cd, Q, 2)
    seen = rank_vector(E2)
    cur = E2
    for k in range(1, 4):
        cur = tau(cur).module
        assert not is_zero_rep(cur)
        assert rank_vector(cur) == cox.c_apply(seen, k)
    # period three: back to the start
    assert rank_vector(cur) == rank_vector(E2)


def test_tau_walk_matches_iteration():
    _, Z = build_named("G21.Z")
    one = tau(Z).module
    two = tau(one).module
    walked = list(islice(tau_walk(Z, tau), 2))
    assert walked == [one, two]
    assert is_isomorphic(two, Z).verdict == "yes"


def test_tau_walk_ends_before_zero():
    cd = b3()
    P1 = build_projective(cd, Q, 1)
    assert list(tau_walk(P1, tau)) == []
    walked = list(islice(tau_walk(P1, tau_inverse), 5))
    assert len(walked) == 5
    assert not any(is_zero_rep(M) for M in walked)
    assert walked[0] == tau_inverse(P1).module


# ---------------------------------------------------------------------------
# Minimal presentations


def test_minimal_presentation_keeps_only_the_module_presented_last():
    cd = b3()
    E2, E3 = free_simple(cd, Q, 2), free_simple(cd, Q, 3)
    pres = minimal_presentation(E2)
    assert minimal_presentation(E2) is pres
    assert minimal_presentation(E3).gens0 == (3,)
    again = minimal_presentation(E2)
    assert again is not pres and again == pres


def test_ext1_out_of_a_module_that_is_not_locally_free_presents_it_and_its_syzygy_once(monkeypatch):
    # Ext^1(S, N) reads Hom(Omega S, N); the syzygy's presentation is kept
    # in S's, so S stays in the slot: 2 covers for four calls, not 8
    cd = b3()
    S = make_rep(cd, Q, {2: 1})
    mods = [M for _, M in module_battery(cd, Q, 4)]
    want = [ext1_dim_cocycle(S, N) for N in mods]
    assert rank_vector(S) is None
    covers = []
    cover = artrans.projective_cover

    def counted(M):
        covers.append(M)
        return cover(M)

    monkeypatch.setattr(artrans, "projective_cover", counted)
    assert [ext1_dim(S, N) for N in mods] == want
    assert len(covers) == 2
    pres = minimal_presentation(S)
    assert len(covers) == 2 and covers[0] is S and covers[1] is pres.syzygy
    assert minimal_presentation(pres.syzygy) is pres.syzygy_pres is not None


def test_minimal_presentation_is_presentation():
    mods = [free_simple(b3(), Q, 2)]
    for field in (Q, Field.prime(32003)):
        for family, n in (("Bn", 3), ("G21", None)):
            mods += [M for _, M in module_battery(named_datum(family, n=n), field, 14)]
    for M in mods:
        gens0, blocks = projective_cover(M)
        P0 = direct_sum([build_projective(M.datum, M.field, b) for b in gens0])
        cover = Morphism(P0, M, blocks)
        pres = minimal_presentation(M)
        assert pres.gens0 == gens0
        assert cover.is_morphism()
        # surjective cover
        assert {v: cover.blocks[v].rank() for v in M.datum.vertices} == M.dims
        f = presentation_map(pres, P0)
        assert f.is_morphism()
        assert f.dst is P0
        # composite P1 -> P0 -> M vanishes, and P1 covers the whole kernel
        comp = {v: cover.blocks[v] @ f.blocks[v] for v in M.datum.vertices}
        assert all(m.is_zero() for m in comp.values())
        assert all(f.blocks[v].rank() == f.dst.dims[v] - M.dims[v] for v in M.datum.vertices)


def test_presentation_of_projective_has_no_relations():
    cd = b3()
    P = build_projective(cd, Q, 3)
    pres = minimal_presentation(P)
    assert pres.gens0 == (3,)
    assert pres.gens1 == ()


# (module of B3, its vertex, the loop put at 2, the message)
_BAD_MODULES = {
    # the loop at 2 of P1 made invertible: all of M_2 counts as radical, so
    # no generator sits at 2 and the cover misses M_2; the cover's kernel is
    # not stable under that loop either, and the cover is the fault reported
    "cover-misses": (build_projective, 1, lambda field: Mat.identity(field, 2),
                     r"^projective cover is not surjective \(bad input module\?\)$"),
    # the loop at 2 of I2 made a swap: the generators at 1 still span M_2,
    # so the cover is onto, but it is no morphism
    "cover-onto": (build_injective, 2, lambda field: Mat.from_rows(field, [[0, 1], [1, 0]]),
                   r"^kernel not stable under loop \(not a morphism\?\)$"),
}


@pytest.mark.parametrize("field", [Q, Field.prime(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("case", list(_BAD_MODULES))
def test_presentation_of_a_bad_module_names_its_fault(field, case):
    build, v, loop, message = _BAD_MODULES[case]
    M = build(b3(), field, v)
    M = make_rep(M.datum, field, dict(M.dims), {**M.eps, 2: loop(field)}, dict(M.arr))
    with pytest.raises(RuntimeError, match=message):
        minimal_presentation(M)


# ---------------------------------------------------------------------------
# Orbits, periods, local freeness


def test_tau_orbit_period_and_ranks():
    cd, Z = build_named("G21.Z")
    ranks, period, _ = tau_orbit(Z, default_window(cd))
    assert period == 2
    assert ranks[0] == delta(cd)
    assert 1 in ranks
    assert ranks[1] == coxeter_data(cd).c_apply(delta(cd), 1)


def _periodic_modules(field):
    """(module, period): every stated tube mouth of the catalogue at its
    suite size, with the number of mouths of its tube, and the Z of every
    non-rigid pair, with the period of its tube mouth X."""
    out = []
    for family, row in _FAMILIES.items():
        if not row.tubes:
            continue
        datum = named_datum(family, n=row.size[1] if row.size else None)
        tubes = _stated_tubes(datum, family)
        out += [(_build_id(datum, field, mid), len(stated)) for stated, _ in tubes for mid, _ in stated]
        if row.pair:
            z_id, _, x_id, _ = row.pair
            out.append((_build_id(datum, field, z_id),
                        next(len(stated) for stated, _ in tubes if x_id in dict(stated))))
    return out


@pytest.mark.parametrize("field", [Q, Field.prime(32003)], ids=["QQ", "GF32003"])
def test_orbit_walker_matches_plain_walks(field):
    # past the period the walker reads ranks off the first period's modules;
    # the plain walks translate every step, both ways
    for M, period in _periodic_modules(field):
        window = period + 1
        ranks, found, witness = tau_orbit(M, window)
        forward = list(islice(tau_walk(M, tau), window))
        backward = list(islice(tau_walk(M, tau_inverse), window))
        assert found == period
        assert next(k for k, N in enumerate(forward, start=1) if is_isomorphic(N, M).verdict == "yes") == period
        assert witness == forward[period - 1]
        plain = {0: rank_vector(M)}
        plain.update((k, rank_vector(N)) for k, N in enumerate(forward, start=1))
        plain.update((-k, rank_vector(N)) for k, N in enumerate(backward, start=1))
        assert ranks == plain


def test_orbit_of_projective_terminates():
    cd = b3()
    P1 = build_projective(cd, Q, 1)
    ranks, period, witness = tau_orbit(P1, window=6)
    assert 1 not in ranks                   # tau P = 0, forward stops
    assert -1 in ranks                      # tau^- P lives
    assert period is None and witness is None


def test_is_tau_locally_free_verified_with_period():
    cd = b3()
    E2 = free_simple(cd, Q, 2)
    status, period = is_tau_locally_free(E2)
    assert status == "verified"
    assert period == 3


def test_is_tau_locally_free_fails_at_the_start():
    cd = named_datum("G21")
    S3 = make_rep(cd, Q, {3: 1})            # d_3 = 3, so not free at vertex 3
    status, _ = is_tau_locally_free(S3)
    assert status == "fails"


def test_tau_is_kept_on_its_module(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return transport_dual(*args)

    monkeypatch.setattr(artrans, "transport_dual", counted)
    _, Z = build_named("G21.Z")
    assert tau(Z).module is tau(Z).module
    assert len(calls) == 1
    walks = [list(islice(tau_walk(Z, tau), 3)) for _ in range(2)]
    assert all(M is N for M, N in zip(*walks))
    assert len(calls) == 3                  # one transport for each module translated


def test_a_module_that_is_not_free_ranks_once(monkeypatch):
    calls = []

    def counted(rep, vertex):
        calls.append(vertex)
        return local_free_rank(rep, vertex)

    monkeypatch.setattr(modrep, "local_free_rank", counted)
    S3 = make_rep(named_datum("G21"), Q, {3: 1})
    assert rank_vector(S3) is None
    assert calls == [1, 2, 3]               # the walk stops at the first vertex that is not free
    assert rank_vector(S3) is None
    assert _walk_local_freeness(S3, 3) == ("fails", None)
    assert calls == [1, 2, 3]


def test_kept_values_leave_equality_repr_and_json_alone():
    _, Z = build_named("G21.Z")
    _, fresh = build_named("G21.Z")
    before = (repr(Z), rep_to_json(Z, embed_datum=True))
    assert tau(Z).module is tau(Z).module and rank_vector(Z) == (1, 2, 1)
    assert Z == fresh and fresh == Z
    assert (repr(Z), rep_to_json(Z, embed_datum=True)) == before == (repr(fresh),
                                                                     rep_to_json(fresh, embed_datum=True))


def test_is_tau_locally_free_on_an_open_window():
    cd = b3()
    P1 = build_projective(cd, Q, 1)         # tau P1 = 0, tau^-k P1 never is
    status, period = is_tau_locally_free(P1, window=3)
    assert status == "verified_on_window"
    assert period is None


def test_is_tau_locally_free_rejects_decomposable():
    _, Z = build_named("G21.Z")
    with pytest.raises(NotIndecomposable):
        is_tau_locally_free(direct_sum([Z, Z]))


def _period(M, window):
    return next((k for k, _, returned in orbit_walk(M, window) if returned), None)


def test_tau_period_values():
    _, Z3 = build_named("Bn.Z", n=3)
    assert _period(Z3, 4) == 3
    _, ZG = build_named("G21.Z")
    assert _period(ZG, 3) == 2
    cd = b3()
    assert _period(build_projective(cd, Q, 1), 3) is None


def test_default_window_positive():
    assert default_window(b3()) > 0
    assert default_window(named_datum("G21")) > 0


@pytest.mark.parametrize("field", [Q, Field.prime(32003), Field.prime(3), Field.prime(2)],
                         ids=["QQ", "GF32003", "GF3", "GF2"])
def test_the_auslander_reiten_formula_ties_ext1_to_both_translates(field):
    # battery modules are locally free, so pd <= 1 and id <= 1 (GLS I), and
    # Ext^1(M, N) = D Hom(N, tau M), Ext^1(N, M) = D Hom(tau^- M, N)
    # (Auslander-Reiten-Smalo, ch. IV): the presentation route of ext1_dim
    # against the injective transport of tau and the duality of tau_inverse
    for family, n in (("A11", None), ("Bn", 3), ("G21", None), ("CDn", 4), ("F41", None)):
        mods = [M for _, M in module_battery(named_datum(family, n=n), field, 12)]
        for M in mods:
            assert rank_vector(M) is not None
            tM, tiM = tau(M).module, tau_inverse(M).module
            for N in mods:
                assert ext1_dim(M, N) == hom_dim(N, tM)
                assert ext1_dim(N, M) == hom_dim(tiM, N)


# ---------------------------------------------------------------------------
# Classification through rank vectors


def test_classify_module_kinds():
    cd, Z = build_named("G21.Z")
    reg = classify_module(Z)
    assert reg.kind == "regular"
    assert reg.period == 1          # delta is Coxeter-fixed
    P = build_projective(cd, Q, 1)
    pp = classify_module(P)
    assert pp.kind == "preprojective"
    assert pp.r == 0 and pp.vertex == 1
    I = build_injective(cd, Q, 3)
    pi = classify_module(I)
    assert pi.kind == "preinjective"
    assert pi.r == 0 and pi.vertex == 3


# ---------------------------------------------------------------------------
# Top lifts and cover columns against their direct definitions


def _battery_and_tau(field):
    mods = []
    for family, n in (("Bn", 3), ("A11", None), ("G21", None)):
        for _, M in module_battery(named_datum(family, n=n), field, 14):
            mods.append(M)
            T = tau(M).module
            if not is_zero_rep(T):
                mods.append(T)
    return mods


def _greedy_complement(rep, v):
    """Unit vectors e_k taken in order whenever they raise the rank of the
    radical part plus the vectors taken so far."""
    arrows = build_quiver(rep.datum).arrows_into(v)
    current = rep.eps[v].hstack(*(rep.arr[key] for key in arrows))
    rank = current.rank()
    out = []
    for k in range(rep.dims[v]):
        e = Mat.from_dict(rep.field, (rep.dims[v], 1), {(k, 0): 1})
        trial = current.hstack(e)
        if trial.rank() > rank:
            out.append(k)
            current, rank = trial, rank + 1
    return out


@pytest.mark.parametrize("field", [Q, Field.prime(32003)], ids=["QQ", "GF32003"])
def test_top_lift_and_cover_match_definitions(field):
    for M in _battery_and_tau(field):
        for v in M.datum.vertices:
            assert _radical_complement(M, v) == _greedy_complement(M, v)
        basis = algebra_basis(M.datum)
        gens = _generators(M)
        verts, blocks = projective_cover(M)
        assert verts == tuple(b for b, _ in gens)
        P0 = direct_sum([build_projective(M.datum, field, b) for b in verts])
        assert Morphism(P0, M, blocks).is_morphism()
        for w in M.datum.vertices:
            cols = [apply_monomial(M, p) @ Mat.from_dict(field, (M.dims[b], 1), {(k, 0): 1})
                    for b, k in gens for p in basis.paths(b, w)]
            assert blocks[w] == Mat.zeros(field, M.dims[w], 0).hstack(*cols)


_FIELDS = [Q, Field.prime(32003), Field.prime(3), Field.prime(2)]
_FIELD_IDS = ["QQ", "GF32003", "GF3", "GF2"]


def _sum_free_cases(field):
    """(summands, blocks): the cover of each module of the A11, B3 and G21
    batteries out of its projectives, the transported presentation map out
    of its injectives, the zero map out of two battery modules with a module
    of zero maps between them, the cover of a zero module, and the cover of
    a projective, which has no P1 generators, with a zero summand put in."""
    cases = []
    for family, n in (("A11", None), ("Bn", 3), ("G21", None)):
        datum = named_datum(family, n=n)
        battery = [M for _, M in module_battery(datum, field, 8)]
        summands = [battery[0], make_rep(datum, field, {v: 2 for v in datum.vertices}), battery[-1]]
        cases.append((summands, {v: Mat.zeros(field, 0, sum(S.dims[v] for S in summands))
                                 for v in datum.vertices}))
        for M in battery:
            gens0, blocks = projective_cover(M)
            cases.append(([build_projective(datum, field, b) for b in gens0], blocks))
            pres = minimal_presentation(M)
            if pres.gens1:
                cases.append(([build_injective(datum, field, a) for a in pres.gens1],
                              transport_dual(datum, field, pres.gens1, pres.gens0, pres.entries)))
    cd = b3()
    Z = zero_rep(cd, field)
    cases.append(([Z], projective_cover(Z)[1]))
    P = build_projective(cd, field, 1)
    assert minimal_presentation(P).gens1 == ()
    gens0, blocks = projective_cover(P)
    cases.append(([build_projective(cd, field, gens0[0]), Z], blocks))
    return cases


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
def test_kernel_of_summands_is_the_kernel_of_their_sum(field):
    for summands, blocks in _sum_free_cases(field):
        K, incl = kernel_rep(summands, blocks)
        K_sum, incl_sum = kernel_rep([direct_sum(summands)], blocks)
        assert K == K_sum
        assert incl == incl_sum


def test_a_map_out_of_summands_that_is_no_morphism_is_refused():
    cd = b3()
    v = next(v for v in cd.vertices if cd.d(v) >= 2)
    E = free_simple(cd, Q, v)
    P = build_projective(cd, Q, 1)
    # on E + P: the kernel of the last coordinate of E at v, and all of P
    last = {w: Mat.from_dict(Q, (1, E.dims[w] + P.dims[w]), {(0, E.dims[w] - 1): 1}) if w == v
            else Mat.zeros(Q, 0, E.dims[w] + P.dims[w]) for w in cd.vertices}
    with pytest.raises(RuntimeError, match=r"^kernel not stable under loop \(not a morphism\?\)$"):
        kernel_rep([E, P], last)


def test_translates_build_no_sum_and_no_summand(monkeypatch):
    cd = named_datum("A11")
    want = list(islice(tau_walk(build_projective(cd, Q, 1), tau_inverse), 10))
    start = build_projective(cd, Q, 1)

    def refuse(*args):
        raise AssertionError("a translate built a sum or a summand module")

    monkeypatch.setattr(modrep, "direct_sum", refuse)
    monkeypatch.setattr(Mat, "block", classmethod(refuse))
    monkeypatch.setattr(pathalg, "_indecomposable", refuse)
    walked, cur = [], start
    for _ in range(10):
        minimal_presentation(cur)
        prev, cur = cur, tau_inverse(cur).module
        assert rank_vector(tau(cur).module) == rank_vector(prev)
        walked.append(cur)
    assert walked == want


_NAMED_BUILDS = {
    "P": lambda d: [build_projective(d, Q, v) for v in d.vertices],
    "I": lambda d: [build_injective(d, Q, v) for v in d.vertices],
    "tau": lambda d: [tau(tau(free_simple(d, Q, v)).module).module for v in d.vertices],
    "tau-inverse": lambda d: [tau_inverse(tau_inverse(build_projective(d, Q, v)).module).module
                              for v in d.vertices],
    "battery": lambda d: [M for _, M in module_battery(d, Q, 8)],
}


@pytest.mark.parametrize("kind", list(_NAMED_BUILDS))
def test_modules_carry_the_callers_datum_name(kind):
    # B3 under another name is equal to B3 (equality ignores the name), so a
    # cache keyed on the datum alone hands the second caller modules that
    # serialize as "B3"; the named datum is built first to catch that
    named = named_datum("Bn", n=3)
    renamed = CartanDatum(named.cartan, named.symmetriser, named.orientation, named.affine_kernel)
    for datum, shown in ((named, "B3"), (renamed, datum_to_json(renamed))):
        for M in _NAMED_BUILDS[kind](datum):
            assert M.datum.name == datum.name
            assert rep_to_json(M)["datum"] == shown
