"""Reflection functors at admissible vertices, Coxeter functors, twist.

At a sink k the new space is the kernel of the multiplication map

    +_{(k,j)} e_k H e_j (x)_{H_j} M_j  -->  M_k .

The tensor over H_j is materialized in slot form: e_k H e_j is free as a
right H_j-module on the generators eps_k^a . alpha^(g) with a < f(j,k), so
the tensor is a direct sum T of copies of M_j indexed by slots (j, g, a).
The loop at k walks the slots cyclically, applying M(eps_j)^{f(k,j)} on
wrap-around; the new arrows are the slot projections.  So F+M is
``kernel_rep`` of the multiplication map W -> M_k, W being T at k and M
elsewhere over the reflected datum: away from k the kernel is all of M.

The contracts (rank transport by s_k, relations on the output) are checked
on every call and failures abort: they are part of the interface.

Prop 2.4's round trips are certified by their natural maps, not by an
isomorphism search.  The counit F-F+M -> M at a sink k is the identity away
from k and at k the solution phi_k of phi_k . mult(F-F+M) = mult(M), with
mult the multiplication map above; the unit M -> F+F-M at a source is the
transpose of the counit of the duals.  Each is checked as a morphism and as
invertible before it is returned.  Prop 2.6 (tau M ~ T C+ M) has no such
map here and stays on ``is_isomorphic``.
"""

from .cartan import admissible_sequence, build_quiver, opposite_datum, reflect_orientation
from .linalg import Mat
from .modrep import Morphism, Representation, check_relations, dual_rep, kernel_rep, make_rep, rank_vector
from .rootsys import simple_reflection


class NotASink(ValueError):
    pass


class NotASource(ValueError):
    pass


class ContractViolation(RuntimeError):
    """An output failed a checked contract (relations or rank transport)."""


def twist(M):
    """Negate every arrow matrix (an algebra automorphism fixing loops)."""
    return make_rep(M.datum, M.field, dict(M.dims), dict(M.eps),
                    {key: -A for key, A in M.arr.items()})


def _slots(datum, k):
    """Slot index (j, g, a) list for the tensor space at the sink k."""
    quiver = build_quiver(datum)
    slots = []
    for key in sorted(quiver.arrows_into(k)):
        _, j, g = key
        for a in range(datum.f(j, k)):
            slots.append((j, g, a))
    return slots


def _multiplication(k, M, slots):
    """The multiplication map T -> M_k, slot (j, g, a) acting by
    M(eps_k)^a M(alpha^(g))."""
    run = M.eps[k].powers(max((a for _, _, a in slots), default=0))
    return Mat.block(M.field, {(0, t): run[a - 1] @ M.arr[(k, j, g)] if a else M.arr[(k, j, g)]
                               for t, (j, g, a) in enumerate(slots)},
                     [M.dims[k]], [M.dims[j] for (j, _, _) in slots])


def _check_contract(datum, k, M, out, check_rank, where):
    """Check the reflected module ``out`` against the algebra relations and,
    when asked, its rank vector against s_k of the rank vector of M;
    ``where`` names vertex k as a 'sink' or a 'source' in the messages."""
    bad = check_relations(out)
    if bad:
        raise ContractViolation(f"reflected module violates relations: {bad}")
    if check_rank:
        r = rank_vector(M)
        if r is not None and any(r[v - 1] for v in datum.vertices if v != k):
            expected = simple_reflection(datum, k, r)
            got = rank_vector(out)
            if got != tuple(expected):
                raise ContractViolation(
                    f"rank transport failed at {where} {k}: {got} != s_{k}{tuple(r)}")


def reflect_plus(datum, k, M, check_rank=True):
    if datum != M.datum:
        raise ValueError("module is not over the given datum")
    if not datum.is_sink(k):
        raise NotASink(f"vertex {k} is not a sink")
    field = M.field
    new_datum = reflect_orientation(datum, k)
    slots = _slots(datum, k)
    slot_dims = [M.dims[j] for (j, _, _) in slots]

    # loop on T: slot t = (j,g,a) -> t + 1 = (j,g,a+1), wrapping to t - a = (j,g,0) by eps_j^{f(k,j)}
    eps_grid = {}
    for t, (j, g, a) in enumerate(slots):
        if a + 1 < datum.f(j, k):
            eps_grid[(t + 1, t)] = Mat.identity(field, M.dims[j])
        else:
            eps_grid[(t - a, t)] = M.eps[j].powers(datum.f(k, j))[-1]
    eps = {**M.eps, k: Mat.block(field, eps_grid, slot_dims, slot_dims)}
    arr = {}
    for key in build_quiver(new_datum).arrows:
        i, j, g = key
        if j == k:      # the new arrow k -> i projects T onto slot (i, g, f(i,k)-1)
            proj = {(0, slots.index((i, g, datum.f(i, k) - 1))): Mat.identity(field, M.dims[i])}
            arr[key] = Mat.block(field, proj, [M.dims[i]], slot_dims)
        else:
            arr[key] = M.arr[key]
    W = Representation(new_datum, field, {**M.dims, k: sum(slot_dims)}, eps, arr)
    blocks = {v: _multiplication(k, M, slots) if v == k else Mat.zeros(field, 0, M.dims[v])
              for v in datum.vertices}
    try:
        out, _ = kernel_rep([W], blocks)
    except RuntimeError:
        raise ContractViolation("kernel not stable under the loop at the sink") from None

    _check_contract(datum, k, M, out, check_rank, "sink")
    return out


def reflect_minus(datum, k, M, check_rank=True):
    """Dual construction at a source: dualize, reflect, dualize back."""
    if datum != M.datum:
        raise ValueError("module is not over the given datum")
    if not datum.is_source(k):
        raise NotASource(f"vertex {k} is not a source")
    dop = opposite_datum(datum)
    dM = dual_rep(M)
    refl = reflect_plus(dop, k, dM, check_rank=False)
    # the dual of a module over the opposite of reflect_orientation(dop, k)
    # is already over reflect_orientation(datum, k), anonymous as well
    back = dual_rep(refl)
    _check_contract(datum, k, M, back, check_rank, "source")
    return back


def _certified(f):
    """f if it is a morphism and invertible, else None."""
    return f if f is not None and f.is_morphism() and f.is_iso() else None


def _counit_map(k, back, M):
    """The map back -> M that is the identity away from k and at k the
    phi_k with phi_k . mult(back) = mult(M), one solve against the
    multiplication map; None when back and M differ in dimension away from k
    or no such phi_k exists."""
    if back.datum != M.datum or back.field != M.field:
        return None
    if any(back.dims[v] != M.dims[v] for v in M.datum.vertices if v != k):
        return None
    slots = _slots(M.datum, k)
    phi_t = _multiplication(k, back, slots).transpose().solve(
        _multiplication(k, M, slots).transpose())
    if phi_t is None:
        return None
    return Morphism(back, M, {v: phi_t.transpose() if v == k else Mat.identity(M.field, M.dims[v])
                              for v in M.datum.vertices})


def counit(k, back, M):
    """The counit F-F+M -> M at the sink k as a certified isomorphism, or
    None; ``back`` is reflect_minus of reflect_plus of M."""
    return _certified(_counit_map(k, back, M))


def unit(k, M, forth):
    """The unit M -> F+F-M at the source k as a certified isomorphism, or
    None; ``forth`` is reflect_plus of reflect_minus of M.  reflect_minus
    dualizes around reflect_plus, so the unit is the transpose of the counit
    of the duals."""
    dual = _counit_map(k, dual_rep(forth), dual_rep(M))
    return _certified(dual and Morphism(M, forth, {v: b.transpose() for v, b in dual.blocks.items()}))


def coxeter_functor(datum, direction, M):
    """C^+ (direction '+') or C^- (direction '-') along the admissible
    sequence; the result lives over the original orientation again."""
    if datum != M.datum:
        raise ValueError("module is not over the given datum")
    seq = admissible_sequence(datum)
    cur_datum, cur = datum, M
    if direction == "+":
        order = seq
        step = reflect_plus
    elif direction == "-":
        order = tuple(reversed(seq))
        step = reflect_minus
    else:
        raise ValueError("direction must be '+' or '-'")
    for k in order:
        cur = step(cur_datum, k, cur, check_rank=False)
        cur_datum = cur.datum
    if cur_datum != datum:
        raise ContractViolation("Coxeter functor did not return to the original orientation")
    return make_rep(datum, M.field, dict(cur.dims), dict(cur.eps), dict(cur.arr))
