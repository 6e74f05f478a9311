"""Reflection functors at admissible vertices, Coxeter functors, twist.

At a sink k the new space is the kernel of the multiplication map

    +_{(k,j)} e_k H e_j (x)_{H_j} M_j  -->  M_k .

The tensor over H_j is materialized in slot form: e_k H e_j is free as a
right H_j-module on the generators eps_k^a . alpha^(g) with a < f(j,k), so
the tensor is a direct sum of copies of M_j indexed by slots (j, g, a).
The loop at k walks the slots cyclically, applying M(eps_j)^{f(k,j)} on
wrap-around; the new arrows are the slot projections.

The contracts (rank transport by s_k, relations on the output) are checked
on every call and failures abort: they are part of the interface.
"""

from .cartan import admissible_sequence, build_quiver, opposite_datum, reflect_orientation
from .linalg import Mat
from .modrep import check_relations, dual_rep, make_rep, rank_vector
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
    pos = {s: t for t, s in enumerate(slots)}

    # multiplication map T -> M_k, slotwise M(eps_k)^a M(alpha^(g))
    mult_grid = {}
    for t, (j, g, a) in enumerate(slots):
        mult_grid[(0, t)] = M.eps[k].power(a) @ M.arr[(k, j, g)]
    mult = Mat.block(field, mult_grid, [M.dims[k]], slot_dims)

    # loop action on T: slot (j,g,a) -> (j,g,a+1), wrapping through eps_j^{f(k,j)}
    eps_grid = {}
    for t, (j, g, a) in enumerate(slots):
        if a + 1 < datum.f(j, k):
            eps_grid[(pos[(j, g, a + 1)], t)] = Mat.identity(field, M.dims[j])
        else:
            eps_grid[(pos[(j, g, 0)], t)] = M.eps[j].power(datum.f(k, j))
    eps_T = Mat.block(field, eps_grid, slot_dims, slot_dims)

    U = mult.nullspace_cols()                 # basis of the new space at k
    new_dim_k = U.ncols
    new_eps_k = U.solve(eps_T @ U)
    if new_eps_k is None:
        raise ContractViolation("kernel not stable under the loop at the sink")

    dims = {v: (new_dim_k if v == k else M.dims[v]) for v in datum.vertices}
    eps = {v: (new_eps_k if v == k else M.eps[v]) for v in datum.vertices}
    arr = {}
    quiver_new = build_quiver(new_datum)
    offsets = [0]
    for d in slot_dims:
        offsets.append(offsets[-1] + d)
    for key in quiver_new.arrows:
        i, j, g = key
        if j == k:
            # projection onto slot (i, g, f(i,k)-1)
            t = pos[(i, g, datum.f(i, k) - 1)]
            arr[key] = U.row_slice(offsets[t], offsets[t + 1])
        else:
            arr[key] = M.arr[key]
    out = make_rep(new_datum, field, dims, eps, arr)

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
    back = dual_rep(refl)
    new_datum = reflect_orientation(datum, k)
    out = make_rep(new_datum, M.field, dict(back.dims), dict(back.eps), dict(back.arr))
    _check_contract(datum, k, M, out, check_rank, "source")
    return out


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
