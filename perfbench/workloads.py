"""The three workloads: inputs from a seed, timed calls, independent checks.

Each workload object builds its inputs in ``__init__`` (the set-up), runs
its operations through a ``Recorder`` in ``run``, and afterwards checks the
recorded outputs in ``check`` with the code in ``reference``.  Functions of
tauforge are looked up on their module at call time, so a traced run sees
the wrappers that ``spans.install`` put in place after the set-up.
"""

import contextlib
import io
import json
import random
import sys
import time
import traceback

import reference as ref


class Undecided(Exception):
    """An isomorphism test answered 'unknown'."""


class CommandFailed(Exception):
    """A CLI call ended with the usage-error exit code."""


class Recorder:
    """Times each operation; an operation that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_seconds = []
        self.first = None
        self.last = None

    def call(self, label, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            print("operation %s failed:\n%s" % (label, traceback.format_exc()), file=sys.stderr)
            out = None
        end = time.perf_counter()
        if self.first is None:
            self.first = start
        self.last = end
        if out is not None:
            self.op_seconds.append(end - start)
        return out

    @property
    def wall_s(self):
        return self.last - self.first


def plain_datum(datum):
    return ref.Datum(datum.cartan, datum.symmetriser, datum.orientation)


def scalars(field):
    return ref.Scalars(None if field.kind == "rational" else field.p)


def plain_matrix(F, mat):
    return ref.from_dense(F, mat.rows(), mat.shape)


def plain_module(F, rep):
    return ref.Module(dict(rep.dims),
                      {v: plain_matrix(F, m) for v, m in rep.eps.items()},
                      {key: plain_matrix(F, m) for key, m in rep.arr.items()})


# ---------------------------------------------------------------------------
# translate-qq


def _translate(step, M):
    return step(M).module


class TranslateQQ:
    """Walk tau^-1 from every projective and tau from every injective, then
    apply C+ to the end of each walk.  The seed orders the walks; the depth
    is ``seconds // 2`` (depth 10 at the default 20 s)."""

    DATA = (("A11", None), ("Bn", 3), ("G21", None), ("CDn", 4), ("F41", None))

    def __init__(self, seed, seconds):
        from tauforge import linalg, pathalg, zoo

        self.depth = max(1, seconds // 2)
        self.field = linalg.Field.rational()
        walks = []
        for family, n in self.DATA:
            datum = zoo.named_datum(family, n=n)
            for v in datum.vertices:
                walks.append((datum, -1, "P%d" % v, pathalg.build_projective(datum, self.field, v)))
                walks.append((datum, +1, "I%d" % v, pathalg.build_injective(datum, self.field, v)))
        random.Random(seed).shuffle(walks)
        self.walks = walks
        self.results = []

    def run(self, rec):
        from tauforge import artrans, reflect

        for datum, sign, label, start in self.walks:
            step = artrans.tau if sign > 0 else artrans.tau_inverse
            chain = []
            cur = start
            for k in range(1, self.depth + 1):
                cur = rec.call("%s/%s tau^%d" % (datum.name, label, sign * k), _translate, step, cur)
                if cur is None:
                    break
                chain.append(cur)
            end = None
            if cur is not None:
                end = rec.call("%s/%s C+" % (datum.name, label), reflect.coxeter_functor,
                               datum, "+", cur)
            self.results.append((datum, sign, label, start, chain, end))

    def check(self):
        F = ref.Scalars()
        problems = []
        for datum, sign, label, start, chain, end in self.results:
            D = plain_datum(datum)
            forward = ref.coxeter_matrix(D) if sign > 0 else ref.coxeter_inverse(D)
            want = ref.rank_vector(F, D, plain_module(F, start))
            name = "%s/%s" % (datum.name, label)
            for k, M in enumerate(chain, 1):
                want = ref.apply(forward, want)
                problems += _module_problems(F, D, M, want, "%s tau^%d" % (name, sign * k))
            if end is not None:
                want = ref.apply(ref.coxeter_matrix(D), want)
                problems += _module_problems(F, D, end, want, "%s C+" % name)
        return problems


def _module_problems(F, D, rep, want, name):
    M = plain_module(F, rep)
    problems = ["%s: %s" % (name, p) for p in ref.check_relations(F, D, M)]
    got = ref.rank_vector(F, D, M)
    if got != tuple(want):
        problems.append("%s: rank %s, expected %s" % (name, got, tuple(want)))
    return problems


# ---------------------------------------------------------------------------
# iso-gfp


def _verdict(X, Y):
    from tauforge import modrep

    iso = modrep.is_isomorphic(X, Y)
    if iso.verdict == "unknown":
        raise Undecided(iso.reason)
    return iso, modrep.hom_dim(X, Y), modrep.ext1_dim(X, Y)


class IsoGFp:
    """Isomorphism verdicts, Hom and Ext^1 over GF(32003).

    'yes' pairs: (tau M, T C+ M) for module_battery members M of A11, B3 and
    G21 with dim M and dim tau M at most ``2 * seconds + 5``.  'no' pairs:
    homogeneous Bn.MlamB modules with two distinct seeded lam, and non-split
    extensions 0 -> tau M -> E -> M -> 0 with a seeded cocycle against
    tau M + M.  The seed also orders the pairs.
    """

    P = 32003
    DATA = (("A11", None), ("Bn", 3), ("G21", None))
    BATTERY = 30

    def __init__(self, seed, seconds):
        from tauforge import artrans, linalg, modrep, reflect, zoo

        cap = 2 * seconds + 5
        self.field = F = linalg.Field.prime(self.P)
        rng = random.Random(seed)
        pairs = []
        for family, n in self.DATA:
            datum = zoo.named_datum(family, n=n)
            for label, M in zoo.module_battery(datum, F, self.BATTERY):
                if M.total_dim() > cap:
                    continue
                X = artrans.tau(M).module
                if artrans.is_zero_rep(X) or X.total_dim() > cap:
                    continue
                Y = reflect.twist(reflect.coxeter_functor(datum, "+", M))
                pairs.append(("yes", "%s/tau %s ~ T C+ %s" % (datum.name, label, label), X, Y))
                if label.startswith("tau^-1.") and M.total_dim() + X.total_dim() <= cap:
                    E = self._nonsplit_extension(rng, datum, M, X)
                    pairs.append(("no", "%s/E(%s) vs tau %s + %s" % (datum.name, label, label, label),
                                  E, modrep.direct_sum([X, M])))
        for n in (3, 4, 5, 6):
            for m in (1, 2):
                a, b = rng.sample(range(2, self.P), 2)
                datum, Ma = zoo.build_named("Bn.MlamB", field=F, n=n, m=m, lam=a)
                _, Mb = zoo.build_named("Bn.MlamB", field=F, n=n, m=m, lam=b)
                pairs.append(("no", "%s/MlamB lam=%d vs lam=%d" % (datum.name, a, b), Ma, Mb))
        rng.shuffle(pairs)
        self.pairs = pairs
        self.results = []

    def _nonsplit_extension(self, rng, datum, M, N):
        """A middle term E of 0 -> N -> E -> M -> 0 whose cocycle the
        reference code proves is not a coboundary; E is then not
        isomorphic to N + M (Miyata)."""
        from tauforge import modrep

        F, D = scalars(self.field), plain_datum(datum)
        basis = modrep.extension_cocycle_space(M, N)
        pM, pN = plain_module(F, M), plain_module(F, N)
        for _ in range(8):
            coeffs = [rng.randrange(self.P) for _ in basis]
            cocycle = {}
            for key in basis[0]:
                acc = basis[0][key].scale(0)
                for c, b in zip(coeffs, basis):
                    acc = acc + b[key].scale(c)
                cocycle[key] = acc
            plain = {key: plain_matrix(F, mat) for key, mat in cocycle.items()}
            if not ref.is_coboundary(F, D, pM, pN, plain):
                E = modrep.build_extension(M, N, cocycle)
                bad = ref.check_relations(F, D, plain_module(F, E))
                if bad:
                    raise RuntimeError("extension violates the relations: %s" % bad[0])
                return E
        raise RuntimeError("no non-split extension found for %s" % datum.name)

    def run(self, rec):
        for kind, label, X, Y in self.pairs:
            self.results.append((kind, label, X, Y, rec.call(label, _verdict, X, Y)))

    def check(self):
        F = scalars(self.field)
        problems = []
        for kind, label, X, Y, out in self.results:
            if out is None:
                continue
            iso, hom, ext = out
            D = plain_datum(X.datum)
            pX, pY = plain_module(F, X), plain_module(F, Y)
            if iso.verdict != kind:
                problems.append("%s: verdict %s, expected %s" % (label, iso.verdict, kind))
            elif kind == "yes":
                blocks = {v: plain_matrix(F, b) for v, b in iso.certificate.blocks.items()}
                problems += ["%s: certificate: %s" % (label, p)
                             for p in ref.check_certificate(F, D, pX, pY, blocks)]
            rx, ry = ref.rank_vector(F, D, pX), ref.rank_vector(F, D, pY)
            if rx is None or ry is None:
                problems.append("%s: not locally free" % label)
            elif hom - ext != ref.bilinear(D, rx, ry):
                problems.append("%s: dim Hom - dim Ext^1 = %d - %d, form gives %d"
                                % (label, hom, ext, ref.bilinear(D, rx, ry)))
        return problems


# ---------------------------------------------------------------------------
# suite-qq


def _verify(check_id):
    from tauforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--suite", "paper", "--filter", check_id, "--json", "-"])
    if code == 2:
        raise CommandFailed(err.getvalue().strip())
    return code, out.getvalue()


class SuiteQQ:
    """``tauforge verify --suite paper`` over QQ, one ``--filter`` call per
    check id in ``all_check_ids()`` order, in this process.  The inputs are
    the paper suite itself: neither the seed nor ``seconds`` changes them."""

    def __init__(self, seed, seconds):
        from tauforge import zoo

        self.ids = zoo.all_check_ids()
        self.results = []

    def run(self, rec):
        for check_id in self.ids:
            self.results.append((check_id, rec.call(check_id, _verify, check_id)))

    def check(self):
        problems = []
        for check_id, out in self.results:
            if out is None:
                continue
            code, text = out
            if code != 0:
                problems.append("%s: exit code %d" % (check_id, code))
            start = text.find("\n[")
            reports = json.loads(text[start + 1:] if start >= 0 else text)
            ids = [r["checkId"] for r in reports]
            if check_id not in ids or any(check_id not in i for i in ids):
                problems.append("%s: artifact holds checks %s" % (check_id, ids))
            problems += ["%s: %s failed" % (check_id, r["checkId"])
                         for r in reports if r["status"] != "pass"]
        return problems


WORKLOADS = {"translate-qq": TranslateQQ, "iso-gfp": IsoGFp, "suite-qq": SuiteQQ}
