"""Golden output: the module JSON of every catalogue module and of its tau
and tau^-1 translates, pinned by sha256 over QQ and GF(32003), one sha256
per field over the whole parameter grid of the catalogue, one per field
(QQ, GF(32003), GF(3)) over the projectives P_i and injectives I_i of every
catalogued datum, one per field (the same three) over C+M and C-M of every
catalogue module, one per field over the tau^-1 walks from every P_v and
tau walks from every I_v of five data, four steps deep, one per field
(the same three) over the Ext^1 cocycle bases of a fixed grid of pairs, and
two over the catalogued data themselves: their Cartan data and their
Coxeter data.

A refactor must leave these bytes alone.  When a change of output is meant,
print the new tables with ``PYTHONPATH=src python tests/test_golden.py`` and
paste them over ``GOLDEN``, ``GRID``, ``PROJ_INJ``, ``COXETER``,
``DEEP_WALKS``, ``COCYCLES``, ``DATA`` and ``COXETER_DATA``.
"""

import hashlib
import json
from itertools import islice

import pytest

from tauforge.artrans import tau, tau_inverse, tau_walk
from tauforge.catalogue import _FAMILIES, _MODULE_TABLE, BadParams, build_named, named_datum, named_module_ids
from tauforge.linalg import Field
from tauforge.modio import rep_to_json
from tauforge.modrep import _cochain_layouts, _vec, extension_cocycle_space, make_rep, zero_rep
from tauforge.pathalg import build_injective, build_projective
from tauforge.reflect import coxeter_functor
from tauforge.rootsys import coxeter_data
from tauforge.zoo import _build_id, module_battery

# parameters by datum family, the prefix of the module id
_PARAMS = {
    "Bn": {"n": 3},
    "Cn": {"n": 3},
    "BCn": {"n": 3},
    "BDn": {"n": 4},
    "CDn": {"n": 4},
    "Atilde": {"n": 4, "i": 1, "j": 2},
}

FIELDS = {"QQ": Field.rational(), "GF32003": Field.prime(32003)}
WITH_GF3 = {**FIELDS, "GF3": Field.prime(3)}


def _digest(rep):
    text = json.dumps(rep_to_json(rep, embed_datum=True), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_hashes(field):
    """{module id: (sha256 of M, of tau M, of tau^-1 M)}."""
    out = {}
    for mid in named_module_ids():
        _, M = build_named(mid, field=field, **_PARAMS.get(mid.split(".")[0], {}))
        out[mid] = (_digest(M), _digest(tau(M).module), _digest(tau_inverse(M).module))
    return out


def grid_params(module_id):
    """Every parameter set of the grid for one module id: n = 2..7 (Atilde
    3..6), so that BDn and CDn enter at n = 2 as their refusals; m = 1, 2, 3;
    lam = 1, 2, -3; every interval (i, j)."""
    family, _, spec = _MODULE_TABLE[module_id]
    ns = (range(3, 7) if family == "Atilde" else range(2, 8)) if "n" in spec else [None]
    for n in ns:
        ends = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)] if "i" in spec else [None]
        for m in (1, 2, 3) if "m" in spec else [None]:
            for lam in (1, 2, -3) if "lam" in spec else [None]:
                for ij in ends:
                    params = {"n": n, "m": m, "lam": lam}
                    if ij:
                        params["i"], params["j"] = ij
                    yield {k: v for k, v in params.items() if v is not None}


def grid_digest(field):
    """sha256 over the sorted (key, module JSON) pairs of the grid; a refused
    parameter set enters as its message."""
    pairs = []
    for mid in named_module_ids():
        for params in grid_params(mid):
            try:
                value = rep_to_json(build_named(mid, field=field, **params)[1], embed_datum=True)
            except BadParams as exc:
                value = str(exc)
            pairs.append((mid + " " + json.dumps(params, sort_keys=True), value))
    text = json.dumps(sorted(pairs, key=lambda pair: pair[0]), sort_keys=True)
    return len(pairs), hashlib.sha256(text.encode()).hexdigest()


def projective_injective_digest(field):
    """sha256 over the module JSON of P_i and I_i at every vertex i of every
    catalogued datum, sized families at their default n, all at m = 1."""
    docs = []
    for family, row in sorted(_FAMILIES.items()):
        datum = named_datum(family, n=row.size[1] if row.size else None)
        for v in datum.vertices:
            docs.append([datum.name, v,
                         rep_to_json(build_projective(datum, field, v), embed_datum=True),
                         rep_to_json(build_injective(datum, field, v), embed_datum=True)])
    text = json.dumps(docs, sort_keys=True)
    return len(docs), hashlib.sha256(text.encode()).hexdigest()


def coxeter_digest(field):
    """sha256 over the module JSON of C+M and then C-M for every catalogue
    module id in turn, at the parameters of ``golden_hashes``."""
    docs = []
    for mid in named_module_ids():
        _, M = build_named(mid, field=field, **_PARAMS.get(mid.split(".")[0], {}))
        for direction in "+-":
            docs.append(rep_to_json(coxeter_functor(M.datum, direction, M), embed_datum=True))
    text = json.dumps(docs, sort_keys=True)
    return len(docs), hashlib.sha256(text.encode()).hexdigest()


# the data of the translate walks, as (family, n)
_WALK_DATA = (("A11", None), ("Bn", 3), ("G21", None), ("CDn", 4), ("F41", None))


def deep_walk_digest(field, depth=4):
    """sha256 over the module JSON of the tau^-1 walk from P_v and the tau
    walk from I_v, ``depth`` steps or until the walk reaches zero, for every
    vertex v of each datum of ``_WALK_DATA``."""
    docs = []
    for family, n in _WALK_DATA:
        datum = named_datum(family, n=n)
        for v in datum.vertices:
            for start, step in ((build_projective(datum, field, v), tau_inverse),
                                (build_injective(datum, field, v), tau)):
                docs.append([rep_to_json(M, embed_datum=True)
                             for M in islice(tau_walk(start, step), depth)])
    text = json.dumps(docs, sort_keys=True)
    return sum(map(len, docs)), hashlib.sha256(text.encode()).hexdigest()


# the data of the cocycle grid, as (family, n, a vertex with d > 1)
_COCYCLE_DATA = (("A11", None, 2), ("Bn", 3, 2), ("G21", None, 3))


def cocycle_pairs(field):
    """The pairs (M, N) of the cocycle grid: every ordered pair of the
    battery of 6 of each datum of ``_COCYCLE_DATA``; the 1-dimensional
    simple at its vertex, the projective there and the zero module, against
    each other and the first 3 battery members both ways; and the (Z, X)
    pair of each main2 check."""
    for family, n, vertex in _COCYCLE_DATA:
        cd = named_datum(family, n=n)
        mods = [M for _, M in module_battery(cd, field, size=6)]
        odd = [make_rep(cd, field, {vertex: 1}), build_projective(cd, field, vertex), zero_rep(cd, field)]
        yield from ((M, N) for M in mods for N in mods)
        yield from ((X, Y) for X in odd for Y in mods[:3] + odd)
        yield from ((Y, X) for X in odd for Y in mods[:3])
    for family in ("Bn", "CDn", "F41", "G21"):
        size = _FAMILIES[family].size
        datum = named_datum(family, n=size[1] if size else None)
        z_id, _, x_id, _ = _FAMILIES[family].pair
        yield _build_id(datum, field, z_id), _build_id(datum, field, x_id)


def cocycle_digest(field):
    """sha256 over the ``_vec`` columns of ``extension_cocycle_space`` of
    every pair of the cocycle grid, with the number of cocycles."""
    docs = []
    for M, N in cocycle_pairs(field):
        at = _cochain_layouts(M, N)[1]
        docs.append([sorted((r, str(x)) for r, _, x in _vec(field, at, c).items())
                     for c in extension_cocycle_space(M, N)])
    text = json.dumps(docs)
    return sum(map(len, docs)), hashlib.sha256(text.encode()).hexdigest()


def catalogued_data():
    """Every datum family in sorted order, a sized one at each n from its
    least to 8, each at m = 1, 2, 3."""
    for family, row in sorted(_FAMILIES.items()):
        for n in range(row.size[0], 9) if row.size else [None]:
            for m in (1, 2, 3):
                yield named_datum(family, n=n, m=m)


def datum_digest():
    """sha256 over name, C, D, Omega and delta of every catalogued datum."""
    docs = [[d.name, d.cartan, d.symmetriser, d.orientation, d.affine_kernel] for d in catalogued_data()]
    return len(docs), hashlib.sha256(json.dumps(docs).encode()).hexdigest()


def coxeter_data_digest():
    """sha256 over the name and the Coxeter data (sequence, c, c^-1, beta,
    gamma, N, nu) of every catalogued datum."""
    docs = [[d.name, *coxeter_data(d)] for d in catalogued_data()]
    return len(docs), hashlib.sha256(json.dumps(docs).encode()).hexdigest()


DATA = (135, "6c1e51b43afb1a145227e4532348df7838ed05d605f0d19a2b640a861731a645")


COXETER_DATA = (135, "09529dd5cf920e2f1d514cca187fee21949694cbd2e46a9e56a232b6d059c743")


GRID = {
    "GF32003": (417, "e9d5605301f7ff642210ce3cbbf2db7ce73f32997de00b6e9eeee64875416b2a"),
    "QQ": (417, "e25ba77e990c14816c775995f202d1931d0b9a00530b355329ab3ae057d2e110"),
}


PROJ_INJ = {
    "GF3": (46, "f7352ee678bd1265639e3e6f3b33df90e1a7f1344320b08294d19acc1bde624b"),
    "GF32003": (46, "07195eb61e6110039678a60e548a803de5fe258e055c0eafc4a210134ccd5876"),
    "QQ": (46, "aedc3b2bd0221a91832588d49af134fc36009d8355ff735b76470fce33988018"),
}


COXETER = {
    "GF3": (72, "c6820a8edf43ad794061379fa12290e278f3098c84accd26a9055d7ec8590032"),
    "GF32003": (72, "8638177e004fda3133fd9a9166c808170de6522b3323164b2c53823a38e205cb"),
    "QQ": (72, "80c62578f167a968263ef8e6422f737af3ad9f719b66c40ced76614470914ee5"),
}


DEEP_WALKS = {
    "GF32003": (152, "e61eed2d4ef2e403c3644a51bde1f83ca6ee8f459acb73052238c2fbe106a23d"),
    "QQ": (152, "fe85f6b0b05be3e3e1a7375d8242e1d9f5f20ccffb79104f01d6ff7ced09185a"),
}


COCYCLES = {
    "GF3": (745, "6d5d026a52d9dce46cc43815590ce33b865a628f1d04fcfa8ebeb297cea9e5dd"),
    "GF32003": (745, "6e0263fdf4bb885d14bc33d5ceef62767e550ed19e390d5e1f9ea3559ffbf666"),
    "QQ": (745, "a7d71212d77c0747aa277d8cb628ef9dfcabfe11e55102c9d529bebe748212cb"),
}


GOLDEN = {
    'GF32003': {
        'A11.homog': (
            '2feb2340ab6865f0f053ccc96339d16f163aa1a7179207724e391e481b2d2787',
            'a8abca7dacb84001cf71d1b4e5b5f1b88d7fe858e487a88a8c980086e4ccdcf5',
            '8d3bc6b51a82d8dd9f9a4f4ab705b414eac358223149e9e69054c614b2fb374c',
        ),
        'A12.homog': (
            '517a6dda0ce69cf5c8eeb97126c6b3be4d38c944d287b94e2284d81c9af23f75',
            '517a6dda0ce69cf5c8eeb97126c6b3be4d38c944d287b94e2284d81c9af23f75',
            '517a6dda0ce69cf5c8eeb97126c6b3be4d38c944d287b94e2284d81c9af23f75',
        ),
        'Atilde.interval': (
            '78e5bfa484eb266f7119ce122aab96cc487324a7bea764ff8e793141e8d61214',
            '276d35256196895360d61b2e21283be1527bf9ec302e45e81afa2c784649aeeb',
            '6e7fb682658c2557b0ca4d959b7d23cb80fc0cb600e8d1d9d6aa7a0072c371a7',
        ),
        'BCn.MBC': (
            '074a46efeac29bc0f8591d5cc09356558ecb1f71fa451560d7e9e53fd8a93d68',
            'ed8f01749b8e0a2577398d230374e778ed5a409c314203f3c74314613396929c',
            '1398b69250aef6f42538ef8851034886b02a788ebdaf38afe997d7b46a8c1cd9',
        ),
        'BDn.M1': (
            '4f99dd138f9aa898b25d987e0efb33ae349d01b5ea59085473de3ff3d4414259',
            'd19db356d12a0de0f258732b4967edd3f98bc94508bedf919b7fa97a7662923c',
            '484127b25f950800b1ab4e58a0a5dd8b214d1334a7c86d1c95903345ac9c9bf0',
        ),
        'BDn.M2': (
            'bb1d6fc470b7233950c9851f02b53ee0e4257183058249b6788f6ea0c2d2fbfc',
            '284e47613c2139e8efa61ede61a6615554edb99ea1e132d0633be7e36b0d6dd4',
            '7a2f947425f7aedbd234743053c186ca8677864b04e9afe012463493af8a7add',
        ),
        'BDn.M3': (
            '7a2f947425f7aedbd234743053c186ca8677864b04e9afe012463493af8a7add',
            '8e9880ba2aecb3782384b9fb33c62c761929870ef80c8f10a5d8108c1fb8e0e7',
            'bb1d6fc470b7233950c9851f02b53ee0e4257183058249b6788f6ea0c2d2fbfc',
        ),
        'Bn.MB': (
            'e2b053fdf009b2ad3c3d8003fe5ad6866f234c1a46c767d7bf30db9ec0802053',
            '17f9946484eaeb532ef885a8fc858b554045410cfcf45a5ebe48ee25e494c9aa',
            'a5a4964f4953319a2a869570e53115097aebc99d927eb431e3dd818060f3a268',
        ),
        'Bn.MlamB': (
            '2c6562bddd084ac2a945f5eccc3ff538a2e6b626007ae5bd92924cf7bc029b7c',
            '86ca8a17c79d1146b58bef369b0dc6ca71882feb0e310bf928204fe560a7167a',
            'd676a8aff0dc6061d87d68e186ae77c75decbc5f09ff94f2a2c78a76271af8cf',
        ),
        'Bn.Y': (
            '25eeabc10a54b274f79d049eb3b0e70a867cb972445f4c237a59aab886570056',
            'dd7f5aaf76a360cf312ba16096f1a600a0683562048c2816305d9db6742499b2',
            '3ccbc80900b10f4bab5445d6ca4b69acd37b6bb83ce91b1f8f3c00f5fab7e423',
        ),
        'Bn.Z': (
            '32320b16b479e07a3cae27ec729b7077773fd1380305452633af1a80fbff3e67',
            '20774e16926f0830c3d9962f4910b31c055b476fa9c71ad29d79d9f8aee7a6ab',
            'd9a630aaa0c6bc03ce1aef2ed930593aa84bfbd0f17565e175e21d742f850d3b',
        ),
        'CDn.M1': (
            '6f30030e5f9a3112fed9aac2fd3bf6ebcea4ce21da960dc2fdf60f498f1075e4',
            '832036765436aa8a1bfaa39951b4241ca92ba9b043deb494417835c8fda05c87',
            '286f289ecd677479aa2d446a20cc60d52c2baf8cce5ffdc29826ba41cd5daf7c',
        ),
        'CDn.M2': (
            '3ef1c51ebbc8f8420f0f999175fffd7d28a9ba4468a935a93b2855abab950f50',
            '63b3664ce9f206cadccdcd0601415e2972d11d47c26129c3125b848386ca5cec',
            'a281d8634223426130361cc80188637f7eb626ce236ff404bba08ff84dedb017',
        ),
        'CDn.M3': (
            '6e01cf9b3975882c11f234953c933bd7bc616b851998a33cba4d28e25202c1dc',
            '16be7f5d4f112078bd09d8421731b8ae9ccab3f834f11b0ec9405672aa57ed53',
            '2e403146e20db7e9bf7bb356b6dc87cee16fbf37fbe42ff75a2384aa9bd0574f',
        ),
        'CDn.Y': (
            '71514ae3bd3854e3eadb8af730c9314cdf4a32389ea05a29f95f78e1afed9581',
            'd72d1efcb103cad9955a25b2ca12a12c0d2b947c8e4064ca87fa731de477c9d2',
            'dc2949271e94a1c3495b5f7244d97b543aef05e7c782c4cebd7ba714e79b0cfa',
        ),
        'CDn.Z': (
            '16bebd8c7b09f70cf46874bfcf50183c528d1bd1aca0803b94691fa178d1dada',
            '8670e24c4fa348463ce8bf51d37a256c7b157a886656a7189e7792eb516edb31',
            '2a1bb2bdabc50962a49ca445d90ae4a88a46384e43677ede94e76341488bf9a6',
        ),
        'Cn.MC': (
            'bef2a890425051f3e6fd7b927f688eb776c694d2137de5c565fb3735b7719c74',
            '94014cd1b1a19e86155ccee3b135054a41a6256686a11399033762959b56cff1',
            'be8843a8f4b60041357161d89b5cbbe9d7f542748ed90e09b4b64f37a6c3fdc9',
        ),
        'F41.T21': (
            '0d81fed767473bbb4a0778950f971bd90534facc3c931f55119191b8ebdd60bc',
            '426988ef873b794059017bdbd4bc91b1c6c79d2d5c302ead02057436eab8eb3e',
            '13d26a49659f9edf89d5a39c48902dec7a646dd6465de71c70e334d76faa821f',
        ),
        'F41.T22': (
            '16ecdceb36f13933911423534934935fe03fdf0f947eade29e7073233585bcc3',
            'c1156ebe1501451b8252427c49431b0e954156e8b6792c2b3ada62f9c4ba4cb0',
            'bd2d6afa001b9ea1a13fed57005f3dd10ba16e7f6932f4c84dafd8d204b97716',
        ),
        'F41.T31': (
            '57f5ac43544ea1cfdccdcfe3a70d0c5a6e40fd520b95c0f3aa646d2af65ce3dd',
            '24d7a4cb82b900f9bb130a0921b819e223499a204c4a8117904c56a4d53a943e',
            '7c00742b4db7879a72e104a4297f28d0efd9213891312a67a85e0874d76ca060',
        ),
        'F41.T32': (
            'b108c0190d5b24268858725135dbcf097e396e8e791ac44749da91c92a8ecc08',
            '8589155e8ace71e22ea08539cb5984fe39b625a53d7e3fa24cedc7149e9604f6',
            'd7ee05a7fcf4d059d8a4367be12eefa93de26d70b2342acee91b008da8045f62',
        ),
        'F41.T33': (
            'd61b0142bbfa67fb191c6f6dd077dc333a9669c81481ce5401b1e0acdb2a6310',
            '6a6cf334bff382ef06c9260089a7647151e6e21891ff77c8804d89fea5d77837',
            '02d46d0425942fadc55a040c2e8dff396c01bc0c2579ae21082a063b255ef486',
        ),
        'F41.Y': (
            '5f7c53ea6dba86a270b055c4b33a6ce17aa30c303ddb6cc7cfd21f38f68eda93',
            '758acf5602b1209cdc288a65e40619e4f9cba84f07436c2a2cf5bad65322175e',
            'e1d2acda22ac7a4c9a93091e0501ac9ffe1c0477f1858c6265d78992a6d1a225',
        ),
        'F41.Z': (
            '09c0b291b4bc6faf181b62c56ab131f66d262e5154804c804015de8e54c821ac',
            'a5cd641a18bb7bcc337bb639c9aaf33a9264ba122e1bdaa6072eb0cf44ef2121',
            'c88fde613099c68ed126a22cc57bc1abec9a2309ffd6a616b19871799077f62e',
        ),
        'F42.T21': (
            'fcb9e88cb5e44ddd81ddb9b6547470b9548a8ac74b78ed4137ea3688d49a0643',
            '8698f3f28bff058d9ac27c76a59ffd79772b86d71514fd352cdd9f9193d3750a',
            'd03604ca37e600c415115ec00eb286109407f155eeff0a032815c49144b0ea6a',
        ),
        'F42.T22': (
            'f5f76a590ff5b7daaa113b149a8dcf18b5aed10614cc9da23363988a2a42fe53',
            'c17ba6ef48144afc9f972da5ba3db2da25e379ef925986e2cc2abe9348b29d82',
            'd0a98f99be206e641086119d92954851c6c493330aea6ce11a03eb4559e2b457',
        ),
        'F42.T31': (
            'cbe04f1959b2cb85d20c9db68af2540a907ff336c5da7fba3304064f1c0a55fb',
            'cf4fef859aedc2685c5fbf220e413e15a2c6d6a82b5ce7f2e77e9ce3e364a76b',
            '1b341ca451f44f2d62dbb65aa5c2c5f8e2306d544325649b99aaece0d62520e9',
        ),
        'F42.T32': (
            '7d9e2e9b7cff095c9d89a1840a82fc32e6ccb144766f91a9e9db6fd4c4edafb2',
            '3f6881e7d0c898f476127777397e760cf0fb7eb9898136d956c04cf6fee6f113',
            '532dfb052c11da48220925cce56f146d08e2521af9545e41ce9c1abaac2aa931',
        ),
        'F42.T33': (
            'd355f65e761135676776471555a08400593e70ba42178484cb69e03aa46d64b1',
            '1e285eb85efdfc4b9be7e1b6b476088b0c95c975b999828d7fe616131fc47ab1',
            'eb6f3b6f26af7576bcfc98f0288e16bff81a6c1e77e64ef4f9f406c590febb93',
        ),
        'G21.T21': (
            'dba2d987211a1e8df05a1b9fd5e4354631d4c46506fe62c4bfe0dbb028f3f37a',
            '482b2467a6bfd508ed373302bf5d7d9cf99fbfe2c52af5dc3a40fd0c435cf760',
            '8396ef006d89ad394d5c81c355c906e455c2e5b57f36c3835dd091974e5dd9f2',
        ),
        'G21.T22': (
            'e041d57b55874747e34aa37a9f0d3e92ed651fdd6ebd59522a6e3e236bbb601e',
            '8a2bf7c3423bbc5ab2ac1eee10f4f8a08079bbb712d50afaecf6166520e2fcda',
            '2031b59ae745d4f09860c357329dfa10da7a254a9698e402b684326881e92b70',
        ),
        'G21.Y': (
            '4f142dbf1d9427351fb48071757c9bea8c44628964b57069b57337c3eaafd09a',
            'cab4087b1ff2a39f106d6ee2593c6fc7f836b854611ef9a63530850fa62b929f',
            'af22c8c235b8cc6bbf6d107d38a79c8c0619e6356b8cab3a6c8d0928902fad2c',
        ),
        'G21.Z': (
            '673b09c2c004440dea1078c99c1dbd4ac94ad378033241dca993b7e7ef85ed15',
            '985032d9780952c7a3f2ba306760e1aa53c1a63d019803a3dc6b2acebe8af257',
            '8ed25335a5e9c095e46ac1c680cb5faaf856245e6bf4905acc20a8134ae99d03',
        ),
        'G21.homog': (
            '1ed31a79f05a2dab7fc4be29dba5ce646ab860c0f1ac30959979b6deb40e3e20',
            'e6a54f60c939000abb1648b6388889a40d6950b92ff76d7f274a755f02808c39',
            '28301f8ea5c1298cbee941b87b9bcac0c473f65c7aec6707a21542f0f154a969',
        ),
        'G22.T21': (
            '283407b5182089d11d82bc02854f5efdc77413186e334f8bc8a1f52b03cac7ad',
            '38af0b566eeaeef72ff056f0b108d3bc458d287549d1ec41ca2a6327ee8af819',
            '2994f62567008191647e37eeb4ec92867b6930d0c58321b09685101bb8224d5e',
        ),
        'G22.T22': (
            '2c471f5c6adb1dc1da8321772afb71827d2097578343393a21810e6e75ebaeb4',
            'c0dd051d42bf5645ac232b5326c5039e456d2df0f3bbfba05ac55af348f25767',
            '34edd117a94c0af85a9d72e5abcbfa219e6a7c11715e11d1c45b4aaf4300cd92',
        ),
    },
    'QQ': {
        'A11.homog': (
            '77a8db165e28a81f95eec902f63421bfdad1b38a42c48601eecd4b42a5d614bd',
            '94e8610e781c87e8e56563d672f3aa508206b56e98aa4c9b7c2a95b27d6901c7',
            '17afaf0221e9ed6f32a96105c6ed3617baa7fd013b21cef0b2f05636c46de1cb',
        ),
        'A12.homog': (
            'd7b607eba06bce7ff731cd79c785d7e932d4b12675cc6ebec9692ccb3a0608e8',
            'd7b607eba06bce7ff731cd79c785d7e932d4b12675cc6ebec9692ccb3a0608e8',
            'd7b607eba06bce7ff731cd79c785d7e932d4b12675cc6ebec9692ccb3a0608e8',
        ),
        'Atilde.interval': (
            '27827cd9c4275205fe9d4aacc205630f3e328db8e561dd8a5723adafab673a40',
            '82c9c73974e4f4bb51eb9720a3c031872bb8a069f137cf26caeb27cecd0e388d',
            '2225d19f283ec03da420dc9c059de80008346cc5d73546de457c380d8091c35d',
        ),
        'BCn.MBC': (
            'ed7b1b3b5973241c99b5ec8574b3a7da6d2d76b38e3c7dcfb868e1b9196af1dd',
            '0b2cfeb7b7befa7c458e3e493012a1367d38203b61d4e5ed4c37a4ddf4c6757a',
            '5395cb4e1edd43d1b1e860c3f766f0f6218e8a3bb8f935155463b4bfc82959d4',
        ),
        'BDn.M1': (
            '3dea8724cd47cdc5ec079f02a6cba6480115077c21c0d8d24eb317dc50b076ab',
            '064b24bc1a7a1d7c15a9fe238584f070031af0da91b69a88a7558a5e799f0b7d',
            '7cae8595c4b34836d7a6e4ecde7d8e2b932f8b2026605f25522ae678a4141c1a',
        ),
        'BDn.M2': (
            '45c5a2225c19ab8df15cb496d5e9f0bc93ec7fe9651605073ed221697e638041',
            '88ed777c376401ab14e761c627cc65f068f4507c8bf9fc6ff88dfaa58c65f23a',
            'd490a76414983029eff328c9f0e764002a202aa0a30fcc8581ab96c34e469b07',
        ),
        'BDn.M3': (
            'd490a76414983029eff328c9f0e764002a202aa0a30fcc8581ab96c34e469b07',
            'b6df0ab0dd1b23f1cad2954f861ce8a53a3dc2a112fc72c187788acef0cd925d',
            '45c5a2225c19ab8df15cb496d5e9f0bc93ec7fe9651605073ed221697e638041',
        ),
        'Bn.MB': (
            '7759ab626f0de006a785d0942242f9174c5682afcde0283c26ac89d06c3c5d81',
            '7d945eb25a62bd917cd88a2d158a7826979e747555c4dd56f42bd1ba4854f6c7',
            'fbe3e9a768d33e01a757c5419a4b9bc77f653912ccd6d3b1ad73870cb3aea52a',
        ),
        'Bn.MlamB': (
            'f03f1090ceebb90dff56258323814d0bd0c98a7bb524a7eb28b8c436489e272b',
            '2bf61d01a66f0497e0ee685b8d4d3c97790470a07fb88313e590b90763ae7572',
            'f03f1090ceebb90dff56258323814d0bd0c98a7bb524a7eb28b8c436489e272b',
        ),
        'Bn.Y': (
            '2ccc2c6faa9fe07ef7be431398024945175db53fcab4fba5b7bca66f386eb54d',
            '0f12bc5da79d34f1e755a04f758891faa2c6a2797f5d98eca55fe8279d6754b6',
            '56078af16a61aa05390254f725e9f0f550f1fb30797457f530d40e96f7903c7d',
        ),
        'Bn.Z': (
            'a52b705072c91f03f7d3356a49d2cc94fd47ddefd55d1547e1bec77715d5e6a7',
            '5c5f2cbbcd5a76fcd8cca190a3732bf1dc67c8561e3b4f45db3620dd367fcab5',
            'd915a97013c1bbf0e68d51584b463c2f3860bae29897696f771811125f474baf',
        ),
        'CDn.M1': (
            '9a630f69c560b466b565348453640152e61989ef16bcc17bf30a7e7d44e18945',
            'c871bd8340a24398c7eb511ada549d684fefffdad73d84ec87b495f413f13050',
            '06f23944122b945d6508954f372c49d843b743ea36366562c3b1a2d1278a1554',
        ),
        'CDn.M2': (
            'a41437f6734ae63b80d97b5abfa71ac23c765939dcdd54a2e1ebbc18625a5b90',
            '584f54f5bd2285188aa32173527b21915a7ad8c8952a7c0b0a9534898719a8f8',
            'd92495a06b41760a3c5f7ad0729289b70a794bbd85d8554bce8830d6be62b951',
        ),
        'CDn.M3': (
            'cd2869d41ba88984f34633ac785007c99a2e503ca15ef7179eb72638e79741c3',
            'fd1aa9c80675945a30aa21c675312c33c01898c2abebdb7914590163731ff8b4',
            '10a8b5f262ed18e6d434f207803e2b7b94f7f88d68584b72201c878ab2608f34',
        ),
        'CDn.Y': (
            'cff218bfd922ca40ce8e1b6452f3d356b10bc3b1f89cebd99c54a23e7a9f9001',
            '3405dd6f6cc82ad9883666af31f299b422175de5b55b2de96793351589e99e04',
            '2aec71b102f2089953a5ad4115070d0235f8275395fdb1363afa5e7ec3d2caaf',
        ),
        'CDn.Z': (
            '088f7a43fafc9892e4a7d6dda203c3fabb78df10de4649a66417e87f1c446bcf',
            '782fb635e1b163631612be195460ae1eb7040bf55127debc87e40f85f1fecab2',
            'e8c0783bb7fda43c29e47e5717a0b6ac6aae940bdc5e80b85e1962dff065cf86',
        ),
        'Cn.MC': (
            'e36991553727a8635a1d27afdf4de7e35e7c05c144c4520b87cec612fcdf1587',
            '7c304c69906de23de77afff72816cb8f844abea952f3775657397940acb6c869',
            'cea0c0d659403db1695ebcb42efbb13e8deddf82838c71099e547e85c9e436ef',
        ),
        'F41.T21': (
            'a7572f2db9d183dae862752058be9d83cc74f311bcc373fd84d5e30c2e0d0966',
            '374930178922ca70dd5eda6d25941a0852f8c367b3a78e6876a86955f767004a',
            '0dfe16de826dc48c9dec516f2dbd9c03d28a175ff38715635ae395c2452cb742',
        ),
        'F41.T22': (
            'e6109995120da7456a2b6e200532a267c4f49d47dff1c768c166a6083f2b725c',
            '947a3251694dff5de5ee8e95ec6a147eab17e11be18af85cfc0fe1fa74b8e474',
            '4d1e128b517d96a0cb08512d05d2591ee5ad5f1b1d59cd442ee0cc9a1f59d64b',
        ),
        'F41.T31': (
            '23f3b2ab49a783d2018a854070dc27d6c885de8e9d8c65cb2736f875a5980755',
            'c462e1e19eb7ef946e4b4d19301f10c22067814699f7e6c3d3a3187f39db9df9',
            '9b42ed3fd81f26c155bcf1859a4bdd7f54e3614fd32ff4123a6b1b5e32cd962a',
        ),
        'F41.T32': (
            'f37b438c270a6178f7c8b46bb81104dac8d9da4d4db81fbfe6f93fe847f9c387',
            '7baad51a0b2551d6695252e10539941998b287183ec4e4021f023fbed50c6332',
            '0446b69024e54050c37e233a4541d9140bf596929aa4a65f2cfee8aac3041d7c',
        ),
        'F41.T33': (
            'd3c217663a808b07f05d9d172473500840e2560f20a07d0d434ff06c69fb7801',
            '16fd8ced467d5993e49c7e467bd1a43a99b5822a7305ef3290282c605c637e18',
            '283d8c41b39f356b694a9339fd54ced7be3d8449fb90d06d2c5738a1b9557180',
        ),
        'F41.Y': (
            '515d55e4ce4ef020cdf9c39bbcf5617d3adb1a353970201655ddef149cf89a7b',
            'fdcd0959990467a030ae49d1b50e2be2ce644935ae894ad78a9c5e91c7852819',
            '3787730fa3d06ec90e22e4d771465b8a18394bfad1207bb906ca037a15002f15',
        ),
        'F41.Z': (
            'c4b95a51f1538a61cb19ab78c780962f62b46803c62f3582c85ef70ca069e35f',
            '2e962c7acd1ba2f33372ea98c5638ec0d20ed8a72bb7c2eddb884fae6ce15d80',
            '56b7a94a9d4f1e3a34b34a3bbaa67185f9b94a61baa3ff65964d4779001a59dd',
        ),
        'F42.T21': (
            '62ec3495bd024aefadf695de9769e723951de64cabb151a2ac275e6e1d6500a6',
            '8597ba64aab75a89abcd42d45fc7bfd1f640121c1fcdd64d96e21d09902d49a7',
            'a57846e383d782cf9b5ae888c2c7f3d8579dbee8754cbcd947e71afa5c673fd4',
        ),
        'F42.T22': (
            '5065a5bae47cc07f26cf9bdabf4756bbbe46c42a9b0f4310b6b3d34673a97a04',
            '9a12bd7f48b08dbdfea8c9446ed69ce31782c8b7bbea29c3f685ca98b4c38ff7',
            'e5247ea894351aa63e9fd6ef64b80b7411dc49b4e3ad5912c6c5ab40c7419de7',
        ),
        'F42.T31': (
            '3e1abe276a47f26e20322337286f024b719f15b93c04120ba0380decc0010934',
            'f688dd59b50265aac0ab4440aeafef5445f39b86b0c0f530299034322ddd0909',
            '0b7311457b470bb4d07d136a37c83a2782149a6676b53a70bd6d04140b0d28fa',
        ),
        'F42.T32': (
            '8c3504282e862ba466668c68d21b7982eaad356acf7d88481c7f840f3246559d',
            'c352a8d28edc017bab8dfaabb1cb6fe3a82138e1491582aa8e85eb74f7312f15',
            '1fcf8fef75ce21ca02190e80f13e90faeadea4888068a4388acad3d9566abb51',
        ),
        'F42.T33': (
            'df58cf6d00f0b7edd8c393186e35b1af19b1c0ca643792e334bb13ae3359a70c',
            '413e96e21c3bf6b87dc56fcfc6a6551886a642a91f0953c647aff1e7f2625f37',
            'a49c4e8b6ee1115e1c57b98a7cb728d6a81ab3b486f569e542c99bb957220bd7',
        ),
        'G21.T21': (
            '791687abc84bf1314036c474274e9abef224deb30733f957781bb4e7ddd44ca7',
            '515e1b2767127c331dfdb4ab4cd0fb0ea821a585ef226dab01b11c1f583b962e',
            'af7635b801e8b56726d4f45a2ba6d68c0596d21db0eba7b246bf131848dd8f9d',
        ),
        'G21.T22': (
            '783d035ebc0664e4780303d58a3330541eeb0352fd001a5d5c7a0989bc46862a',
            '6868f95242dcc7e9cea25d3c738660c6037ad5a74cb9719ad8afb04b6a085c08',
            'c64abfc6a5517390b5a8eefc6ad70061c336a3683cf7d53bb9000d7f58314774',
        ),
        'G21.Y': (
            '87c0c4fb64a59119356dc836d62918a07f3c4c4d8347a569175541cd2b35cc99',
            '9799078ab1c27d51772569f9778db070a54ec023a365f40e493f2cec76bef394',
            'a8b5c6f6e13e43c12311d22977c0167546c8a70ba4b60e73630e147e325fdb0a',
        ),
        'G21.Z': (
            'a1f8e0b115eb48df818a967f2d2d051eea9233edc3586b962fb1a32be3352948',
            '842d8b6c19289fa4f56658416ddf289d87ee24b384415940d89234d7f45ff0fb',
            '4806d3d2bb8217818d8ee954c5f2fd570c1082b38ba3678668af0b862772ca50',
        ),
        'G21.homog': (
            'ad187630144fd02ff0cd2704a4d80175f2d4ce3bef8a85c4c7ab6459c8f8438c',
            'aee8e5646f7e6655fa82ad4d97a94767c56a0980ae8766704a8e91d78fa0682d',
            '55cdd8483b10e51c5e86fabe47ebfc63a14b1ac5a79e979581c2703cdfd50edb',
        ),
        'G22.T21': (
            '8c306589850f48f71c8737c24b617b6056a4dc6dcaec18d8bb1140034ac8cd6a',
            '12f684706a5ed7191c38a0960e7bcf5a64fc43dc3e2cf608155ea765027b35c6',
            'f521d27d8c15b7da074e24df32a24b37f2efbdf5a170cb4d80cefea241626c36',
        ),
        'G22.T22': (
            '2a18368ac5c4da199da7986e8c312edd7c12060b555748332b2564ba783c1763',
            '67d4cdec7f4bbdb914a725249f6d8ce332ec98b211d8e2cc9ffc31304ebf4ea4',
            '59bec70631365e5f300bbe1188085d15933ae55aefd5293502dfdea9b04bd49d',
        ),
    },
}


@pytest.mark.parametrize("name", sorted(WITH_GF3))
def test_cocycle_bases_are_byte_stable(name):
    assert cocycle_digest(WITH_GF3[name]) == COCYCLES[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_deep_translate_walks_are_byte_stable(name):
    assert deep_walk_digest(FIELDS[name]) == DEEP_WALKS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_catalogue_module_json_is_byte_stable(name):
    assert golden_hashes(FIELDS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_catalogue_parameter_grid_is_byte_stable(name):
    assert grid_digest(FIELDS[name]) == GRID[name]


@pytest.mark.parametrize("name", sorted(WITH_GF3))
def test_projectives_and_injectives_are_byte_stable(name):
    assert projective_injective_digest(WITH_GF3[name]) == PROJ_INJ[name]


@pytest.mark.parametrize("name", sorted(WITH_GF3))
def test_coxeter_translates_are_byte_stable(name):
    assert coxeter_digest(WITH_GF3[name]) == COXETER[name]


def test_catalogued_data_are_byte_stable():
    assert datum_digest() == DATA


def test_coxeter_data_of_the_catalogued_data_are_byte_stable():
    assert coxeter_data_digest() == COXETER_DATA


if __name__ == "__main__":
    print("DATA = %r" % (datum_digest(),))
    print("COXETER_DATA = %r" % (coxeter_data_digest(),))
    print("GRID = {")
    for name in sorted(FIELDS):
        print("    %r: %r," % (name, grid_digest(FIELDS[name])))
    print("}")
    print("PROJ_INJ = {")
    for name in sorted(WITH_GF3):
        print("    %r: %r," % (name, projective_injective_digest(WITH_GF3[name])))
    print("}")
    print("COXETER = {")
    for name in sorted(WITH_GF3):
        print("    %r: %r," % (name, coxeter_digest(WITH_GF3[name])))
    print("}")
    print("DEEP_WALKS = {")
    for name in sorted(FIELDS):
        print("    %r: %r," % (name, deep_walk_digest(FIELDS[name])))
    print("}")
    print("COCYCLES = {")
    for name in sorted(WITH_GF3):
        print("    %r: %r," % (name, cocycle_digest(WITH_GF3[name])))
    print("}")
    print("GOLDEN = {")
    for name in sorted(FIELDS):
        print("    %r: {" % name)
        for mid, hashes in golden_hashes(FIELDS[name]).items():
            print("        %r: (" % mid)
            for h in hashes:
                print("            %r," % h)
            print("        ),")
        print("    },")
    print("}")
