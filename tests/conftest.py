"""Pinned check reports of the paper suite.

``CHECK_SHA256`` holds the sha256 of ``json.dumps(report.to_json(),
sort_keys=True)`` for every check id, run over QQ at its suite defaults.  The
tests that already run a check compare its report through the
``unchanged_report`` fixture, and ``test_zoo.py`` runs every check over
GF(32003) against the same digests, so a changed report fails tier-1.  When a change
of output is meant, print the new table with ``PYTHONPATH=src python
tests/conftest.py`` and paste it over ``CHECK_SHA256``.
"""

import hashlib
import json

import pytest

CHECK_SHA256 = {
    "lem0": "58f85cc976b1123a4cc4721a4a3180c9c111b37f01be3e23fb4b278b72355ae0",
    "main2.Bn": "ac306b94910c9db13ca75ce6e1cbd9cc3dabe5d6fd0ad31ed571306c553fafa4",
    "main2.CDn": "0dc9a87436d2864da2c324d8c4b7ba327ff31197789b1a93dbf926e683dfb23a",
    "main2.F41": "c85cd42d1e39b9946ab9f738b848dbdef0770ceba11a8541d070f1190fea2496",
    "main2.G21": "b8a5d32f9099243150ee24118f2b732ed2e225f6bf6400e45932f1c7ae65203e",
    "prop2.1": "bbdd00344d2836012d7aabd34195b87a72951844207341557a47d204c9f9f4b1",
    "prop2.4": "102fe428b18d5273302f8b299938f872080b68c65f1509b66f0815f10d2933db",
    "prop2.6": "3323aa011739f485b25b0b10aeb90842f45f63bf2632f920573489382b5fd927",
    "prop2.7": "2109908291d9ffd0f9dfef2360501684921971f09d4dee408e21f9dfe36ac988",
    "prop:homog": "036fffa0f50af81d8c558ce94798f16c89f70cdd58e54b72cb18920194718287",
    "typeA": "357bcb95d0b632124533c215ef9a4d11d6f485b74c8f4ca0e5f3813dd49377b0",
    "typeB": "fdb588c3f25d5332afcd193c7098fa5b86699591f6b4465d14a72007ec8f423f",
    "typeBC": "7b13d5ae68b1b3a9bee2bdd886358bf54c7fc65d31b140e02b76de68e49e9cc6",
    "typeBD1": "7fffa1608ee3dada02c4691717f5f068b220a10aaba947e74fecf54d839ccaf7",
    "typeBD2": "4ccf4300bfa59121630e72429633bb16e12c455f6a4a45c641d9e306346b4841",
    "typeC": "81ab861a8a5398204b143415a5da4cb763b258f62781b58d9eee698560f38dd9",
    "typeCD1": "fd960a95a0f1ac4d0979969fcbb6c6dc5ce55e9c7cd403986ed67884a165807d",
    "typeCD2": "04ff3715a7e96eb116facd5a12808a8068f0c1c1de3739f2f087f4db44fcbf59",
    "typeF1": "46806a99f9f198a61af575d81bef96f5ce794d6ec6d30f7bff578abbb68f93f8",
    "typeF22": "f92382b9f6eed3b895a81fbe4f3601393b707acd9ae94fd2b2f07b20d85e9715",
    "typeG1": "15bbc57c645473cbc1444277d7aa2546faab09091a7e366d0a901bcb8ccde013",
    "typeG2": "9c5f7d7474ef0ef1bb960b49576d5ce0019bd38ee81f5721f0395157b625b532",
}


def report_sha256(report):
    text = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def unchanged_report():
    """unchanged_report(report) is True when the report equals the pinned one."""
    return lambda report: report_sha256(report) == CHECK_SHA256.get(report.check_id)


if __name__ == "__main__":
    from tauforge.zoo import all_check_ids, verify_proposition

    print("CHECK_SHA256 = {")
    for check_id in all_check_ids():
        print('    "%s": "%s",' % (check_id, report_sha256(verify_proposition(check_id))))
    print("}")
