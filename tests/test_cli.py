"""Command-line driver: exit codes, stdout payloads, JSON artifacts."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CHECK_SHA256
from support import unstable_multiplication
import tauforge
from tauforge import cli, reflect
from tauforge.cartan import datum_to_json
from tauforge.catalogue import build_named, named_datum
from tauforge.cli import main
from tauforge.linalg import Field
from tauforge.modio import rep_from_json, rep_to_json
from tauforge.modrep import direct_sum, free_simple, rank_vector
from tauforge.pathalg import build_projective
from tauforge.zoo import all_check_ids, select_check_ids


_SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(tauforge.__file__).resolve().parents[1]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_delta_by_name(capsys):
    code, out, err = run(capsys, "delta", "--datum", "B3")
    assert code == 0
    assert out == "1,1,1,1\n"
    assert err.startswith("#")


def test_delta_from_file(capsys, tmp_path):
    code, out, _ = run(capsys, "zoo", "--build", "Bn.Z", "--n", "3",
                       "--json", str(tmp_path / "z.json"))
    assert code == 0
    blob = json.loads((tmp_path / "z.json").read_text())
    datum_file = tmp_path / "b3.json"
    datum_file.write_text(json.dumps(blob["datum"]))
    code, out, _ = run(capsys, "delta", "--datum", str(datum_file))
    assert code == 0
    assert out == "1,1,1,1\n"


def test_roots_negative_height_is_usage_error(capsys):
    code, _, err = run(capsys, "roots", "--datum", "B3", "--height", "-3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("height, lines", [(0, 0), (1, 4)])
def test_roots_line_count_follows_the_height(capsys, height, lines):
    code, out, _ = run(capsys, "roots", "--datum", "B3", "--height", str(height))
    assert code == 0
    assert len(out.splitlines()) == lines


def test_roots_classify_lines(capsys):
    code, out, _ = run(capsys, "roots", "--datum", "A11", "--height", "4",
                       "--classify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all("height=" in ln and "kind=" in ln for ln in lines)
    assert any("2,1" in ln and "kind=regular" in ln for ln in lines)


_ROOTS_AT3 = """0,0,1 height=1 kind=preprojective r=0 vertex=3
0,1,0 height=1 kind=regular period=2
1,0,0 height=1 kind=preinjective r=0 vertex=1
0,1,1 height=2 kind=preprojective r=0 vertex=2
1,0,1 height=2 kind=regular period=2
1,1,0 height=2 kind=preinjective r=0 vertex=2
1,1,1 height=3 kind=regular period=1
"""


def test_roots_classify_stdout(capsys):
    code, out, _ = run(capsys, "roots", "--datum", "At3", "--height", "3", "--classify")
    assert code == 0
    assert out == _ROOTS_AT3


def test_coxeter_payload(capsys):
    code, out, _ = run(capsys, "coxeter", "--datum", "B3")
    assert code == 0
    assert "sequence=4,3,2,1" in out
    assert "N=3" in out
    assert "nu=2,0,0,-2" in out
    assert "beta[4]=1,1,1,2" in out
    assert "gamma[1]=2,1,1,1" in out


def test_coxeter_apply_vector(capsys):
    code, out, _ = run(capsys, "coxeter", "--datum", "G21",
                       "--apply", "1", "--vector", "1,2,1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1,2,1"   # delta is fixed


def test_coxeter_apply_of_a_large_power_is_fast(capsys):
    # c^N(1, 0) = (1 + 2N, N) on A11, where c = id + delta.nu^T
    for power in (10**9, -10**9):
        start = time.perf_counter()
        code, out, _ = run(capsys, "coxeter", "--datum", "A11",
                           "--apply", str(power), "--vector", "1,0")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out.strip().splitlines()[-1] == "%d,%d" % (1 + 2 * power, power)


def test_unknown_datum_name(capsys):
    code, _, err = run(capsys, "delta", "--datum", "Q9")
    assert code == 2
    assert "error:" in err


def test_mod_tau_round_trip(capsys, tmp_path):
    mod_file = tmp_path / "z.json"
    code, _, _ = run(capsys, "zoo", "--build", "G21.Z", "--json", str(mod_file))
    assert code == 0
    out_file = tmp_path / "tz.json"
    code, out, _ = run(capsys, "mod", "tau", str(mod_file),
                       "--json", str(out_file))
    assert code == 0
    translated = rep_from_json(json.loads(out_file.read_text()))
    assert rank_vector(translated) == (1, 2, 1)


def test_mod_tau_orbit_reports_period(capsys, tmp_path):
    mod_file = tmp_path / "z.json"
    run(capsys, "zoo", "--build", "G21.Z", "--json", str(mod_file))
    code, out, _ = run(capsys, "mod", "tau", str(mod_file), "--orbit", "4")
    assert code == 0
    assert "period=2" in out


_ORBIT_BN_Z = "rank=1,1,1,1\n" + "".join("tau^%d rank=1,1,1,1\n" % k for k in range(-6, 7)) + "period=3\n"
_ORBIT_B3_P1 = """rank=1,1,1,2
tau^-6 rank=5,5,5,6
tau^-5 rank=3,4,4,4
tau^-4 rank=3,3,4,4
tau^-3 rank=3,3,3,4
tau^-2 rank=1,2,2,2
tau^-1 rank=1,1,2,2
tau^0 rank=1,1,1,2
period=none
"""


def test_mod_tau_orbit_stdout(capsys, tmp_path):
    z_file, p_file = tmp_path / "z.json", tmp_path / "p1.json"
    run(capsys, "zoo", "--build", "Bn.Z", "--n", "3", "--json", str(z_file))
    P1 = build_projective(named_datum("Bn", n=3), Field.rational(), 1)
    p_file.write_text(json.dumps(rep_to_json(P1, embed_datum=True)))
    for path, want in ((z_file, _ORBIT_BN_Z), (p_file, _ORBIT_B3_P1)):
        code, out, _ = run(capsys, "mod", "tau", str(path), "--orbit", "6")
        assert code == 0
        assert out == want


_ORBIT_G21_ZZ = "rank=2,4,2\n" + "".join("tau^%d rank=2,4,2\n" % k for k in range(-6, 7)) + "period=2\n"


def test_mod_tau_orbit_of_a_square_finds_its_period(capsys, tmp_path):
    # no basis map of End(Z + Z) = M_2(k) is invertible and End is not local,
    # so the "yes" at tau^2 comes from the seeded search; the witness is the
    # one it has always been
    _, Z = build_named("G21.Z")
    mod_file, witness = tmp_path / "zz.json", tmp_path / "w.json"
    mod_file.write_text(json.dumps(rep_to_json(direct_sum([Z, Z]), embed_datum=True)))
    code, out, _ = run(capsys, "mod", "tau", str(mod_file), "--orbit", "6", "--json", str(witness))
    assert code == 0
    assert out == _ORBIT_G21_ZZ
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
        "cf1ad1d01854e305a86bcc942b6927eb353665cb0216fed26c77803ef067fbf1")


_ORBIT_G21_Z = "rank=1,2,1\n" + "".join("tau^%d rank=1,2,1\n" % k for k in range(-5, 6)) + "period=2\n"
_ORBIT_B3_E2 = """rank=0,1,0,0
tau^-4 rank=2,1,1,2
tau^-3 rank=0,1,0,0
tau^-2 rank=0,0,1,0
tau^-1 rank=2,1,1,2
tau^0 rank=0,1,0,0
tau^1 rank=0,0,1,0
tau^2 rank=2,1,1,2
tau^3 rank=0,1,0,0
tau^4 rank=0,0,1,0
period=3
"""


@pytest.mark.parametrize("module, window, want, witness_sha256", [
    (lambda: build_named("Bn.Z", n=3)[1], 6, _ORBIT_BN_Z,
     "f2ca0c72e4548911ef95e47dd1ab96859043c08951eba6522d13de5becab400d"),
    (lambda: build_named("G21.Z")[1], 5, _ORBIT_G21_Z,
     "c77aefd161c21d1eaf0899c6b4d8e89a314b5e8f8f92d90442c7ca4ab3f30061"),
    (lambda: free_simple(named_datum("Bn", n=3), Field.rational(), 2), 4, _ORBIT_B3_E2,
     "a6f1add38ede603536f11c424513eacd0ed85eea2793cc238473155dad8f44c7"),
], ids=["Bn.Z", "G21.Z", "B3.E2"])
def test_mod_tau_orbit_stdout_and_witness_past_the_period(capsys, tmp_path, module, window, want,
                                                         witness_sha256):
    # the window is past the period, and for G21.Z and E2 not a multiple of it;
    # the witness is tau^period M as the walk computed it
    mod_file, witness = tmp_path / "m.json", tmp_path / "w.json"
    mod_file.write_text(json.dumps(rep_to_json(module(), embed_datum=True)))
    code, out, _ = run(capsys, "mod", "tau", str(mod_file), "--orbit", str(window),
                       "--json", str(witness))
    assert code == 0
    assert out == want
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == witness_sha256


def test_mod_classify_stdout(capsys, tmp_path):
    mod_file = tmp_path / "mb.json"
    run(capsys, "zoo", "--build", "Bn.MB", "--n", "3", "--json", str(mod_file))
    code, out, _ = run(capsys, "mod", "tau", str(mod_file), "--classify")
    assert code == 0
    assert out == "rank=2,1,1,2\nclassification=regular period=3\ntranslate-rank=0,1,0,0\n"


def test_mod_classify_not_root_exit(capsys, tmp_path):
    mod_file = tmp_path / "y.json"
    run(capsys, "zoo", "--build", "G21.Y", "--json", str(mod_file))
    code, out, err = run(capsys, "mod", "tau", str(mod_file), "--classify")
    assert code == 1
    assert "not_root" in out + err


def test_mod_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "mod", "tau", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_mod_corrupt_module_is_math_failure(capsys, tmp_path):
    mod_file = tmp_path / "z.json"
    run(capsys, "zoo", "--build", "G21.Z", "--json", str(mod_file))
    blob = json.loads(mod_file.read_text())
    size = blob["dims"]["3"]
    blob["maps"]["eps[3]"] = [[1 if r == c else 0 for c in range(size)]
                              for r in range(size)]   # not nilpotent
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code, _, err = run(capsys, "mod", "tau", str(bad))
    assert code == 1
    assert "fail:" in err


@pytest.mark.parametrize("vertex, direction", [
    ("1", "+"),
    # B3 has no vertex 0, 9 or -1
    ("0", "+"), ("0", "-"), ("9", "+"), ("9", "-"), ("-1", "+"), ("-1", "-"),
])
def test_reflect_non_sink_is_usage_error(capsys, tmp_path, vertex, direction):
    mod_file = tmp_path / "z.json"
    run(capsys, "zoo", "--build", "Bn.Z", "--n", "3", "--json", str(mod_file))
    code, out, err = run(capsys, "reflect", str(mod_file),
                         "--vertex", vertex, "--dir", direction)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("#")] == \
        ["error: vertex %s is not a %s" % (vertex, "sink" if direction == "+" else "source")]


def test_reflect_round_trip(capsys, tmp_path):
    mod_file = tmp_path / "z.json"
    run(capsys, "zoo", "--build", "Bn.Z", "--n", "3", "--json", str(mod_file))
    once = tmp_path / "r.json"
    code, out, _ = run(capsys, "reflect", str(mod_file),
                       "--vertex", "4", "--dir", "+", "--json", str(once))
    assert code == 0
    back = tmp_path / "rr.json"
    code, out, _ = run(capsys, "reflect", str(once),
                       "--vertex", "4", "--dir", "-", "--json", str(back))
    assert code == 0
    restored = rep_from_json(json.loads(back.read_text()))
    _, Z = build_named("Bn.Z", n=3)
    assert rank_vector(restored) == rank_vector(Z)


def _usage_error_lines(*argv):
    """Exit code and the stderr lines other than the header of one CLI run
    in a subprocess, which must print nothing on stdout and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", *argv],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    return proc.returncode, [line for line in proc.stderr.splitlines() if not line.startswith("#")]


def _report_digests(path):
    """check id -> sha256 of each report in a ``verify --json`` file, taken
    as ``CHECK_SHA256`` takes it."""
    return {r["checkId"]: hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
            for r in json.loads(path.read_text())}


@pytest.mark.parametrize("field, check_filter", [("p:3", "main2"), ("p:2", "main2.G21")])
def test_small_prime_main2_reports_instead_of_dying(capsys, tmp_path, field, check_filter):
    # End Y of the main2 counterexamples is local in every characteristic,
    # so the reports over GF(2) and GF(3) are the pinned QQ ones
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--suite", "paper", "--filter", check_filter,
                         "--field", field, "--json", str(report))
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [
        [check_id, "pass"] for check_id in select_check_ids(check_filter)]
    assert [line for line in err.splitlines() if not line.startswith("#")] == []
    assert _report_digests(report) == {c: CHECK_SHA256[c] for c in select_check_ids(check_filter)}


def test_verify_over_gf3_is_byte_identical_to_qq(tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", "verify", "--suite", "paper",
                           "--field", "p:3", "--json", str(report)],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=300)
    assert proc.returncode == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "dc590af490eda8a0cd732bb5900bef52256959e2dbf0ecb39dadddc807b9d250")


def test_verify_over_gf2_prints_every_report(tmp_path):
    # lam = 2 of the prop:homog deformation family is 0 in GF(2): the check
    # records the refused module as one problem and the run goes on; every
    # other check passes with its pinned QQ report
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", "verify", "--suite", "paper",
                           "--field", "p:2", "--json", str(report)],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=300)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        [check_id, "fail" if check_id == "prop:homog" else "pass"] for check_id in all_check_ids()]
    homog = next(r for r in json.loads(report.read_text()) if r["checkId"] == "prop:homog")
    assert homog["evidence"]["problems"] == [
        "Bn.MlamB lam=2: the deformation parameter lam must be nonzero"]
    digests = _report_digests(report)
    del digests["prop:homog"]
    assert digests == {c: CHECK_SHA256[c] for c in all_check_ids() if c != "prop:homog"}


@pytest.mark.parametrize("vertex, direction", [("4", "+"), ("1", "-")])
def test_reflect_killing_a_summand_is_math_failure(tmp_path, vertex, direction):
    # F+ at a sink k (F- at a source k) kills the summand E_k, so the rank
    # transport by s_k fails on Bn.Z + E_k
    datum, Z = build_named("Bn.Z", n=3)
    mod_file = tmp_path / "ze.json"
    summand = free_simple(datum, Field.rational(), int(vertex))
    mod_file.write_text(json.dumps(rep_to_json(direct_sum([Z, summand]), embed_datum=True)))
    code, lines = _usage_error_lines("reflect", str(mod_file), "--vertex", vertex, "--dir", direction)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("fail: rank transport failed at ")


def test_reflect_onto_a_kernel_the_loop_leaves_is_math_failure(capsys, tmp_path, monkeypatch):
    _, Z = build_named("CDn.Z", n=3)
    mod_file = tmp_path / "z.json"
    mod_file.write_text(json.dumps(rep_to_json(Z, embed_datum=True)))
    monkeypatch.setattr(reflect, "_multiplication", unstable_multiplication)
    code, out, err = run(capsys, "reflect", str(mod_file), "--vertex", "4", "--dir", "+")
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("#")] == \
        ["fail: kernel not stable under the loop at the sink"]


def test_oversized_datum_name_is_usage_error(capsys, monkeypatch):
    from tauforge import catalogue

    def built(*args, **kwargs):
        raise AssertionError("a refused datum was built")

    # without the n <= _MAX_N guard the Cartan matrix alone is 20001**2 entries
    monkeypatch.setattr(catalogue, "_cartan", built)
    monkeypatch.setattr(catalogue, "validate_datum", built)
    code, out, err = run(capsys, "delta", "--datum", "B20000")
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("#")] == \
        ["error: family Bn takes n <= %d, got 20000" % catalogue._MAX_N]


@pytest.mark.parametrize("argv", [["delta", "--datum", "a\x00b"], ["zoo", "--list", "--json", "a\x00b"],
                                  ["mod", "tau", "a\x00b"]], ids=["datum", "json", "module"])
def test_a_path_with_a_nul_byte_is_usage_error(capsys, argv):
    # open() refuses such a path with ValueError, not OSError; no shell can
    # pass one, but an in-process caller can
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = [line for line in err.splitlines() if not line.startswith("#")]
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("verb", [["delta", "--datum"], ["mod", "tau"]], ids=["datum", "module"])
def test_a_file_that_is_not_utf8_is_usage_error(capsys, tmp_path, verb):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *verb, str(path))
    assert code == 2
    assert out == ""
    lines = [line for line in err.splitlines() if not line.startswith("#")]
    assert len(lines) == 1 and lines[0].startswith("error: cannot read ")


def test_module_file_with_a_truncated_arrow_is_usage_error(tmp_path):
    _, Z = build_named("Bn.Z", n=3)
    blob = rep_to_json(Z, embed_datum=True)
    assert blob["maps"]["a[2<-1]#1"] == [[0], [1]]
    blob["maps"]["a[2<-1]#1"] = [[0]]
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(blob))
    code, lines = _usage_error_lines("mod", "tau", str(cut))
    assert code == 2
    assert len(lines) == 1 and "malformed module file" in lines[0]


@pytest.mark.parametrize("window", ["0", "-2", "100000000000000000000"])
def test_mod_tau_orbit_window_is_refused_before_any_output(tmp_path, window):
    # a window above sys.maxsize is one that no orbit walk can take
    _, Z = build_named("Bn.Z", n=3)
    path = tmp_path / "z.json"
    path.write_text(json.dumps(rep_to_json(Z, embed_datum=True)))
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", "mod", "tau", str(path), "--orbit", window],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: --orbit window must be positive\n" if int(window) < 1
                           else "error: --orbit window must be at most %d\n" % sys.maxsize)


@pytest.mark.parametrize("verb", ["zoo", "mod", "reflect", "verify"])
def test_json_to_a_path_that_cannot_be_written_is_a_usage_error(tmp_path, verb):
    _, Z = build_named("Bn.Z", n=3)
    path = tmp_path / "z.json"
    path.write_text(json.dumps(rep_to_json(Z, embed_datum=True)))
    target = str(tmp_path / "missing" / "out.json")
    argv = {"zoo": ["zoo", "--build", "G21.Z"],
            "mod": ["mod", "tau", str(path)],
            "reflect": ["reflect", str(path), "--vertex", "4", "--dir", "+"],
            "verify": ["verify", "--suite", "paper", "--filter", "lem0"]}[verb]
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", *argv, "--json", target],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("#")]
    assert len(lines) == 1 and lines[0].startswith("error: cannot write %s: " % target)


@pytest.mark.parametrize("argv", [("zoo", "--build", "nope"), ("mod", "tau", "missing.json"),
                                  ("verify", "--suite", "paper", "--filter", "nope")])
def test_a_run_that_fails_leaves_the_json_path_as_it_was(capsys, tmp_path, argv):
    # the path is checked before any work, without writing to it
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    new = tmp_path / "new.json"
    for path in (kept, new):
        code, out, _ = run(capsys, *argv, "--json", str(path))
        assert (code, out) == (2, "")
    assert kept.read_text() == "kept\n"
    assert not new.exists()


def test_main_builds_its_parser_once(capsys):
    # one process, several verbs, usage errors from argparse and from a verb
    # in between: each call answers as a process of its own would
    runs = [("delta", "--datum", "B3"), ("mod", "nope", "x.json"), ("coxeter", "--datum", "G21"),
            ("roots", "--datum", "B3", "--height", "-1"), ("roots", "--datum", "B3", "--height", "1")]
    cli._build_parser.cache_clear()
    in_process = [run(capsys, *argv) for argv in runs]
    assert cli._build_parser.cache_info().misses == 1
    for argv, (code, out, err) in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "tauforge.cli", *argv],
                              capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)


def test_module_file_holding_a_string_is_usage_error(tmp_path):
    doc = tmp_path / "str.json"
    doc.write_text(json.dumps("nope.json"))
    code, lines = _usage_error_lines("reflect", str(doc), "--vertex", "1", "--dir", "+")
    assert code == 2
    assert len(lines) == 1 and "malformed module file" in lines[0]


@pytest.mark.parametrize("change", [
    {"maps": {"a[2<-1]#1": [[0], [1.5]]}},   # a float, not read as 3/2
    {"maps": {"a[2<-1]#1": [[0], ["1/0"]]}},
    {"field": "rational"},
    {"field": {"kind": "prime", "p": 7.9}},   # not read as GF(7)
    {"dims": [1, 2]},
    {"dims": {"1": 1.5}},                      # not read as 1
    {"maps": []},
    {"maps": {"eps[9]": "garbage"}},           # B3 has no vertex 9
    {"dims": {"9": 2}},
    {"maps": {"a[2<-1]": [[0], [0]]}},         # the same map as a[2<-1]#1
    {"maps": {"eps[1]": [[0]], "eps[01]": [[0]]}},
    {"dims": {"01": 1}},                       # the same vertex as "1"
    {"dims": {"4": -2}, "maps": {"a[4<-3]#1": None}},
    {"maps": {"eps[2]": ["00", "10"]}},       # not read digit by digit as [[0, 0], [1, 0]]
    {"maps": {"eps[1]": "0"}},                 # not read as the 1 x 1 zero map
    {"maps": {"eps[9]": [[0]]}},
    {"maps": {"eps[2]": None, "eps[2]\n": [[0, 0], [1, 0]]}},
    # each of these was read as vertex 2: only the ASCII digits that
    # rep_to_json writes name a vertex
    {"dims": {"2": None, " 2 ": 2}},
    {"dims": {"2": None, "+2": 2}},
    {"dims": {"2": None, "\u0662": 2}},       # an Arabic-Indic 2
    {"maps": {"eps[2]": None, "eps[\u0662]": [[0, 0], [1, 0]]}},
    {"maps": {"a[2<-1]#1": None, "a[\uff12<-1]#1": [[0], [1]]}},   # a fullwidth 2
], ids=["float-entry", "zero-denominator", "field-string", "float-p", "dims-list",
        "float-dim", "maps-list", "loop-at-no-vertex", "dim-at-no-vertex", "arrow-twice",
        "loop-twice", "dim-twice", "negative-dim", "string-rows", "string-map",
        "listed-loop-at-no-vertex", "key-with-newline", "dim-key-with-spaces", "dim-key-with-sign",
        "dim-key-arabic-digit", "loop-key-arabic-digit", "arrow-key-fullwidth-digit"])
def test_module_file_with_a_bad_part_is_usage_error(tmp_path, change):
    # a None value drops the key
    _, Z = build_named("Bn.Z", n=3)
    blob = rep_to_json(Z, embed_datum=True)
    for key, value in change.items():
        if isinstance(value, dict):
            value = {k: v for k, v in {**blob[key], **value}.items() if v is not None}
        blob[key] = value
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(blob))
    code, lines = _usage_error_lines("mod", "tau", str(doc))
    assert code == 2
    assert len(lines) == 1 and "malformed module file" in lines[0]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "paper", "--filter", "lem0", "--field", "p:\uff13"),   # a fullwidth 3
    ("delta", "--datum", "B\u0663"),            # an Arabic-Indic 3
    ("delta", "--datum", "CD4m\u0662"),
], ids=["field-fullwidth-digit", "datum-arabic-digit", "datum-arabic-multiplier"])
def test_digits_that_are_not_ascii_are_usage_errors(argv):
    # each ran as GF(3), B3 or CD4m2 with exit 0
    code, lines = _usage_error_lines(*argv)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_module_file_naming_a_datum_with_digits_that_are_not_ascii_is_usage_error(tmp_path):
    # the name B3 with an Arabic-Indic 3 was read as B3
    _, Z = build_named("Bn.Z", n=3)
    blob = rep_to_json(Z)
    assert blob["datum"] == "B3"
    blob["datum"] = "B\u0663"
    doc = tmp_path / "named.json"
    doc.write_text(json.dumps(blob))
    code, lines = _usage_error_lines("mod", "tau", str(doc))
    assert code == 2
    assert lines == ["error: module file names datum 'B\u0663', which is not in the catalogue; "
                     "embed the datum object instead"]


@pytest.mark.parametrize("change", [
    {"cartan": [[2, -2.5], [-2, 2]]},   # not read as -2
    {"cartan": [[2.0, -2], [-2, 2]]},
    {"symmetriser": [1.9, 1]},          # not read as 1
    {"symmetriser": ["1", True]},
    {"orientation": [[2, True]]},       # not read as the pair (2, 1)
], ids=["float-cartan", "float-diagonal", "float-symmetriser", "string-bool-symmetriser",
        "bool-orientation"])
@pytest.mark.parametrize("kind", ["datum", "module"])
def test_datum_with_a_non_integer_entry_is_usage_error(tmp_path, change, kind):
    # each change loaded as the datum A12 before entries had to be JSON integers
    _, M = build_named("A12.homog")
    blob = rep_to_json(M, embed_datum=True)
    blob["datum"].update(change)
    doc = tmp_path / "bad.json"
    if kind == "datum":
        doc.write_text(json.dumps(blob["datum"]))
        code, lines = _usage_error_lines("delta", "--datum", str(doc))
    else:
        doc.write_text(json.dumps(blob))
        code, lines = _usage_error_lines("mod", "tau", str(doc))
    assert code == 2
    assert len(lines) == 1 and "malformed %s file" % kind in lines[0]
    assert "entries must be integers" in lines[0]


@functools.lru_cache(maxsize=None)
def _fuzz_seeds():
    """Module files of the catalogue, with the datum by name and embedded, as
    JSON text, so that each example mutates a fresh copy."""
    docs = []
    for module_id, params in (("Bn.Z", {"n": 2}), ("G21.Z", {}), ("A12.homog", {}), ("CDn.M3", {"n": 3})):
        _, M = build_named(module_id, **params)
        docs += [rep_to_json(M), rep_to_json(M, embed_datum=True)]
    return json.dumps(docs)


def _json_nodes(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# an explicit alphabet spares the first run building Hypothesis's unicode tables
_TEXT = st.text(alphabet="aBCm039[]<-#/.\u00e9\x00 ", max_size=6)
_NOT_A_NUMBER = st.one_of(_TEXT, st.floats(), st.booleans(), st.none())
_BAD_KEYS = st.one_of(st.sampled_from(["dim", "Maps", "0", "-1", "99", "eps[0]", "eps[99999999999999999999]",
                                       "a[1<-2]", "a[2<-1]#0", "a[2<-1]#2", "a[2<-1]#01"]),
                      _TEXT)


def _mutate(data, doc):
    """One mutation of a module document: drop, truncate or add a row of a
    matrix; rename a key; put a string, float or huge int in an entry (a
    dimension takes only 0..6 as an integer); or name an unknown datum."""
    nodes = list(_json_nodes(doc))
    matrices = [path for path, node in nodes if node and isinstance(node, list) and isinstance(node[0], list)]
    kind = data.draw(st.sampled_from(["key", "entry", "datum"] + ["row"] * bool(matrices)))
    if kind == "row":
        rows = _at(doc, data.draw(st.sampled_from(matrices)))
        k = data.draw(st.integers(0, len(rows) - 1))
        how = data.draw(st.sampled_from(["drop", "truncate", "add"]))
        if how == "drop":
            del rows[k]
        elif how == "truncate":
            rows[k] = rows[k][:-1]
        else:
            rows.append(list(rows[k]))
    elif kind == "key":
        path = data.draw(st.sampled_from([path for path, node in nodes if isinstance(node, dict) and node]))
        obj = _at(doc, path)
        obj[data.draw(_BAD_KEYS)] = obj.pop(data.draw(st.sampled_from(sorted(obj))))
    elif kind == "entry":
        path = data.draw(st.sampled_from([path for path, node in nodes if path and not isinstance(node, (dict, list))]))
        if path[0] == "maps":
            value = data.draw(st.one_of(_NOT_A_NUMBER, st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64)))
        elif path[0] == "dims":
            value = data.draw(st.one_of(_NOT_A_NUMBER, st.integers(0, 6)))
        else:
            value = data.draw(_NOT_A_NUMBER)
        _at(doc, path[:-1])[path[-1]] = value
    else:
        doc["datum"] = data.draw(st.one_of(st.sampled_from(["Q9", "B0", "B3m0", "At2", "A113", "B20000", ""]), _TEXT))


@settings(derandomize=True, deadline=None, max_examples=150, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_module_files_never_raise(tmp_path_factory, data):
    docs = json.loads(_fuzz_seeds())
    doc = docs[data.draw(st.integers(0, len(docs) - 1))]
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["mod", "tau", str(path)])
    assert code in (0, 1, 2)
    if code:
        lines = [line for line in err.getvalue().splitlines() if not line.startswith("#")]
        assert len(lines) == 1 and lines[0].startswith(("error: ", "fail: ")), lines


def _datum_docs():
    """Datum files of the catalogue, and one that names its datum."""
    return [datum_to_json(named_datum(family, n=n)) for family, n in (("A11", None), ("Bn", 3), ("G21", None),
                                                                      ("Atilde", 4), ("CDn", 4))] + ["B3"]


_BAD_DATUM_KEYS = st.one_of(st.sampled_from(["Cartan", "symmetrizer", "orient", "name", ""]), _TEXT)
_ANY_NODE = st.sampled_from([[], {}, [[]], "B3", "Q9", "B20000", 0, None, 2 ** 70]).map(copy.deepcopy)


def _mutate_datum(data, doc):
    """One mutation of a datum document, which it returns: drop, truncate or
    add a row of the Cartan matrix or the orientation; rename a key; put a
    string, float, small or huge int in an entry; or replace a whole node."""
    nodes = list(_json_nodes(doc))
    rows = [path for path, node in nodes
            if node and isinstance(node, list) and all(isinstance(row, list) for row in node)]
    leaves = [path for path, node in nodes if path and not isinstance(node, (dict, list))]
    dicts = [path for path, node in nodes if isinstance(node, dict) and node]
    kind = data.draw(st.sampled_from(["node"] + ["row"] * bool(rows) + ["entry"] * bool(leaves)
                                     + ["key"] * bool(dicts)))
    if kind == "row":
        matrix = _at(doc, data.draw(st.sampled_from(rows)))
        k = data.draw(st.integers(0, len(matrix) - 1))
        how = data.draw(st.sampled_from(["drop", "truncate", "add"]))
        if how == "drop":
            del matrix[k]
        elif how == "truncate":
            matrix[k] = matrix[k][:-1]
        else:
            matrix.append(list(matrix[k]))
    elif kind == "entry":
        path = data.draw(st.sampled_from(leaves))
        value = data.draw(st.one_of(_NOT_A_NUMBER, st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200)))
        _at(doc, path[:-1])[path[-1]] = value
    elif kind == "key":
        obj = _at(doc, data.draw(st.sampled_from(dicts)))
        obj[data.draw(_BAD_DATUM_KEYS)] = obj.pop(data.draw(st.sampled_from(sorted(obj))))
    else:
        path = data.draw(st.sampled_from([path for path, _ in nodes]))
        if not path:
            return data.draw(_ANY_NODE)
        _at(doc, path[:-1])[path[-1]] = data.draw(_ANY_NODE)
    return doc


@settings(derandomize=True, deadline=None, max_examples=150, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_datum_files_never_raise(tmp_path_factory, data):
    docs = _datum_docs()
    doc = docs[data.draw(st.integers(0, len(docs) - 1))]
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate_datum(data, doc)
    path = tmp_path_factory.getbasetemp() / "fuzzed-datum.json"
    path.write_text(json.dumps(doc))
    for verb in ("check-cartan", "delta"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, "--datum", str(path)])
        assert code in (0, 1, 2)
        lines = [line for line in err.getvalue().splitlines() if not line.startswith("#")]
        assert len(lines) == (code != 0)
        assert code == 0 or lines[0].startswith(("fail: ", "error: ")[code - 1])


@functools.lru_cache(maxsize=None)
def _argv_files(base):
    """A module file, a datum file and a missing file under ``base``."""
    base = Path(base)
    _, M = build_named("Bn.Z", n=2)
    (base / "module.json").write_text(json.dumps(rep_to_json(M, embed_datum=True)))
    (base / "datum.json").write_text(json.dumps(datum_to_json(named_datum("G21"))))
    return str(base / "module.json"), str(base / "datum.json"), str(base / "missing.json")


_HUGE = st.sampled_from([2 ** 64, -2 ** 64, 10 ** 30])
_BAD_FIELDS = st.sampled_from(["p:", "p:0", "p:1", "p:4", "p:-3", "q:5", "p:" + "9" * 30, "", "RATIONAL"])
_FIELDS = st.sampled_from(["rational", "p:2", "p:3", "p:32003", "p:18446744073709551557"])   # 2**64 - 59


def _argv_items(data, files):
    """One call of one verb: the verb and a list of (flag, or None for a
    positional; a strategy for a good value, or None for a switch; one for a
    bad value, or None).  Every value drawn keeps the work small: --n <= 6,
    --height <= 6, --orbit <= 4, --m <= 3, and verify always has a --filter
    that selects a few cheap checks or none; a huge --n or --orbit is
    refused before any work."""
    module, datum, missing = files
    datums = (st.sampled_from(["A11", "B3", "G21", "At4", "CD4m2", "F41", datum]),
              st.sampled_from(["Q9", "B0", "B20000", "B3m0", "At2", "", missing, module]))
    json_out = ("--json", st.sampled_from(["-", "out.json"]),
                st.sampled_from(["", str(Path(missing).parent / "nowhere" / "out.json")]))
    field = ("--field", _FIELDS, _BAD_FIELDS)
    verb = data.draw(st.sampled_from(["check-cartan", "delta", "roots", "coxeter", "mod", "reflect", "zoo",
                                      "verify"]))

    def maybe(*items):
        return list(items) if data.draw(st.booleans()) else []

    if verb in ("check-cartan", "delta"):
        return verb, [("--datum", *datums)]
    if verb == "roots":
        return verb, [("--datum", *datums), ("--height", st.integers(0, 6), st.integers(-2 ** 64, -1))] + maybe(
            ("--classify", None, None))
    if verb == "coxeter":
        vectors = st.lists(st.integers(-3, 3), min_size=2, max_size=5).map(lambda v: ",".join(map(str, v)))
        return verb, [("--datum", *datums)] + maybe(
            ("--apply", st.one_of(st.integers(-3, 3), _HUGE), None),
            ("--vector", vectors, st.sampled_from(["", "1,,0", "a,b", "9" * 30 + ",1", "1;0"])))
    if verb == "mod":
        items = [(None, st.just("tau"), st.sampled_from(["", "taux"])),
                 (None, st.just(module), st.sampled_from([datum, missing]))]
        return verb, items + maybe(("--inverse", None, None)) + maybe(("--classify", None, None)) + maybe(
            ("--orbit", st.integers(1, 4), st.one_of(st.integers(-2, 0), _HUGE))) + maybe(json_out)
    if verb == "reflect":   # the module is Bn.Z of B2, whose vertices are 1, 2 and 3
        return verb, [(None, st.just(module), st.sampled_from([datum, missing])),
                      ("--vertex", st.integers(1, 3), st.one_of(st.integers(-1, 0), st.just(4), _HUGE)),
                      ("--dir", st.sampled_from("+-"), st.sampled_from(["", "x", "+-"]))] + maybe(json_out)
    if verb == "verify":
        filters = st.sampled_from(["typeG", "typeB", "typeA", "lem0", "main2.G21", "prop:homog", "typeF"])
        return verb, [("--suite", st.just("paper"), st.sampled_from(["", "x"])),
                      ("--filter", filters, st.just("nope")),
                      ("--n", st.integers(3, 6), st.one_of(st.integers(-2, 2), _HUGE))] + maybe(field, json_out)
    how = data.draw(st.sampled_from(["list", "build", "spotcheck"]))
    if how == "list":
        return verb, [("--list", None, None)]
    n = ("--n", st.integers(3, 6), st.one_of(st.integers(-2, 2), _HUGE))
    if how == "spotcheck":
        types = ("--spotcheck", st.sampled_from(["G21", "Bn", "A11", "F41"]),
                 st.sampled_from(["Atilde", "nope", ""]))
        return verb, [types, ("--height", st.integers(1, 6), st.integers(-2, 0))] + maybe(n) + maybe(field)
    module_id = data.draw(st.sampled_from(["Bn.Z", "G21.T21", "Bn.MlamB", "Atilde.interval", "A11.homog",
                                           "CDn.Y"]))
    items = [("--build", st.just(module_id), st.sampled_from(["nope", ""]))]
    if module_id.split(".")[0] in ("Bn", "Atilde", "CDn"):
        items.append(n)
    if module_id == "Bn.MlamB":
        items.append(("--lam", st.sampled_from(["1", "2", "1/2", "-3/7", "9" * 30]),
                      st.sampled_from(["0", "1/0", "x", ""])))
    if module_id == "Atilde.interval":
        items += [("--i", st.integers(1, 3), st.one_of(st.integers(-1, 0), _HUGE)),
                  ("--j", st.integers(1, 3), st.one_of(st.integers(-1, 0), _HUGE))]
    return verb, items + maybe(("--m", st.integers(1, 3), st.integers(-2, 0))) + maybe(field) + maybe(json_out)


@settings(derandomize=True, deadline=None, max_examples=200, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_argv_never_raises(tmp_path_factory, monkeypatch, data):
    # relative --json paths land in the temporary directory
    base = tmp_path_factory.getbasetemp()
    monkeypatch.chdir(base)
    verb, items = _argv_items(data, _argv_files(str(base)))
    # a valid call, one with one bad value, or one with bad values and then
    # mutations that never lift a bound: an unknown flag put anywhere after
    # the verb, a token dropped (a flag without its value, or a stray value,
    # is refused), or a token replaced by a value that no check id contains
    mode = data.draw(st.sampled_from(["valid", "one bad value", "mutated"]))
    bad = set()
    if mode == "one bad value":
        bad = {data.draw(st.integers(0, len(items) - 1))}
    elif mode == "mutated":
        bad = {k for k in range(len(items)) if data.draw(st.booleans())}
    argv = [verb]
    for k, (flag, good, hostile) in enumerate(items):
        value = data.draw(hostile if k in bad and hostile is not None else good) if good is not None else None
        argv += [token for token in (flag, value) if token is not None]
    argv = [str(token) for token in argv]
    for _ in range(data.draw(st.integers(1, 2)) if mode == "mutated" else 0):
        kind = data.draw(st.sampled_from(["unknown", "drop", "replace"]))
        if kind == "unknown":
            argv.insert(data.draw(st.integers(1, len(argv))),
                        data.draw(st.sampled_from(["--nope", "-x", "--", "---", "--nope=1", "-"])))
        elif len(argv) > 1 and kind == "drop":
            del argv[data.draw(st.integers(1, len(argv) - 1))]
        elif len(argv) > 1:
            argv[data.draw(st.integers(1, len(argv) - 1))] = data.draw(
                st.sampled_from(["x", "-1", "0", "1.5", "1e3", "0x10", "p:4", "é", " ", "-", "a\x00b"]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error: " in err.getvalue().splitlines()[-1]


def test_cli_import_loads_no_sympy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tauforge.cli; print(sorted(m for m in sys.modules if m.startswith('sympy')))"],
        capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_zoo_list_contains_catalogue(capsys):
    code, out, _ = run(capsys, "zoo", "--list")
    assert code == 0
    assert "G21.Z" in out and "Bn.MlamB" in out


def test_zoo_build_unknown_id(capsys):
    code, _, err = run(capsys, "zoo", "--build", "Bn.nope", "--n", "3")
    assert code == 2
    assert "error:" in err


def test_zoo_spotcheck(capsys):
    code, out, _ = run(capsys, "zoo", "--spotcheck", "G21", "--height", "6")
    assert code == 0
    assert "thmA.G21" in out and "pass" in out


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper",
                       "--filter", "typeG1")
    assert code == 0
    assert "typeG1" in out and "pass" in out


@pytest.mark.parametrize("check_id", ["typeB", "typeC"])
def test_verify_filter_equal_to_a_check_id_runs_only_it(capsys, tmp_path, check_id):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--filter", check_id,
                       "--json", str(report))
    assert code == 0
    assert [entry["checkId"] for entry in json.loads(report.read_text())] == [check_id]
    assert out.split() == [check_id, "pass"]


def test_verify_unmatched_filter(capsys):
    code, _, err = run(capsys, "verify", "--suite", "paper",
                       "--filter", "nosuch")
    assert code == 2
    assert "error:" in err


def test_verify_json_artifact_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _, _ = run(capsys, "verify", "--suite", "paper",
                     "--filter", "lem0", "--n", "3", "--json", str(a))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--suite", "paper",
                     "--filter", "lem0", "--n", "3", "--json", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload[0]["checkId"] == "lem0"
    assert payload[0]["status"] == "pass"


def test_bad_field_spec(capsys):
    code, _, err = run(capsys, "verify", "--suite", "paper",
                       "--filter", "typeG1", "--field", "gf4")
    assert code == 2
    assert "error:" in err


def test_composite_field_is_usage_error(capsys):
    code, out, err = run(capsys, "zoo", "--build", "G21.T21", "--field", "p:4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_module_file_with_composite_modulus_is_usage_error(capsys, tmp_path):
    mod_file = tmp_path / "t.json"
    code, _, _ = run(capsys, "zoo", "--build", "G21.T21", "--field", "p:5",
                     "--json", str(mod_file))
    assert code == 0
    blob = json.loads(mod_file.read_text())
    assert blob["field"] == {"kind": "prime", "p": 5}
    blob["field"]["p"] = 4
    mod_file.write_text(json.dumps(blob))
    code, out, err = run(capsys, "mod", "tau", str(mod_file))
    assert code == 2
    assert out == ""
    assert "malformed module file" in err


@pytest.mark.parametrize("field", ["rational", "p:32003"])
@pytest.mark.parametrize("lam", ["2", "3/4"])
def test_zoo_build_with_lam(capsys, field, lam):
    code, out, _ = run(capsys, "zoo", "--build", "Bn.MlamB", "--n", "3",
                       "--lam", lam, "--field", field)
    assert code == 0
    assert out.startswith("rank=")


@pytest.mark.parametrize("lam, field", [("1/5", "p:5"), ("1/0", "rational"), ("x", "rational")])
def test_zoo_build_bad_lam_is_usage_error(capsys, lam, field):
    code, _, err = run(capsys, "zoo", "--build", "Bn.MlamB", "--n", "3",
                       "--lam", lam, "--field", field)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("verb", ["check-cartan", "coxeter", "delta"])
def test_finite_type_datum_is_math_failure(tmp_path, verb):
    datum_file = tmp_path / "a2.json"
    datum_file.write_text(json.dumps(
        {"cartan": [[2, -1], [-1, 2]], "symmetriser": [1, 1], "orientation": [[2, 1]]}))
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", verb, "--datum", str(datum_file)],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("fail:")


@pytest.mark.parametrize("check_id", ["main2.G21", "prop:homog"])
def test_verify_over_prime_field(capsys, check_id):
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--filter", check_id,
                       "--field", "p:32003")
    assert code == 0
    assert out.split() == [check_id, "pass"]


def test_classify_not_locally_free_is_math_failure(tmp_path):
    module_file = tmp_path / "s2.json"
    module_file.write_text(json.dumps(
        {"datum": "B3", "field": {"kind": "rational"}, "dims": {"2": 1}, "maps": {}}))
    proc = subprocess.run([sys.executable, "-m", "tauforge.cli", "mod", "tau", str(module_file),
                           "--classify"],
                          capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if not line.startswith("#")] == \
        [proc.stderr.splitlines()[-1]]
    assert proc.stderr.splitlines()[-1].startswith("fail:")
