"""End-to-end command line tests, run in process."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

from frobstab import cli
from frobstab.catalog import MAX_ORDER
from frobstab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def make_trunc(capsys, tmp_path, n, field, module_i=None):
    argv = [
        "catalog", "trunc-poly", "--n", str(n), "--field", field,
        "--out", str(tmp_path),
    ]
    if module_i is not None:
        argv += ["--module-i", str(module_i)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    alg = tmp_path / f"trunc_poly_{n}.json"
    mod = tmp_path / f"V{module_i}.json" if module_i is not None else None
    return alg, mod


def test_check_catalog_algebra(capsys, tmp_path):
    alg, _ = make_trunc(capsys, tmp_path, 3, "gf:2")
    code, report, _ = run_json(capsys, "check", str(alg))
    assert code == 0
    assert report["associative"] is True
    assert report["unit"] is True
    assert report["trace_nondegenerate"] is True
    assert report["dual_basis_identities"] is True
    assert report["element_central"] is True


def test_check_rejects_degenerate_trace(capsys, tmp_path):
    alg, _ = make_trunc(capsys, tmp_path, 3, "q")
    data = json.loads(alg.read_text())
    data["trace"] = ["1", "0", "0"]
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, "check", str(bad))
    assert code == 2
    assert report["trace_nondegenerate"] is False
    assert report["error"] == "DegenerateTrace"


def test_stable_hom_pipeline(capsys, tmp_path):
    alg, mod = make_trunc(capsys, tmp_path, 5, "gf:5", module_i=2)
    code, out, _ = run_json(capsys, "stable-hom", str(alg), str(mod), str(mod))
    assert code == 0
    assert out["hom_dim"] == 3
    assert out["null_dim"] == 1
    assert out["stable_dim"] == 2
    assert "coset_reps" not in out

    code, out, _ = run_json(capsys, "stable-hom", str(alg), str(mod), str(mod), "--basis")
    assert code == 0
    assert len(out["coset_reps"]) == 2
    assert len(out["coset_reps"][0]) == 3
    assert all(isinstance(v, str) for row in out["coset_reps"][0] for v in row)


def test_ext_degree_zero_matches_stable_hom(capsys, tmp_path):
    alg, mod = make_trunc(capsys, tmp_path, 3, "gf:2", module_i=1)
    code, base, _ = run_json(capsys, "stable-hom", str(alg), str(mod), str(mod))
    code2, e0, _ = run_json(capsys, "ext", str(alg), str(mod), str(mod), "--degree", "0")
    assert code == code2 == 0
    assert e0["stable_dim"] == base["stable_dim"]
    code3, e2, _ = run_json(capsys, "ext", str(alg), str(mod), str(mod), "--degree", "2")
    assert code3 == 0
    assert (e2["hom_dim"], e2["null_dim"], e2["stable_dim"]) == (6, 5, 1)


def test_shift_writes_loadable_module(capsys, tmp_path):
    alg, mod = make_trunc(capsys, tmp_path, 3, "q", module_i=1)
    out_file = tmp_path / "shifted.json"
    code, info, _ = run_json(
        capsys, "shift", str(alg), str(mod), "--steps", "1", "--out", str(out_file)
    )
    assert code == 0
    assert info["dim"] == 4
    code2, res, _ = run_json(capsys, "stable-hom", str(alg), str(out_file), str(out_file))
    assert code2 == 0
    base = run_json(capsys, "stable-hom", str(alg), str(mod), str(mod))[1]
    assert res["stable_dim"] == base["stable_dim"]

    down_file = tmp_path / "down.json"
    code3, info3, _ = run_json(
        capsys, "shift", str(alg), str(mod), "--steps", "-1", "--out", str(down_file)
    )
    assert code3 == 0
    assert info3["dim"] == 4


def test_stable_center_with_enveloping_cross_check(capsys, tmp_path):
    alg, _ = make_trunc(capsys, tmp_path, 3, "gf:2")
    code, out, _ = run_json(capsys, "stable-center", str(alg), "--via-enveloping")
    assert code == 0
    # char 2 does not divide 3, so the ideal is the line through x^2
    assert out["center_dim"] == 3
    assert out["ideal_dim"] == 1
    assert out["stable_center_dim"] == 2
    assert out["via_enveloping"] == 2
    assert out["agree"] is True
    # x * x lands in the ideal, so that product has no table entry
    assert out["mult_table"] == [
        [0, 0, 0, "1"],
        [0, 1, 1, "1"],
        [1, 0, 1, "1"],
    ]


def test_group_catalog_and_tate(capsys, tmp_path):
    code, _, _ = run(
        capsys, "catalog", "group", "--type", "cyclic:2", "--field", "gf:2",
        "--out", str(tmp_path), "--module", "trivial",
    )
    assert code == 0
    triv = tmp_path / "trivial.json"
    code2, out, _ = run_json(
        capsys, "tate0", "--group", "cyclic:2", "--field", "gf:2",
        str(triv), str(triv),
    )
    assert code2 == 0
    assert out["invariants_dim"] == 1
    assert out["norm_image_dim"] == 0
    assert out["tate_dim"] == 1
    assert out["stable_dim"] == 1
    assert out["agree"] is True


def test_group_regular_module_is_stably_trivial(capsys, tmp_path):
    code, _, _ = run(
        capsys, "catalog", "group", "--type", "klein4", "--field", "gf:2",
        "--out", str(tmp_path), "--module", "regular",
    )
    assert code == 0
    alg = tmp_path / "klein4.json"
    reg = tmp_path / "regular.json"
    code2, out, _ = run_json(capsys, "stable-hom", str(alg), str(reg), str(reg))
    assert code2 == 0
    assert out["stable_dim"] == 0
    assert out["hom_dim"] == 4


def test_compare_enveloping_command(capsys, tmp_path):
    alg, mod = make_trunc(capsys, tmp_path, 2, "gf:2", module_i=0)
    code, out, _ = run_json(capsys, "compare-enveloping", str(alg), str(mod), str(mod))
    assert code == 0
    assert out["direct"] == out["via_enveloping"] == 1
    assert out["agree"] is True
    # Hom_k(R, R) for the regular module R of k[x]/(x^12) is a 144-dim module
    # over A (x) A^op whose action needs 144 * 144^2 entries, over the bound.
    big_alg, reg = make_trunc(capsys, tmp_path, 12, "gf:2", module_i=11)
    code2, out2, _ = run_json(capsys, "compare-enveloping", str(big_alg), str(reg), str(reg))
    assert code2 == 2
    assert (out2["error"], out2["witness"]) == ("BudgetExceeded", 144)
    code3, _, _ = run(capsys, "compare-enveloping", str(alg), str(mod), str(mod), "--budget", "1")
    assert code3 == 3


def test_selftest_subset(capsys):
    code, out, err = run(capsys, "selftest", "--criteria", "1,2")
    assert code == 0
    report = json.loads(out)
    assert [r["id"] for r in report["criteria"]] == [1, 2]
    assert all(r["passed"] for r in report["criteria"])
    assert report["all_passed"] is True
    assert "PASS" in err


def test_exit_code_for_bad_json(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 3


@pytest.mark.parametrize("hostile", ["module_entry", "trace_entry", "not_utf8", "json_integer"])
def test_hostile_files_exit_3(capsys, tmp_path, hostile):
    # Each makes `json` or `int` raise a ValueError, which must reach the user as a ParseError.
    alg, mod = make_trunc(capsys, tmp_path, 3, "gf:2", module_i=1)
    long = "7" * 5000
    bad = tmp_path / "bad.json"
    if hostile == "module_entry":
        data = json.loads(mod.read_text())
        data["action"][1][0][1] = long
        bad.write_text(json.dumps(data))
        argv = ("stable-hom", str(alg), str(bad), str(bad))
    elif hostile == "trace_entry":
        data = json.loads(alg.read_text())
        data["trace"][0] = long
        bad.write_text(json.dumps(data))
        argv = ("check", str(bad))
    else:
        bad.write_bytes(b"\xff\xfe{}" if hostile == "not_utf8" else b'{"dim": %s}' % long.encode())
        argv = ("check", str(bad))
    code, report, err = run_json(capsys, *argv)
    assert code == 3 and report["error"] == "ParseError" and err == ""
    if hostile.endswith("entry"):
        assert report["witness"] == 5000
    else:
        assert "is not valid JSON" in report["message"]


def test_exit_code_for_unknown_key(capsys, tmp_path):
    alg, _ = make_trunc(capsys, tmp_path, 2, "q")
    data = json.loads(alg.read_text())
    data["comment"] = "hello"
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(data))
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 3


def test_exit_code_for_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "check", str(tmp_path / "nope.json"))
    assert code == 3


def test_exit_code_for_module_algebra_mismatch(capsys, tmp_path):
    alg2, mod2 = make_trunc(capsys, tmp_path, 2, "gf:2", module_i=0)
    alg3, _ = make_trunc(capsys, tmp_path, 3, "gf:2")
    code, _, _ = run(capsys, "stable-hom", str(alg3), str(mod2), str(mod2))
    assert code == 2


def test_exit_code_for_composite_characteristic(capsys, tmp_path):
    code, _, _ = run(
        capsys, "catalog", "trunc-poly", "--n", "2", "--field", "gf:4",
        "--out", str(tmp_path),
    )
    assert code == 2


def test_exit_code_for_modulus_above_primality_bound(capsys, tmp_path):
    code, report, _ = run_json(
        capsys, "catalog", "trunc-poly", "--n", "2",
        "--field", "gf:3317044064679887385961981", "--out", str(tmp_path),
    )
    assert code == 3
    assert report["error"] == "ParseError"


@pytest.mark.parametrize("kind", [
    ("trunc-poly", "--n", "1000000000"),
    ("group", "--type", "cyclic:1000000000"),
])
def test_oversized_catalog_order_fails_fast(capsys, tmp_path, kind):
    start = time.perf_counter()
    code, report, _ = run_json(
        capsys, "catalog", *kind, "--field", "gf:2", "--out", str(tmp_path),
    )
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert (report["error"], report["witness"]) == ("ParseError", 10**9)
    assert not list(tmp_path.iterdir())


def test_oversized_shift_fails_fast(capsys, tmp_path):
    """Each shift step triples V1 over k[x]/(x^4); the free module of the
    sixth step (dim 1944) is refused before it is allocated."""
    alg, mod = make_trunc(capsys, tmp_path, 4, "gf:2", module_i=1)
    out = tmp_path / "shifted.json"
    for argv in (
        ("ext", str(alg), str(mod), str(mod), "--degree", "9"),
        ("shift", str(alg), str(mod), "--steps", "-9", "--out", str(out)),
    ):
        start = time.perf_counter()
        code, report, _ = run_json(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert (report["error"], report["witness"]) == ("BudgetExceeded", 1944)
    assert not out.exists()


def test_oversized_algebra_table_fails_fast(capsys, tmp_path):
    """An algebra file names dim unit entries but its table has dim^2 cells:
    a dim whose cells are over MAX_FREE_ENTRIES (1415 is the least) exits 2,
    witnessed by dim, before the table is allocated."""
    for dim in (1415, 30000):
        path = tmp_path / f"dim{dim}.json"
        path.write_text(json.dumps({**_K2, "dim": dim, "unit": ["0"] * dim, "mult": []}))
        start = time.perf_counter()
        code, report, _ = run_json(capsys, "check", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert (report["error"], report["witness"]) == ("BudgetExceeded", dim)


def test_step_counts_are_capped_before_loading(capsys, tmp_path):
    """Over k[x]/(x^2) the shifts of V0 stay of dim 1, so the free-module
    budget never stops a huge Ext degree or shift count, and 10^8 cheap
    steps would run for hours.  A |degree| or |steps| above MAX_ORDER exits
    3 before any file is read (the last case names no file that exists),
    and MAX_ORDER itself runs."""
    alg, mod = make_trunc(capsys, tmp_path, 2, "gf:2", module_i=0)
    out = tmp_path / "shifted.json"
    missing = str(tmp_path / "missing.json")
    for argv, value in (
        (("ext", str(alg), str(mod), str(mod), "--degree", "-100000000"), 10 ** 8),
        (("shift", str(alg), str(mod), "--steps", "1000000000", "--out", str(out)), 10 ** 9),
        (("ext", missing, missing, missing, "--degree", str(MAX_ORDER + 1)), MAX_ORDER + 1),
    ):
        start = time.perf_counter()
        code, report, _ = run_json(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert (report["error"], report["witness"]) == ("ParseError", value)
    assert not out.exists()
    code, report, _ = run_json(capsys, "ext", str(alg), str(mod), str(mod),
                               "--degree", str(-MAX_ORDER))
    assert (code, report["stable_dim"]) == (0, 1)


def test_catalog_arguments_are_checked_before_writing(capsys, tmp_path):
    """A catalog order below 1 and a module index outside [0, n) exit 3,
    with a ParseError witnessed by the value, before any file is written;
    the bounds themselves run."""
    for k, (argv, value) in enumerate((
        (("trunc-poly", "--n", "0", "--field", "q"), 0),
        (("trunc-poly", "--n", "-3", "--field", "gf:2"), -3),
        (("trunc-poly", "--n", "4", "--field", "gf:3", "--module-i", "9"), 9),
        (("trunc-poly", "--n", "4", "--field", "q", "--module-i", "4"), 4),
        (("trunc-poly", "--n", "4", "--field", "q", "--module-i", "-1"), -1),
        (("group", "--type", "cyclic:0", "--field", "q"), 0),
        (("group", "--type", "cyclic:-2", "--field", "gf:3", "--module", "trivial"), -2),
    )):
        out = tmp_path / f"out{k}"
        out.mkdir()
        code, report, _ = run_json(capsys, "catalog", *argv, "--out", str(out))
        assert code == 3
        assert (report["error"], report["witness"]) == ("ParseError", value)
        assert list(out.iterdir()) == []
    for n, i in ((1, 0), (4, 3)):
        assert make_trunc(capsys, tmp_path, n, "q", module_i=i)[1].exists()
    code, report, _ = run_json(capsys, "catalog", "group", "--type", "cyclic:1", "--field", "q",
                               "--out", str(tmp_path))
    assert (code, report["written"]) == (0, [str(tmp_path / "cyclic_1.json")])


def test_unwritable_output_exits_3(capsys, tmp_path):
    """`shift --out` to a directory or into a missing directory, and a
    catalog file whose name is taken by a directory, exit 3 with a
    ParseError witnessed by the path, not with a traceback."""
    alg, mod = make_trunc(capsys, tmp_path, 3, "gf:2", module_i=1)
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        code, report, _ = run_json(capsys, "shift", str(alg), str(mod), "--steps", "1",
                                   "--out", str(out))
        assert code == 3
        assert (report["error"], report["witness"]) == ("ParseError", str(out))
    taken = tmp_path / "cat"
    (taken / "trunc_poly_2.json").mkdir(parents=True)
    code, report, _ = run_json(capsys, "catalog", "trunc-poly", "--n", "2", "--field", "q",
                               "--out", str(taken))
    assert code == 3
    assert (report["error"], report["witness"]) == ("ParseError", str(taken / "trunc_poly_2.json"))


def test_unwritable_shift_output_is_refused_before_the_shift(capsys, tmp_path, monkeypatch):
    """An `--out` that is a directory, or whose parent is missing or a file,
    exits 3 with a ParseError witnessed by the path once the inputs have
    loaded, without computing the shift in either direction."""
    alg, mod = make_trunc(capsys, tmp_path, 3, "gf:2", module_i=1)

    def not_called(*args):
        raise AssertionError("shift computed before its output was checked")

    monkeypatch.setattr(cli, "shift_plus", not_called)
    monkeypatch.setattr(cli, "shift_minus", not_called)
    (tmp_path / "file").write_text("")
    for out in (tmp_path, tmp_path / "missing" / "x.json", tmp_path / "file" / "x.json"):
        for steps in ("2", "-2"):
            code, report, _ = run_json(capsys, "shift", str(alg), str(mod), "--steps", steps,
                                       "--out", str(out))
            assert code == 3
            assert (report["error"], report["witness"]) == ("ParseError", str(out))


def test_usage_errors(capsys):
    assert run(capsys, "stable-hom")[0] == 3
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "--help")[0] == 0


def test_output_is_deterministic(capsys, tmp_path):
    alg, _ = make_trunc(capsys, tmp_path, 4, "q")
    _, first, _ = run(capsys, "stable-center", str(alg))
    _, second, _ = run(capsys, "stable-center", str(alg))
    assert first == second


# Malformed inputs for the sweep below: algebras with a degenerate trace, a
# unit that is not one, a table that is not associative, a good one with no
# trace, and a klein4 "module" whose three non-identity elements act by one
# Jordan block (the product (1, 2) fails).
_K2 = {"format": "frobstab-algebra/1", "name": "k2", "field": {"kind": "prime", "p": 2},
       "dim": 2, "unit": ["1", "0"],
       "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}
_BAD_INPUTS = {
    "degenerate.json": {**_K2, "trace": ["1", "0"]},
    "no_unit.json": {**_K2, "unit": ["0", "1"], "trace": ["0", "1"]},
    "nonassociative.json": {**_K2, "dim": 3, "unit": ["1", "0", "0"], "mult": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [1, 0, 1, "1"], [2, 0, 2, "1"],
        [1, 1, 2, "1"], [1, 2, 1, "1"]]},
    "no_trace.json": _K2,
    "nonmodule.json": {"format": "frobstab-module/1", "name": "J", "algebra": "klein4", "dim": 2,
                       "action": [[["1", "0"], ["0", "1"]]] + [[["1", "1"], ["0", "1"]]] * 3},
}

# A fixed sweep of commands, run in order in a scratch directory with
# relative paths, each with the sha256 of its outcome (`_digest`).  The
# digests pin every output byte for byte; a change that alters an output on
# purpose updates its digest and says so.
_PINNED_SWEEP = [
    ("catalog trunc-poly --n 5 --field gf:3 --module-i 1 --out t5",
     "dd76a87124172c4c00bd63e489b711a673ae612cdda63019a8853294deedd0c8"),
    ("catalog trunc-poly --n 5 --field gf:3 --module-i 2 --out t5",
     "a0a6e6e1bc6983d1ef99e154bea8d23efb7e9b14da379b3988401856e9de3690"),
    ("catalog trunc-poly --n 4 --field q --module-i 1 --out t4",
     "e622e661f9c7927ca65199c116c45857c2028a32237d06a1b2625ff7cbe2530e"),
    ("catalog trunc-poly --n 4 --field q --module-i 2 --out t4",
     "aad00da1d9b0df85d97b2be5bdef54028ea4d322a7c5e80b98fe433ab187c762"),
    ("catalog group --type s3 --field q --module trivial --out s3",
     "1d900d743eb51b7c03acdc81a2ffc52dbb95d81d46068bb1e9815d6de41f9192"),
    ("catalog group --type s3 --field q --module regular --out s3",
     "a4b24810fb8eeab167c298b3f2a2788cbfbbe147d0b409e240b871d75e818736"),
    ("catalog group --type klein4 --field gf:2 --module trivial --out k4",
     "93e0d55151e0112db3ab8c0b95ce5292b8ceb9c3d4c121fd938358e630a5a260"),
    ("catalog group --type klein4 --field gf:2 --module regular --out k4",
     "97ff60ec515c19ebf41e8612ccdeacef888e6c1f37b96969a5d9e0c986b0614d"),
    ("check t5/trunc_poly_5.json",
     "f624b7b68120376e8fe1f8c7cfdd31827f5d4c0d561441e5cfa81629b9c4eff8"),
    ("check t4/trunc_poly_4.json",
     "0a415b5f77551ac550bb28f57189d3799e1dde967603de653fb981eefbe0e8c0"),
    ("check s3/s3.json",
     "358706a25309dc8b0d1971359eee111f3d0d9fe349281ff18448c941aee55fcc"),
    ("check k4/klein4.json",
     "f4d197a567dbe68be23e02a795925e2daf3af0f86da3049bb6ac19998a1a9356"),
    ("check degenerate.json",
     "9e1526f81a12659eceab2022fd47c1197fded2235b002e22fd38ba0d567d7646"),
    ("check no_unit.json",
     "1454941d400725156ea9cc8ab5b9124ecb8a205380b00223a4277a40336e88ce"),
    ("check nonassociative.json",
     "346daa96b4c3359118be9fb3ba61a319edb7500ac7460ce0b8584463d91ce918"),
    ("check no_trace.json",
     "88c17019ae54cedd8045279b7d076c1cdb1c745e29a19c0eb57b4ba02e42b618"),
    ("stable-hom t5/trunc_poly_5.json t5/V1.json t5/V2.json",
     "d54bf1f9a42251be71d999e9f78a7e26101694fa78413701893b55d3d2602881"),
    ("stable-hom t5/trunc_poly_5.json t5/V1.json t5/V2.json --basis",
     "f9fa89004db7c5213e9b8ba53ecc5ccb05353c108e5fc8dd965745f326e17740"),
    ("stable-hom t4/trunc_poly_4.json t4/V1.json t4/V2.json --basis",
     "8c809b0fffc42b9e42925e23a82bb0e02b03c5c07f2f50c99a775b50c8f5c840"),
    ("stable-hom t4/trunc_poly_4.json t4/V2.json t4/V2.json --basis",
     "6bd5571a3d45e6cfdca35a8845441beb9c10b5d060f1410c7340bc1cf9c3df70"),
    ("stable-hom s3/s3.json s3/trivial.json s3/regular.json --basis",
     "8c47cf15f723e0db2cfb966b45720f86fc9798d6a752fcbcc4230093fd8c027f"),
    ("stable-hom k4/klein4.json k4/trivial.json k4/trivial.json --basis",
     "5d75778187cc9414a345a83a949f022b0bac8f2cdabff6251883e69f1c4456c7"),
    ("stable-hom k4/klein4.json k4/regular.json k4/trivial.json --basis",
     "8c47cf15f723e0db2cfb966b45720f86fc9798d6a752fcbcc4230093fd8c027f"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V2.json --degree -3",
     "2e2f0e4fe1f9c0889bc3887b3be62b415a055213b1bd17d8c28238a29f658ef7"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V2.json --degree -2",
     "e57ef51567034576ceb79e0ef72dffe932bff27846ceb972470564d874fa9765"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V2.json --degree -1",
     "e76437edc7c8419db636453432e2286dab99d1bc23e4b097501e8e226e5aeba9"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V2.json --degree 1",
     "a818b9fcc48b4f5f66697945e942db5f0f39ddaaa08cac2ec1f2e9937051cf9f"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V2.json --degree 2",
     "beb181ec45fc10759a891d5d978aed70474388ef3ec59ff8678bca2de13ed0a7"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V2.json --degree 3",
     "eae25db58cbd53dcf6c843d5ad1a58784bd4175a1006f59f85ed80335c84fe0f"),
    ("ext t4/trunc_poly_4.json t4/V2.json t4/V1.json --degree -3",
     "566911b505d23cfc29d927545e29cb9feeeb89600c7e32529eb54a38c8893f8f"),
    ("ext t4/trunc_poly_4.json t4/V2.json t4/V1.json --degree -2",
     "03214346d08a55e01fbb294d687aa28b2ce278f607438b97e9a3f13d7512d17e"),
    ("ext t4/trunc_poly_4.json t4/V2.json t4/V1.json --degree -1",
     "69345626cb3f9a3d2676f0ee97ad3d930401614387a9678ca454fab5cfd51e3c"),
    ("ext t4/trunc_poly_4.json t4/V2.json t4/V1.json --degree 1",
     "a4236223be51fb7cbd9b56309c4210e88fd6ab13e01ecece8b15f96ccaa310c0"),
    ("ext t4/trunc_poly_4.json t4/V2.json t4/V1.json --degree 2",
     "8ffa14ef862fc71872ad3fca82a3dc1f82562932030774d923df88ab163fbefb"),
    ("ext t4/trunc_poly_4.json t4/V2.json t4/V1.json --degree 3",
     "f3003f357f0f5812f78a8df2fa69529dc96abaabcdb746ba7456defc1843a761"),
    ("ext s3/s3.json s3/trivial.json s3/regular.json --degree -1",
     "da9d8be1dd927f2a8d550aa501cc8d9ef685bd90907229d4b4c66c8959a84f55"),
    ("ext s3/s3.json s3/trivial.json s3/regular.json --degree 2",
     "100f9fcfae8d8c2a9acc2f11dda6d9cfdc871b4a168ef88ef9770e3135e00ee4"),
    ("ext k4/klein4.json k4/trivial.json k4/trivial.json --degree -3",
     "e8fc882dc48169e002092b64daea20abb5b6fe153f20e2a1c9c317f20a374023"),
    ("ext k4/klein4.json k4/trivial.json k4/trivial.json --degree -2",
     "aaf491f5de16258bc3647dafd90b88b8e6882449d463a54fc161ec878fff3596"),
    ("ext k4/klein4.json k4/trivial.json k4/trivial.json --degree -1",
     "491a2718fa09abdd8d3204c2209a850dc2fe61ff6e0679e7ae4c494cfe6bf742"),
    ("ext k4/klein4.json k4/trivial.json k4/trivial.json --degree 1",
     "639873e5d66380cb16b17126dd80db4befce90fd6877d6031464e1a77af5e677"),
    ("ext k4/klein4.json k4/trivial.json k4/trivial.json --degree 2",
     "fec1e02aaaa1a93c1aef123369b71822e8d1b26b0ca4ff33c8be7f79b57eae0a"),
    ("ext k4/klein4.json k4/trivial.json k4/trivial.json --degree 3",
     "ad83eee853715dc50570d948b094684e0f87558f6fc60797ea9a357dc0e61307"),
    ("shift t5/trunc_poly_5.json t5/V1.json --steps -2 --out t5/m2.json",
     "2bb98d288c5fd1562226ed7da7e134e1de6b995a8d121e6ad8ea1e10b177be00"),
    ("shift t5/trunc_poly_5.json t5/V1.json --steps -1 --out t5/m1.json",
     "d8a94f776b98d8e510b466ef072a47d2cd02b45dc38b101f128cb96b5f9be991"),
    ("shift t5/trunc_poly_5.json t5/V1.json --steps 0 --out t5/z0.json",
     "7bf1e85fba814a63b616539679591f16e090a5549e13256097244741754172e6"),
    ("shift t5/trunc_poly_5.json t5/V1.json --steps 1 --out t5/p1.json",
     "7370c65100ac614cbe681fb37c322f54f47bb65bedf0211314be91c633634605"),
    ("shift t5/trunc_poly_5.json t5/V1.json --steps 2 --out t5/p2.json",
     "ddea421369ccb5dca4670e29e209f99e24b695b3cf4cb2419fa818793b5546b0"),
    ("shift t4/trunc_poly_4.json t4/V1.json --steps -2 --out t4/m2.json",
     "476cd2cfb8f757b3b2b54c57720c769df7599da296c152e67c4c0b385989f728"),
    ("shift t4/trunc_poly_4.json t4/V1.json --steps -1 --out t4/m1.json",
     "9cc509d657d9ba7df3749f65ff928d23c3c13b43df315ecfeddf708e33c36379"),
    ("shift t4/trunc_poly_4.json t4/V1.json --steps 1 --out t4/p1.json",
     "9db670812769354370d169ab248e40f37cfe6405721ed3a08dc57414206fb196"),
    ("shift t4/trunc_poly_4.json t4/V1.json --steps 2 --out t4/p2.json",
     "8eb7669866b61a00ab1e793d0efd2c74e8b5de3e382f526329ef0586c64080b4"),
    ("shift s3/s3.json s3/regular.json --steps 1 --out s3/p1.json",
     "fae5c79939bea7d007caf6d89089de93587c20840b75a1d47cd2841e884c97aa"),
    ("shift k4/klein4.json k4/trivial.json --steps -2 --out k4/m2.json",
     "f4ee81905618dea16720990c06965303f78fb8a012c16314023240e9fae7a3b1"),
    ("shift k4/klein4.json k4/trivial.json --steps 2 --out k4/p2.json",
     "f0ef7d971db17c610c70a143d628db94d4c1408776400097ef34c57da67ea5fb"),
    ("stable-hom t5/trunc_poly_5.json t5/m2.json t5/p2.json --basis",
     "1b3724870c8520f87d0536b011d7abdc2b1a1f298549d076ac2b99b980e73103"),
    ("stable-hom t4/trunc_poly_4.json t4/p2.json t4/m1.json --basis",
     "0375985bfaa342d3126ac16dd75fb3f3557cfb80fe882831962d793028484eb7"),
    ("stable-hom k4/klein4.json k4/m2.json k4/p2.json",
     "712a9ecf2a263b31cb6fc131250efe9c215e2d0ae7b039898d4b9a743583dd0a"),
    ("stable-center t5/trunc_poly_5.json",
     "2a67d9f58f797bb99b623b660bf3a3eff0c7de66834030e8e663ebdac281f283"),
    ("stable-center t5/trunc_poly_5.json --via-enveloping",
     "cc4e08694526ac6d4aff91abdb64dc4e5438a024680f0eb2c0e1c3a4376b9891"),
    ("stable-center t4/trunc_poly_4.json --via-enveloping",
     "3176d0ee4f5d90b1a394984ec1935fcbb95e950cf6214306afb15d93fb07f5a9"),
    ("stable-center s3/s3.json",
     "3f0e4a9fdc5b7c5af1066d9adaa806f342c5fad447641dc231a2da486496089c"),
    ("stable-center s3/s3.json --via-enveloping",
     "73c5aa06b2cebda862a295f41a8172a6bad2844e50d66a4a6989a14027a876a6"),
    ("stable-center k4/klein4.json --via-enveloping",
     "d4543ceeff617f7de9a894b6a8f123c93c8e8ec48f63140a252bfa6d6b32139a"),
    ("tate0 --group s3 --field q s3/trivial.json s3/regular.json",
     "11852931f8bce05815279d3d2beb4eb5696613e57584cffd558c8210d81e4255"),
    ("tate0 --group klein4 --field gf:2 k4/trivial.json k4/regular.json",
     "11852931f8bce05815279d3d2beb4eb5696613e57584cffd558c8210d81e4255"),
    ("tate0 --group klein4 --field gf:2 k4/trivial.json k4/trivial.json",
     "2fe7183316855d7c4a49a5bdf2c4954764517df14d3e269823504dffd5ffc197"),
    ("compare-enveloping t5/trunc_poly_5.json t5/V1.json t5/V2.json",
     "1775c675fd06b5412c27eb79d22e1691b7535ef0efdb13cfa6ec8a8dc2720a1b"),
    ("compare-enveloping t4/trunc_poly_4.json t4/V1.json t4/V1.json",
     "1775c675fd06b5412c27eb79d22e1691b7535ef0efdb13cfa6ec8a8dc2720a1b"),
    ("compare-enveloping k4/klein4.json k4/trivial.json k4/regular.json",
     "2a7506bb9d96b2c2e894f3d9eaf217553afc25edd1312b1149efec38e3ae1951"),
    ("stable-hom k4/klein4.json nonmodule.json k4/trivial.json",
     "34ef97a0a62ea2e8041dc1d955898b48402a9c86bdf1be3f96bca3bc24f84641"),
    ("shift k4/klein4.json nonmodule.json --steps -1 --out k4/bad.json",
     "34ef97a0a62ea2e8041dc1d955898b48402a9c86bdf1be3f96bca3bc24f84641"),
    ("check missing.json",
     "ccc32c56cbda24493d693feeddfb9e9e7f714e3080788fc2dc605ddba3fae90d"),
    ("stable-hom t5/trunc_poly_5.json t4/V1.json t4/V1.json",
     "c71867b50819d29c1402b062e0bcc98830580b14cea9f3833e9e662787e335bf"),
    ("stable-hom no_trace.json no_trace.json no_trace.json",
     "73e62dc488a6cadc39268586de0bac4f11c5839c044ad34534aea0c505e3d089"),
    ("ext nonassociative.json t5/V1.json t5/V1.json --degree 1",
     "179340d1d2f9dc02400fe8e192a3fa6190abc0f2e628ab4d51f0c43743c9fea9"),
    ("tate0 --group klein4 --field gf:2 t5/V1.json t5/V1.json",
     "595b7b21a05270d437bbd8aefe688f1379a6cf416765ec2e0a2445b346564273"),
    ("catalog trunc-poly --n 0 --field q --out bad",
     "f96641e980b47eafebc00118fab0642773001ed64832c7a05f26e3a2222318e3"),
    ("catalog group --type s3 --field gf:4 --out bad",
     "6d577a07269629e4d3e7d93204f24a6ca70490ed76289340983c5cfcc5d2f247"),
    ("ext t5/trunc_poly_5.json t5/V1.json t5/V1.json --degree 100000",
     "b9a7db54715025ee5d42ed5f2cfc03616636ae22d4ffe457103a6c1f15fa5674"),
    ("selftest --criteria 2,8",
     "669f9fdea42af3f66c200b102c8c4a5e560fa059e20be0a691b868d89192e2e9"),
]


def _digest(code: int, out: str) -> str:
    """sha256 of the exit code, the stdout and each file that stdout names
    as written, in order."""
    h = hashlib.sha256(f"{code}\n{out}".encode())
    written = json.loads(out).get("written", []) if code == 0 else []
    for path in [written] if isinstance(written, str) else written:
        h.update(f"\n{path}\n".encode() + Path(path).read_bytes())
    return h.hexdigest()


def test_outputs_match_the_pinned_sweep(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, obj in _BAD_INPUTS.items():
        Path(name).write_text(json.dumps(obj), encoding="utf-8")
    changed = []
    for line, pinned in _PINNED_SWEEP:
        code, out, _ = run(capsys, *line.split())
        if _digest(code, out) != pinned:
            changed.append((line, code, out[:200]))
    assert changed == []
