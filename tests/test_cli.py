"""End-to-end command line tests, run in process."""

from __future__ import annotations

import json
import time

import pytest

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


def test_usage_errors(capsys):
    assert run(capsys, "stable-hom")[0] == 3
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "--help")[0] == 0


def test_output_is_deterministic(capsys, tmp_path):
    alg, _ = make_trunc(capsys, tmp_path, 4, "q")
    _, first, _ = run(capsys, "stable-center", str(alg))
    _, second, _ = run(capsys, "stable-center", str(alg))
    assert first == second
