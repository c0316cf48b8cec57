import json
import math
import os
import subprocess
import sys
import time

import pytest

import hpbundles
from hpbundles import serialize
from hpbundles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stable2_json_constant_term(capsys):
    code, out, _ = run_cli(capsys, "compute", "stable2", "--genus", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "hodge-poincare"
    terms = {(t["p"], t["q"]): t["c"] for t in payload["poly"]}
    assert terms[(0, 0)] == "1"


def test_stable2_text_mode(capsys):
    code, out, _ = run_cli(capsys, "compute", "stable2", "--genus", "2")
    assert code == 0
    assert out.startswith("1 +")


def test_stable2_odd_degree_exits_one(capsys):
    code, _, err = run_cli(capsys, "compute", "stable2", "--genus", "2", "--deg", "3")
    assert code == 1
    assert "degree must be even" in err


def test_stable2_even_degree_accepted(capsys):
    code, _, _ = run_cli(capsys, "compute", "stable2", "--genus", "2", "--deg", "-4")
    assert code == 0


def test_bad_genus_exits_one(capsys):
    code, _, err = run_cli(capsys, "compute", "stable2", "--genus", "1")
    assert code == 1
    assert "genus" in err


@pytest.mark.parametrize("deligne", [[], ["--deligne"]])
def test_stable2_genus_above_cap_exits_one(capsys, deligne):
    genus = str(hpbundles.rank2.MAX_GENUS + 1)
    code, out, err = run_cli(capsys, "compute", "stable2", "--genus", genus, *deligne)
    assert code == 1
    assert out == ""
    assert "cap" in err


def test_unknown_flag_exits_64(capsys):
    code, _, _ = run_cli(capsys, "compute", "stable2", "--genus", "2", "--frob")
    assert code == 64


def test_missing_subcommand_exits_64(capsys):
    code, _, _ = run_cli(capsys, "compute")
    assert code == 64


def test_json_text_mutually_exclusive(capsys):
    code, _, _ = run_cli(capsys, "compute", "stable2", "--genus", "2", "--json", "--text")
    assert code == 64


def test_ss_metadata(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "ss", "--rank", "2", "--deg", "0", "--genus", "2", "--order", "8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["sections_dim"] == 0 + 2 * (1 - 2)
    assert payload["meta"]["order"] == 8
    assert payload["meta"]["types_used"] >= 1
    terms = {(t["p"], t["q"]): t["c"] for t in payload["series"]["terms"]}
    assert terms[(0, 0)] == "1"


def test_ss_order_defaults_to_12(capsys):
    code, out, _ = run_cli(capsys, "compute", "ss", "--rank", "1", "--deg", "0", "--genus", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["order"] == payload["series"]["order"] == 12


def test_enumerate_hn_types_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "hn-types",
        "--rank", "2", "--deg", "0", "--genus", "2", "--max-codim", "10",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["types"][0] == {"quotients": [[1, 1], [1, -1]], "codim": 3}


def test_enumerate_genus_one_flagged(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "hn-types",
        "--rank", "2", "--deg", "0", "--genus", "1", "--max-codim", "4",
        "--json",
    )
    assert code == 0
    assert "warnings" in json.loads(out)


def test_enumerate_reductive_classes(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "reductive-classes", "--rank", "2", "--deg", "0", "--genus", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["classes"][0]["pairs"] == [[2, 1]]
    assert payload["classes"][0]["codim"] == 6


@pytest.mark.parametrize("genus", ["0", "-1"])
def test_reductive_classes_genus_below_one_exits_one(capsys, genus):
    code, out, err = run_cli(capsys, "enumerate", "reductive-classes", "--rank", "2", "--deg", "0",
                             "--genus", genus)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "genus must be at least 1" in err


def test_beta_index_set(capsys, tmp_path):
    system = {
        "dim": 1,
        "weights": [{"v": [2], "mult": 2}, {"v": [0], "mult": 2}, {"v": [-2], "mult": 2}],
        "roots": [[2], [-2]],
        "chamber": [[1]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system), encoding="utf-8")
    code, out, _ = run_cli(capsys, "beta", "index-set", "--system", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["indices"][0]["beta"] == [2]
    assert payload["indices"][0]["codim"] == 3


def test_beta_index_set_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "beta", "index-set", "--system", str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read" in err


def test_beta_index_set_non_utf8_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_bytes(b"\xff\xfe{")
    _assert_domain_error(_run_module("beta", "index-set", "--system", str(path)), "cannot read weight system")


def test_beta_index_set_deeply_nested_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(DEEPLY_NESTED, encoding="utf-8")
    _assert_domain_error(_run_module("beta", "index-set", "--system", str(path)), "cannot read weight system")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"weights": [{"v": ["x", 1], "mult": 1}]}, "bad fraction string"),
        ({"weights": [{"v": [1, 1], "mult": "a"}]}, "malformed weight system"),
        ({"weights": [{"v": ["1/0", 1], "mult": 1}]}, "bad fraction string"),
        ({"dim": -1, "weights": []}, "dimension must be non-negative"),
        ({"weights": [{"v": [1, 0], "mult": 1.5}]}, "mult must be an integer"),
        ({"weights": [{"v": [1, 0], "mult": True}]}, "mult must be an integer"),
        ({"dim": 2.9}, "dim must be an integer"),
        ({"weights": [{"v": "10", "mult": 1}]}, "a vector must be a list"),
        ({"dim": 1, "weights": [{"v": [True], "mult": 1}]}, "expected an integer or a fraction string"),
    ],
    ids=[
        "bad-literal", "bad-mult", "zero-denominator", "negative-dim",
        "float-mult", "bool-mult", "float-dim", "string-vector", "bool-coordinate",
    ],
)
def test_beta_index_set_malformed_system(tmp_path, change, message):
    system = dict({"dim": 2, "weights": [{"v": [1, 0], "mult": 1}], "roots": [], "chamber": []}, **change)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system), encoding="utf-8")
    _assert_domain_error(_run_module("beta", "index-set", "--system", str(path)), message)


def _run_module(*argv, timeout=None):
    """``python -m hpbundles`` with argv, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(hpbundles.__file__))
    return subprocess.run(
        [sys.executable, "-m", "hpbundles", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=False,
        timeout=timeout,
    )


def _assert_domain_error(proc, message):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _write_system(tmp_path, dim, vectors):
    system = {"dim": dim, "weights": [{"v": v, "mult": 1} for v in vectors], "roots": [], "chamber": []}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system), encoding="utf-8")
    return str(path)


def test_index_set_subset_pairs_at_cap_and_one_over(capsys, monkeypatch, tmp_path):
    # 5 weights in dimension 2: 5 + 10 subsets, each tested against 5 weights
    path = _write_system(tmp_path, 2, [[1, 0], [0, 1], [1, 1], [2, -1], [-1, 3]])
    monkeypatch.setattr(hpbundles.convex, "MAX_SUBSET_TESTS", 75)
    assert run_cli(capsys, "beta", "index-set", "--system", path)[0] == 0
    monkeypatch.setattr(hpbundles.convex, "MAX_SUBSET_TESTS", 74)
    code, out, err = run_cli(capsys, "beta", "index-set", "--system", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "75 subset-weight pairs, above the cap of 74" in err


def test_index_set_over_subset_cap_fails_fast(tmp_path):
    # m distinct weights in dimension 1 make m subsets of m tests each
    m = math.isqrt(hpbundles.convex.MAX_SUBSET_TESTS) + 1
    path = _write_system(tmp_path, 1, [[k] for k in range(1, m + 1)])
    _assert_domain_error(_run_module("beta", "index-set", "--system", path, timeout=10), "above the cap")


@pytest.mark.parametrize("literal", ["1e10000000", "3E-10000000", "1/2e10000000"])
def test_exponent_weight_fails_fast(capsys, tmp_path, literal):
    # Fraction("1e10000000") alone takes seconds and builds a 33-million-bit integer
    path = _write_system(tmp_path, 2, [[literal, 0], [0, 1]])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "beta", "index-set", "--system", path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exponents are not accepted" in err


def test_golden_write_then_match(capsys, tmp_path):
    golden = tmp_path / "g2.json"
    code, out, _ = run_cli(
        capsys, "compute", "stable2", "--genus", "2", "--golden", str(golden)
    )
    assert code == 0 and "golden written" in out
    code, out, _ = run_cli(
        capsys, "compute", "stable2", "--genus", "2", "--golden", str(golden)
    )
    assert code == 0 and "golden match" in out


def test_golden_mismatch_exits_two(capsys, tmp_path):
    golden = tmp_path / "g2.json"
    golden.write_text('{"kind": "hodge-poincare", "genus": 2, "dim": 5, "poly": []}', encoding="utf-8")
    code, _, err = run_cli(
        capsys, "compute", "stable2", "--genus", "2", "--golden", str(golden)
    )
    assert code == 2
    assert "golden" in err


def _malformed_golden(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text('{"kind": ', encoding="utf-8")
    return path, "cannot read golden file"


def _non_utf8_golden(tmp_path):
    path = tmp_path / "g2.json"
    path.write_bytes(b"\xff\xfe{")
    return path, "cannot read golden file"


def _directory_golden(tmp_path):
    path = tmp_path / "golden"
    path.mkdir()
    return path, "cannot read golden file"


def _missing_parent_golden(tmp_path):
    return tmp_path / "missing" / "g2.json", "cannot write golden file"


# nested deeper than the JSON decoder recurses: json.load raises RecursionError
DEEPLY_NESTED = "[" * 200_000


def _deeply_nested_golden(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(DEEPLY_NESTED, encoding="utf-8")
    return path, "cannot read golden file"


@pytest.mark.parametrize(
    "make",
    [_malformed_golden, _non_utf8_golden, _directory_golden, _missing_parent_golden, _deeply_nested_golden],
    ids=["malformed", "non-utf8", "directory", "missing-parent", "deeply-nested"],
)
def test_golden_bad_path_exits_one(tmp_path, make):
    path, message = make(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    contents = path.read_bytes() if path.is_file() else None
    proc = _run_module("compute", "stable2", "--genus", "2", "--golden", str(path))
    _assert_domain_error(proc, message)
    assert sorted(tmp_path.rglob("*")) == before
    assert (path.read_bytes() if path.is_file() else None) == contents


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, "compute", "stable2", "--genus", "2", "--json")
    _, second, _ = run_cli(capsys, "compute", "stable2", "--genus", "2", "--json")
    assert first == second


def test_verify_genus_out_of_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--genus", "1")
    assert code == 1
    assert "genus" in err


def test_verify_single_genus_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--genus", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == len(hpbundles.acceptance.CRITERIA)
    assert all(line.startswith("PASS") for line in lines)


def test_coprime_json(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "coprime", "--rank", "3", "--deg", "-2", "--genus", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["kind"], payload["dim"]) == ("hodge-poincare", 10)
    terms = {(t["p"], t["q"]): t["c"] for t in payload["poly"]}
    assert terms[(0, 0)] == terms[(10, 10)] == "1"


# Each input cap, one step over it: exit 1 with a message naming the cap.
# CI runs the same commands under a timeout, so a hang fails the job too.
CAP_COMMANDS = {
    "ss-order": ("compute", "ss", "--rank", "2", "--deg", "1", "--genus", "2",
                 "--order", str(hpbundles.semistable.MAX_ORDER + 1)),
    "ss-rank": ("compute", "ss", "--rank", str(hpbundles.hntypes.MAX_RANK + 1), "--deg", "1",
                "--genus", "2", "--order", "4"),
    "hn-types-rank": ("enumerate", "hn-types", "--rank", str(hpbundles.hntypes.MAX_RANK + 1),
                      "--deg", "1", "--genus", "2", "--max-codim", "4"),
    "reductive-classes-rank": ("enumerate", "reductive-classes", "--rank", str(hpbundles.hntypes.MAX_RANK + 1),
                               "--deg", "0"),
    "coprime-rank": ("compute", "coprime", "--rank", str(hpbundles.hntypes.MAX_RANK + 1),
                     "--deg", "1", "--genus", "2"),
    # rank 2 has moduli dimension 4(g - 1) + 1, one over the order cap here
    "coprime-dimension": ("compute", "coprime", "--rank", "2", "--deg", "1",
                          "--genus", str(hpbundles.semistable.MAX_ORDER // 4 + 1)),
}


@pytest.mark.parametrize("name", sorted(CAP_COMMANDS))
def test_input_cap_plus_one_exits_one(capsys, name):
    code, out, err = run_cli(capsys, *CAP_COMMANDS[name])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "cap" in err


def test_ss_large_genus_small_order_runs_fast():
    # the leading term is expanded inside the order's window, so its cost
    # does not grow with the genus; CI runs this under the same timeout
    proc = _run_module("compute", "ss", "--rank", "2", "--deg", "1", "--genus", "400", "--order", "4",
                       timeout=10)
    assert proc.returncode == 0
    assert proc.stdout.startswith("1 + 400*v + 400*u")


def test_ss_order_at_cap_runs(capsys):
    order = str(hpbundles.semistable.MAX_ORDER)
    code, _, _ = run_cli(capsys, "compute", "ss", "--rank", "1", "--deg", "0", "--genus", "2", "--order", order)
    assert code == 0


def _hn_types_command(max_codim):
    return ("enumerate", "hn-types", "--rank", "3", "--deg", "1", "--genus", "2",
            "--max-codim", str(max_codim), "--json")


def test_hn_type_count_at_cap_and_one_over(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, *_hn_types_command(12))
    assert code == 0
    count = json.loads(out)["count"]
    monkeypatch.setattr(hpbundles.hntypes, "MAX_HN_TYPES", count)
    assert run_cli(capsys, *_hn_types_command(12))[0] == 0
    monkeypatch.setattr(hpbundles.hntypes, "MAX_HN_TYPES", count - 1)
    code, out, err = run_cli(capsys, *_hn_types_command(12))
    assert (code, out) == (1, "")
    assert "more than %d filtration types" % (count - 1) in err


def test_hn_types_huge_codimension_fails_fast(capsys):
    # scans stop at the type cap instead of running until killed
    code, _, err = run_cli(
        capsys, "enumerate", "hn-types", "--rank", "6", "--deg", "1", "--genus", "2",
        "--max-codim", "1000000",
    )
    assert code == 1
    assert "filtration types" in err
