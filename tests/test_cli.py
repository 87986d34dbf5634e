import ast
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import genlat as g
from genlat.cli import run


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_info_text():
    code, out, err = call(["info", "E(2;2,3)"])
    assert code == 0, err
    assert "d: 7" in out
    assert "spin: false" in out
    assert "basic classes (8):" in out
    assert "lattice: H',2H,2E8-" in out


def test_info_json_agrees_with_text():
    code, out, _ = call(["info", "--surface", "E(2;2,3)", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 7 and doc["spin"] is False
    assert doc["basic_classes"] == [-7, -5, -3, -1, 1, 3, 5, 7]
    _, text, _ = call(["info", "E(2;2,3)"])
    assert f"d: {doc['d']}" in text
    assert f"rank: {doc['rank']}" in text


def test_basic_verb():
    code, out, _ = call(["basic", "--surface", "E(3)", "--json"])
    assert code == 0
    assert json.loads(out)["basic_classes"] == [-1, 1]


def test_class_verb():
    code, out, _ = call(
        ["class", "--surface", "E(2;2,3)", "--class", "k=1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["square"] == 0
    assert doc["divisibility"] == 1
    assert doc["k_dot"] == 0
    assert doc["K_dot"] == 0


def test_genus_verb_text_and_json():
    args = ["genus", "--surface", "E(3)", "--class", "k=4,e1=2,f1=2"]
    code, out, _ = call(args)
    assert code == 0
    assert "status: EXACT" in out
    assert "rule: THM_MAIN_EN" in out
    assert "realized: 5" in out
    code, out, _ = call(args + ["--json"])
    doc = json.loads(out)
    assert doc["realized"] == 5 and doc["rule"] == "THM_MAIN_EN"


def test_genus_accepts_R_T_aliases():
    code, out, _ = call(
        ["genus", "--surface", "E(3)", "--class", "k=4,R=2,T=2", "--json"]
    )
    assert code == 0
    assert json.loads(out)["realized"] == 5


def test_basic_class_listing_cap():
    cap = g.elliptic.MAX_BASIC_CLASSES
    code, out, _ = call(["basic", "--surface", f"E(2;1,{cap})", "--json"])
    assert code == 0 and len(json.loads(out)["basic_classes"]) == cap
    big = "9" * 1999
    for spec in (f"E(2;1,{cap + 1})", f"E(2;{big}8,{big}9)"):
        for argv in (["info", spec], ["info", spec, "--json"], ["basic", "--surface", spec]):
            code, out, err = call(argv)
            assert (code, out) == (2, "") and err.startswith("error: "), argv


def test_reduce_verb():
    code, out, _ = call(
        ["reduce", "--surface", "E(3)", "--class", "e1=1,f1=2,e2=1,f2=-1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spinor"] == 1
    assert doc["fixes_k"] is True and doc["fixes_W"] is True
    back = g.reduction_result_from_json_dict(doc, g.make_surface(3).lattice)
    assert back.to_json_dict() == doc


def test_spinor_verb(tmp_path):
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    path = tmp_path / "id.json"
    path.write_text(json.dumps(ident))
    code, out, _ = call(["spinor", "--lattice", "2H", "--matrix", str(path)])
    assert code == 0
    assert out == "+1\n"
    neg = [[-(int(i == j)) for j in range(4)] for i in range(4)]
    for i in (2, 3):
        neg[i][i] = 1
    path.write_text(json.dumps(neg))
    code, out, _ = call(["spinor", "--lattice", "2H", "--matrix", str(path)])
    assert out == "-1\n"


def test_spinor_on_surface(tmp_path):
    surf = g.parse_surface("E(3)")
    n = surf.lattice.rank
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "id.json"
    path.write_text(json.dumps(ident))
    code, out, _ = call(["spinor", "--surface", "E(3)", "--matrix", str(path)])
    assert code == 0 and out == "+1\n"


def test_verify_verb(tmp_path):
    good = [[0, 1], [1, 0]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(good))
    code, out, _ = call(["verify", "--lattice", "H", "--matrix", str(path)])
    assert code == 0 and out == "ok\n"
    bad = [[1, 1], [0, 1]]
    path.write_text(json.dumps(bad))
    code, out, err = call(["verify", "--lattice", "H", "--matrix", str(path)])
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_oracle_orbit_verb():
    code, out, err = call(
        ["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "1", "--json"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["orbit_count_spinor1"] == 1
    assert doc["vectors_found"] > 0


def test_oracle_orbit_with_no_vectors_reports_its_query():
    # 2H has no vector of square 3 with coordinates in [-1, 1]
    code, out, err = call(
        ["oracle", "orbit", "--lattice", "2H", "--square", "3", "--bound", "1", "--json"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["vectors_found"] == 0
    assert (doc["square"], doc["divisibility"]) == (3, 1)
    _, text, _ = call(["oracle", "orbit", "--lattice", "2H", "--square", "3", "--div", "2"])
    assert "square: 3\ndivisibility: 2\n" in text


def test_oracle_budget_exit_code():
    code, _, err = call(
        ["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "2",
         "--budget", "10"]
    )
    assert code == 3
    assert "error:" in err


def test_oracle_budget_env_var(monkeypatch):
    monkeypatch.setenv("GENUS_LATTICE_BUDGET", "10")
    code, _, err = call(["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "2"])
    assert code == 3
    # an explicit flag wins over the environment
    code, out, _ = call(
        ["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "1",
         "--budget", "1000000", "--json"]
    )
    assert code == 0
    assert json.loads(out)["orbit_count_spinor1"] == 1


def test_parse_errors_exit_2():
    code, _, err = call(["genus", "--surface", "E(3)", "--class", "zz=1"])
    assert code == 2
    assert "zz" in err and "Traceback" not in err
    code, _, err = call(["info", "not-a-surface"])
    assert code == 2
    code, _, err = call(["genus", "--surface", "E(3)", "--class", "0,0"])
    assert code == 2


def test_info_refuses_a_surface_given_twice():
    # the positional SURFACE and --surface together, as --surface with --lattice
    code, out, err = call(["info", "E(3)", "--surface", "E(4)"])
    assert code == 2 and out == ""
    assert "not both" in err and "Traceback" not in err


def test_zero_class_exit_2():
    zeros = ",".join(["0"] * 34)
    code, _, err = call(["genus", "--surface", "E(3)", "--class", zeros])
    assert code == 2


def test_deterministic_output():
    args = ["genus", "--surface", "E(2)", "--class", "e1=1", "--json"]
    outs = {call(args)[1] for _ in range(3)}
    assert len(outs) == 1


def test_surface_and_lattice_flags_exclusive(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, _, err = call(
        ["verify", "--surface", "E(2)", "--lattice", "H", "--matrix", str(path)]
    )
    assert code == 2


def _orbit_argv(*extra):
    return ["oracle", "orbit", "--lattice", "H", "--square", "0", *extra]


def _assert_typed_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "GENUS_LATTICE_BUDGET='abc' is not an integer"),
        ("0", "the state budget must be positive, got 0"),
        ("-5", "the state budget must be positive, got -5"),
        ("1.5", "GENUS_LATTICE_BUDGET='1.5' is not an integer"),
        # past int()'s digit limit: named by its length, not echoed
        ("9" * 5000, "GENUS_LATTICE_BUDGET has too many digits (5000)"),
    ],
    ids=["abc", "0", "-5", "1.5", "5000 nines"],
)
def test_bad_budget_env_var_exit_2(monkeypatch, value, message):
    monkeypatch.setenv("GENUS_LATTICE_BUDGET", value)
    code, out, err = call(_orbit_argv())
    _assert_typed_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_budget_flag_exit_2(value):
    _assert_typed_error(*call(_orbit_argv(f"--budget={value}")))


def test_non_utf8_matrix_file_exit_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe[[1,0],[0,1]]")
    for verb in ("verify", "spinor"):
        _assert_typed_error(*call([verb, "--lattice", "H", "--matrix", str(path)]))


@pytest.mark.parametrize(
    "matrix", [[[1.0, 0], [0, 1]], [[True, False], [False, True]], [["1", 0], [0, 1]]]
)
def test_non_integer_matrix_entries_exit_2(tmp_path, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    for verb in ("verify", "spinor"):
        _assert_typed_error(*call([verb, "--lattice", "H", "--matrix", str(path)]))


_HUGE = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "argv",
    [
        ["info", f"E({_HUGE})"],
        ["info", f"E(2;{_HUGE},1)"],
        ["oracle", "orbit", "--lattice", f"{_HUGE}H", "--square", "0"],
        ["info", "E(101)"],  # rank 1210, just above the cap
        ["oracle", "orbit", "--lattice", "601H", "--square", "0"],
        ["oracle", "orbit", "--lattice", "H", "--square", "0", "--div", "0"],
        ["oracle", "orbit", "--lattice", "H", "--square", "0", "--div", "-1"],
    ],
)
def test_oversized_or_out_of_range_parameters_exit_2(argv):
    _assert_typed_error(*call(argv))


@pytest.mark.parametrize("flag", ["--square", "--div", "--bound", "--budget"])
def test_integer_flag_past_the_digit_limit_is_not_echoed(flag):
    argv = ["oracle", "orbit", "--lattice", "H", "--square", "0", flag, _HUGE]
    code, out, err = call(argv)
    _assert_typed_error(code, out, err)
    assert err == f"error: argument {flag}: has too many digits (5000)\n"


@pytest.mark.parametrize("value", ["abc", "1.5", "9" * 20 + "x"])
def test_integer_flag_keeps_argparse_wording(value):
    code, out, err = call(["oracle", "orbit", "--lattice", "H", "--square", value])
    _assert_typed_error(code, out, err)
    assert err == f"error: argument --square: invalid int value: {value!r}\n"


def test_matrix_file_with_oversized_integer_exit_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(f"[[{_HUGE}, 0], [0, 1]]")
    for verb in ("verify", "spinor"):
        _assert_typed_error(*call([verb, "--lattice", "H", "--matrix", str(path)]))
    # the UTF-8 case keeps its own message
    path.write_bytes(b"\xff[[1,0],[0,1]]")
    code, out, err = call(["verify", "--lattice", "H", "--matrix", str(path)])
    _assert_typed_error(code, out, err)
    assert "is not UTF-8 text" in err


def test_matrix_path_with_a_nul_byte_exit_2():
    for verb in ("verify", "spinor"):
        code, out, err = call([verb, "--lattice", "H", "--matrix", "a\x00b"])
        _assert_typed_error(code, out, err)
        assert err.startswith("error: cannot read matrix file 'a\\x00b'")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = call(["info", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: genlat info")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_output_integer_past_the_digit_limit_exits_2(json_flag):
    # the square has about 5000 digits, more than str() converts by default
    sevens = "7" * 2500
    code, out, err = call(
        ["class", "--surface", "E(2)", "--class", f"e1={sevens},f1={sevens}", *json_flag]
    )
    _assert_typed_error(code, out, err)
    assert err.count("\n") == 1


# -- golden panel ----------------------------------------------------------------
# exit code, stdout and stderr of each verb in text and --json mode, pinned
# byte for byte; a stdout of 512 characters or more (the JSON of a reduction
# certificate) is pinned by its SHA-256 digest

_GOLDEN_MATRICES = {
    "id4": [[int(i == j) for j in range(4)] for i in range(4)],  # spinor +1 on 2H
    "flip4": [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # spinor -1 on 2H
    "swap": [[0, 1], [1, 0]],  # an isometry of H
    "shear": [[1, 1], [0, 1]],  # not one
}
_NEG_NOTE = (
    "negative square: the adjunction bound constrains only surfaces of positive genus, "
    "so genus 0 is not excluded"
)
_NOT_AN_ISOMETRY = (2, "", "error: (M^T G M)[1][1] = 2, expected 0\n")
_OVER_BUDGET = (3, "", "error: enumeration of 5^4 vectors exceeds the budget\n")
_NO_SURFACE = (2, "", "error: a surface spec such as E(2;2,3) is required\n")
_GOLDEN = {
    "info-positional": (
        ["info", "E(2;2,3)"],
        (0, "surface: E(2;2,3)\nn: 2\np: 2\nq: 3\nd: 7\nspin: false\nl: 2\nm: 2\n"
            "lattice: H',2H,2E8-\nrank: 22\nsignature: (3,19)\n"
            "basic classes (8): -7k -5k -3k -1k 1k 3k 5k 7k\n", ""),
        (0, '{"basic_classes":[-7,-5,-3,-1,1,3,5,7],"d":7,"l":2,"lattice":"H\',2H,2E8-",'
            '"m":2,"n":2,"p":2,"q":3,"rank":22,"sig_neg":19,"sig_pos":3,"spin":false,'
            '"surface":"E(2;2,3)"}\n', ""),
    ),
    "info-flag": (
        ["info", "--surface", "E(3)"],
        (0, "surface: E(3)\nn: 3\np: 1\nq: 1\nd: 1\nspin: false\nl: 4\nm: 3\n"
            "lattice: H',4H,3E8-\nrank: 34\nsignature: (5,29)\nbasic classes (2): -1k 1k\n", ""),
        (0, '{"basic_classes":[-1,1],"d":1,"l":4,"lattice":"H\',4H,3E8-","m":3,"n":3,'
            '"p":1,"q":1,"rank":34,"sig_neg":29,"sig_pos":5,"spin":false,"surface":"E(3)"}\n', ""),
    ),
    "basic": (
        ["basic", "--surface", "E(3)"],
        (0, "basic classes (2): -1k 1k\n", ""),
        (0, '{"basic_classes":[-1,1],"surface":"E(3)"}\n', ""),
    ),
    "class": (
        ["class", "--surface", "E(3)", "--class", "k=2,e1=1"],
        (0, "class: k=2,e1=1\nsquare: 0\ndivisibility: 1\ncharacteristic: false\n"
            "k.A: 0\nK.A: 0\n", ""),
        (0, '{"K_dot":0,"characteristic":false,"coords":[2,0,1' + ",0" * 31 + '],'
            '"divisibility":1,"k_dot":0,"square":0}\n', ""),
    ),
    "genus-THM_MAIN_EN": (
        ["genus", "--surface", "E(3)", "--class", "k=4,e1=2,f1=2"],
        (0, "status: EXACT\nrule: THM_MAIN_EN\nlower_bound: 5\nrealized: 5\n", ""),
        (0, '{"certificate":null,"lower_bound":5,"negative_square_note":null,"realized":5,'
            '"rule":"THM_MAIN_EN","status":"EXACT"}\n', ""),
    ),
    "genus-COR_ORTH_KV": (
        ["genus", "--surface", "E(2;2,3)", "--class", "e1=1,f1=1"],
        (0, "status: EXACT\nrule: COR_ORTH_KV\nlower_bound: 2\nrealized: 2\n"
            "certificate: canonical=e1=1,f1=1 spinor=+1 fixes_k=true fixes_W=true\n", ""),
        (0, "sha256:d12675a9be89642cf336d27489bbefd7df61f7f6bddf0ef28b9a0c2946f1892e", ""),
    ),
    "genus-PROP_MINUS2": (
        ["genus", "--surface", "E(2;2,3)", "--class", "e1=1,f1=-1"],
        (0, "status: EXACT\nrule: PROP_MINUS2\nlower_bound: 0\nrealized: 0\n"
            "certificate: canonical=e1=-1,f1=1 spinor=+1 fixes_k=true fixes_W=true\n", ""),
        (0, "sha256:567bf19ddf6636ca97d625cd5252cbae79e91d228d21fd9059e9f59ef1fe1383", ""),
    ),
    "genus-ADJUNCTION_ONLY": (
        ["genus", "--surface", "E(3)", "--class", "e1=1,f1=-2"],
        (0, "status: LOWER_BOUND_ONLY\nrule: ADJUNCTION_ONLY\nlower_bound: 0\nrealized: -\n"
            f"note: {_NEG_NOTE}\n", ""),
        (0, f'{{"certificate":null,"lower_bound":0,"negative_square_note":"{_NEG_NOTE}",'
            '"realized":null,"rule":"ADJUNCTION_ONLY","status":"LOWER_BOUND_ONLY"}\n', ""),
    ),
    "reduce": (
        ["reduce", "--surface", "E(2)", "--class", "e1=1,f1=2,e2=1,f2=-1"],
        (0, "input: e1=1,f1=2,e2=1,f2=-1\ncanonical: e1=1,f1=1\nspinor: +1\n"
            "fixes_k: true\nfixes_W: true\n", ""),
        (0, "sha256:a3ca2340161507427ccebe2967eb583f4b5eba9a564041356d2212e1f7e26d0a", ""),
    ),
    "spinor-plus": (
        ["spinor", "--lattice", "2H", "--matrix", "{tmp}/id4.json"],
        (0, "+1\n", ""),
        (0, '{"spinor":1}\n', ""),
    ),
    "spinor-minus": (
        ["spinor", "--lattice", "2H", "--matrix", "{tmp}/flip4.json"],
        (0, "-1\n", ""),
        (0, '{"spinor":-1}\n', ""),
    ),
    "verify-ok": (
        ["verify", "--lattice", "H", "--matrix", "{tmp}/swap.json"],
        (0, "ok\n", ""),
        (0, '{"ok":true}\n', ""),
    ),
    "verify-NotAnIsometry": (
        ["verify", "--lattice", "H", "--matrix", "{tmp}/shear.json"],
        _NOT_AN_ISOMETRY,
        _NOT_AN_ISOMETRY,
    ),
    "oracle": (
        ["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "1"],
        (0, "lattice: 2H\nsquare: 0\ndivisibility: 1\ncoord_bound: 1\nvectors_found: 32\n"
            "orbit_count_full: 1\norbit_count_spinor1: 1\n", ""),
        (0, '{"coord_bound":1,"divisibility":1,"lattice":"2H","orbit_count_full":1,'
            '"orbit_count_spinor1":1,"square":0,"vectors_found":32,"witnesses":null}\n', ""),
    ),
    "oracle-witnesses": (
        ["oracle", "orbit", "--lattice", "H", "--square", "0", "--bound", "1", "--witnesses"],
        (0, "lattice: H\nsquare: 0\ndivisibility: 1\ncoord_bound: 1\nvectors_found: 4\n"
            "orbit_count_full: 1\norbit_count_spinor1: 2\nwitnesses: 4\n", ""),
        (0, '{"coord_bound":1,"divisibility":1,"lattice":"H","orbit_count_full":1,'
            '"orbit_count_spinor1":2,"square":0,"vectors_found":4,"witnesses":['
            '{"canonical":[-1,0],"certificate":[[1,0],[0,1]],"vector":[-1,0]},'
            '{"canonical":[-1,0],"certificate":[[0,1],[1,0]],"vector":[0,-1]},'
            '{"canonical":[0,1],"certificate":[[1,0],[0,1]],"vector":[0,1]},'
            '{"canonical":[0,1],"certificate":[[0,1],[1,0]],"vector":[1,0]}]}\n', ""),
    ),
    "oracle-budget": (
        ["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "2",
         "--budget", "10"],
        _OVER_BUDGET,
        _OVER_BUDGET,
    ),
    "missing-surface": (["info"], _NO_SURFACE, _NO_SURFACE),
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", list(_GOLDEN))
def test_cli_output_is_pinned(tmp_path, case, mode):
    for name, rows in _GOLDEN_MATRICES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(rows))
    argv, text, as_json = _GOLDEN[case]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = call(argv + (["--json"] if mode == "json" else []))
    if len(out) >= 512:
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err.replace(str(tmp_path), "{tmp}")) == (
        text if mode == "text" else as_json
    )


def test_text_mode_builds_no_json_documents(monkeypatch):
    # the JSON rows of a certificate are built only under --json
    def refuse(self):
        raise AssertionError("to_json_dict called in text mode")

    for record in (g.GenusVerdict, g.ReductionResult, g.OrbitReport):
        monkeypatch.setattr(record, "to_json_dict", refuse)
    for case in ("genus-COR_ORTH_KV", "genus-PROP_MINUS2", "reduce", "oracle-witnesses"):
        argv, text, _ = _GOLDEN[case]
        assert call(argv) == text


@pytest.mark.parametrize(
    "argv",
    [["genus_table.py"], ["genus_table.py", "--json"], ["orbit_survey.py", "--bound", "1"]],
    ids=["genus_table", "genus_table_json", "orbit_survey"],
)
def test_scripts_run(argv):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    proc = subprocess.run(
        [sys.executable, str(scripts / argv[0]), *argv[1:]],
        env=_src_env(),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-3000:]
    assert proc.stdout


# the whole stdout of scripts/orbit_survey.py --bound 1
_SURVEY_BOUND_1 = """\
lattice  square div  vectors  full  spinor1
-------------------------------------------
H             0   1        4     1        2
H             2   1        2     1        2
2H            0   1       32     1        1
2H            2   1       20     1        1
2H            4   1        4     1        4
2H           -2   1       20     1        1
2H            0   2        0     0        0
"""


def test_orbit_survey_table_is_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "orbit_survey.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--bound", "1"],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, _SURVEY_BOUND_1, "")


def _src_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))


def test_cli_import_leaves_fractions_and_decimal_out():
    # -S: no site hooks, so only genlat's own imports are seen
    code = "import sys, genlat.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=_src_env(), capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_acceptance_suite_passes_under_python_O():
    # -O strips assert statements from the library (none are left) while
    # pytest still rewrites the ones in the test module
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_acceptance.py")],
        env=_src_env(),
        cwd=root,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout.decode()[-3000:]
    assert b" passed" in proc.stdout


# a reduction whose certificate has one entry of a unit column corrupted:
# the last basis vector, in the last E8 block, which the class leaves alone
_CORRUPT_CERTIFICATE = """
import genlat as g
from genlat import reduction

build = reduction._Reducer.certificate_matrix


def corrupt(self):
    m = [list(row) for row in build(self)]
    j = len(m) - 1
    print("unit column", all(m[i][j] == (i == j) for i in range(len(m))))
    m[j][j] = 2
    return tuple(map(tuple, m))


reduction._Reducer.certificate_matrix = corrupt
s = g.parse_surface("E(3)")
try:
    g.reduce_in_elliptic(s, s.parse_class("e1=3,f1=5,e2=2,f2=-1"))
except g.NotAnIsometry as exc:
    print("NotAnIsometry", exc.entry)
"""


def test_reduce_output_identical_under_python_O():
    # the checks that guard a certificate must survive assert stripping;
    # the class needs stage 3 with a 62-bit semiprime gcd, the orbit run
    # checks every image and witness certificate, and the corrupted
    # certificate must be refused
    env = _src_env()
    cli = "from genlat.cli import main; main()"
    n = 2147483647 * 2147483629
    reduce_argv = ["reduce", "--surface", "E(3)", "--class", f"e1={n},f1={n},e3=1", "--json"]
    orbit_argv = ["oracle", "orbit", "--lattice", "2H", "--square", "0", "--bound", "1",
                  "--witnesses", "--json"]
    stdouts = []
    for code, argv in ((cli, reduce_argv), (cli, orbit_argv), (_CORRUPT_CERTIFICATE, [])):
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-c", code, *argv],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        stdouts.append(outs[0])
    reduced, orbit = (json.loads(out) for out in stdouts[:2])
    assert reduced["spinor"] == 1
    assert len(orbit["witnesses"]) == orbit["vectors_found"]
    assert stdouts[2].decode().splitlines() == ["unit column True", "NotAnIsometry (30, 33)"]


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check in the library may
    # be one, nor raise the untyped AssertionError; InvariantViolation is
    # the type for internal postconditions
    src = Path(__file__).resolve().parents[1] / "src" / "genlat"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
    assert found == []


def test_names_the_benchmark_patches_exist():
    # perfbench/spans.py wraps every TRACED name for --trace 1, and the
    # workloads clear canonical_frame's cache in their set-up; the file is
    # read, not imported, so the test needs nothing from the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"genlat.{mod}"), name)
    ]
    assert missing == []
    assert callable(g.canonical_frame.cache_clear)


# -- fuzz ------------------------------------------------------------------------

_BIG = 10**99 - 1  # generated integers stay under 100 digits
_INTS = st.one_of(st.integers(-3, 3), st.integers(-_BIG, _BIG))
_JUNK = st.text(max_size=8)
_SURFACES = st.one_of(
    st.sampled_from(["E(2)", "E(3)", "E(4)", "E(2;2,3)", "E(3;2,5)"]),
    st.builds("E({})".format, st.integers(0, 100)),  # ranks up to MAX_RANK
    st.builds("E({};{},{})".format, st.integers(0, 6), _INTS.map(abs), _INTS.map(abs)),
    _JUNK,
)
_LATTICES = st.one_of(st.sampled_from(["H", "H'", "2H", "H',H", "3H", "E8-", "2000H"]), _JUNK)
_SOURCES = st.one_of(
    st.tuples(st.just("--surface"), _SURFACES),
    st.tuples(st.just("--lattice"), _LATTICES),
    st.just(("--surface", "E(2)", "--lattice", "H")),
    st.just(()),
)


def _sparse_classes(names, unique):
    items = st.lists(
        st.tuples(st.sampled_from(names), _INTS), min_size=1, max_size=6, unique_by=unique
    )
    return items.map(lambda pairs: ",".join(f"{name}={v}" for name, v in pairs))


_K_ORTHOGONAL = ["k", "R", "T", "e1", "f1", "e2", "f2", "x1_1", "x2_8"]
_CLASSES = st.one_of(
    _sparse_classes(_K_ORTHOGONAL, lambda pair: pair[0]),
    _sparse_classes(_K_ORTHOGONAL + ["W", "z"], None),  # repeated and unknown names too
    st.lists(_INTS, max_size=24).map(lambda xs: ",".join(map(str, xs))),
    _JUNK,
)


def _diagonal(signs):
    return [[s if i == j else 0 for j in range(len(signs))] for i, s in enumerate(signs)]


_MATRICES = st.one_of(
    st.lists(st.lists(_INTS, max_size=4), max_size=4).map(json.dumps),
    st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=4).map(_diagonal).map(json.dumps),
    _JUNK,
)
_VERBS = ["info", "basic", "class", "genus", "reduce", "spinor", "verify", "oracle"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500)
@given(data=st.data())
def test_cli_fuzz_every_verb_exits_0_2_or_3(fuzz_dir, data):
    draw = data.draw
    verb = draw(st.sampled_from(_VERBS))
    argv = [verb]
    if verb in ("info", "basic"):
        argv += ["--surface", draw(_SURFACES)]
    elif verb in ("class", "genus", "reduce"):
        argv += ["--surface", draw(_SURFACES), "--class", draw(_CLASSES)]
    elif verb == "oracle":
        argv += ["orbit", *draw(_SOURCES)]
        for flag, top in (("--square", 4), ("--div", 4), ("--bound", 4), ("--budget", 4000)):
            argv += [flag, str(draw(st.integers(-3, top)))]
        if draw(st.booleans()):
            argv.append("--witnesses")
    else:
        path = fuzz_dir / "matrix.json"
        path.write_text(draw(_MATRICES), encoding="utf-8")
        argv += [*draw(_SOURCES), "--matrix", str(path)]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.one_of(_JUNK, st.sampled_from(["--surface", "--class", "-h"]))))
    code, _, err = call(argv)
    event(f"{verb} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err, argv
