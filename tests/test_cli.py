import glob
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from lpdeform import Verifier, all_rooted_trees, load_poset, monomial_order_for
from lpdeform.cli import _json, run

from conftest import FIXTURES, PolynomialContext, fixture_path, oracle_json, oracle_render, poset_text


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


# -- gens -----------------------------------------------------------------------

def test_gens_letterplace_text(capsys):
    code = run(["gens", fixture_path("chain2.poset"), "--ideal", "L"])
    assert code == 0
    assert out_lines(capsys) == ["a1*a2", "a1*b2", "b1*b2"]


def test_gens_compare_passes_on_good_fixture(capsys):
    code = run(["gens", fixture_path("chain4.poset"), "--ideal", "J",
                "--compare", fixture_path("chain4_J.gens")])
    assert code == 0
    assert "PASS fixture" in out_lines(capsys)[-1]


def test_gens_compare_fails_on_mismatch(tmp_path, capsys):
    bad = tmp_path / "chain2_wrong.gens"
    bad.write_text(
        "a1*a2 - u[0,a]*b1\n"
        "a1*b2 - u[0,a]*u[a,b]\n"
        "b1*b2 + a2*u[a,b]\n"  # sign flipped
    )
    code = run(["gens", fixture_path("chain2.poset"), "--ideal", "J",
                "--compare", str(bad)])
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL fixture" in text
    assert "missing: b1*b2 + a2*u[a,b]" in text
    assert "extra:   b1*b2 - a2*u[a,b]" in text


@pytest.mark.parametrize(
    "fixture, code, message",
    [
        ("a1^40000\n", 3, "lp: resource limit: "),  # past the key bound
        ("z1*a2\n", 2, "lp: "),  # an unknown variable
        (None, 2, "lp: "),  # no such file
    ],
    ids=["key-bound", "unknown-variable", "missing-file"],
)
def test_gens_compare_reads_the_fixture_before_any_output(fixture, code, message, tmp_path, capsys):
    path = tmp_path / "chain2.gens"
    if fixture is not None:
        path.write_text(fixture)
    assert run(["gens", fixture_path("chain2.poset"), "--ideal", "J", "--compare", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_gens_json_shape(capsys):
    code = run(["gens", fixture_path("star2.poset"), "--ideal", "J", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ideal"] == "J"
    assert len(payload["generators"]) == 5
    pairs = [tuple(g["pair"]) for g in payload["generators"]]
    assert ("a", "c") in pairs
    for g in payload["generators"]:
        assert all(isinstance(t["coeff"], str) for t in g["terms"])


# -- t1 ---------------------------------------------------------------------------

def test_t1_text_matches_fixture(capsys):
    code = run(["t1", fixture_path("diamond5.poset")])
    assert code == 0
    with open(fixture_path("diamond5_t1.txt")) as fh:
        expected = [ln.strip() for ln in fh
                    if ln.strip() and not ln.startswith("#")]
    assert out_lines(capsys) == expected


def test_t1_json(capsys):
    code = run(["t1", fixture_path("diamond5.poset"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    gens = payload["generators"]
    assert len(gens) == 11
    assert gens[0] == {"source": "a", "lower": ["b"], "upper": [],
                       "image": "b1"}
    assert gens[-1] == {"source": "e", "lower": [], "upper": ["c", "d"],
                        "image": "c2*d2"}


# -- check -------------------------------------------------------------------------

def test_check_basic(capsys):
    code = run(["check", fixture_path("chain3.poset")])
    assert code == 0
    lines = out_lines(capsys)
    assert lines[-1] == "6/6 checks passed"
    assert all(ln.startswith("PASS ") for ln in lines[:-1])


def test_check_full_json(capsys):
    code = run(["check", fixture_path("star2.poset"), "--suite", "full",
                "--max-degree", "3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 16
    assert {r["name"] for r in payload["reports"]} >= {"hilbert", "flat-p2"}


def test_check_resource_budget(capsys):
    code = run(["check", fixture_path("chain3.poset"), "--suite", "full",
                "--max-pairs", "0"])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "hilbert"])
@pytest.mark.parametrize("budget, message", [
    ("--max-pairs", "S-pair budget of 0 exceeded"),
    ("--max-weight", "S-pair lcm weight exceeded 0"),
])
def test_budget_flags_trip_with_exit_3(command, budget, message, capsys):
    # Buchberger reduces S-pairs on star2, so a zero budget trips
    args = [command, fixture_path("star2.poset"), budget, "0"]
    if command == "check":
        args += ["--suite", "full"]
    assert run(args) == 3
    captured = capsys.readouterr()
    assert captured.err == f"lp: resource limit: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "hilbert"])
def test_budget_flags_reach_the_verifier(command, monkeypatch, capsys):
    seen = []

    class Recording(Verifier):
        def __init__(self, tree, **budgets):
            seen.append(budgets)
            super().__init__(tree, **budgets)

    monkeypatch.setattr("lpdeform.cli.Verifier", Recording)
    assert run([command, fixture_path("chain2.poset"),
                "--max-pairs", "7", "--max-weight", "40", "--max-terms", "900"]) == 0
    assert seen == [{"max_pairs": 7, "max_weight": 40, "max_terms": 900}]
    capsys.readouterr()


def test_budgets_that_suffice_change_no_output(capsys):
    star2 = fixture_path("star2.poset")
    assert run(["hilbert", star2, "--json"]) == 0
    plain = capsys.readouterr().out
    assert run(["hilbert", star2, "--json", "--max-pairs", "100",
                "--max-weight", "20"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", ["check", "gens", "hilbert"])
def test_term_budget_trips_with_exit_3(command, capsys):
    # star2's context holds 47 terms once its generators are built
    args = [command, fixture_path("star2.poset"), "--max-terms"]
    if command == "gens":
        args[2:2] = ["--ideal", "J"]
    assert run(args + ["46"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "lp: resource limit: generator expansion exceeded 46 terms\n"
    assert captured.out == ""
    assert run(args + ["47"]) == 0
    capsys.readouterr()


def test_gens_render_the_polynomial_oracle_byte_for_byte(tmp_path, capsys):
    # lp gens renders J from the packed generators; the text and the JSON
    # are those of the Polynomial recursion, rendered term by term
    for k, tree in enumerate(all_rooted_trees(6)):
        path = tmp_path / f"t{k}.poset"
        path.write_text(poset_text(tree))
        order = monomial_order_for(tree)
        gens = PolynomialContext(tree).j_ideal_generators()
        assert run(["gens", str(path), "--ideal", "J"]) == 0
        assert capsys.readouterr().out == "".join(oracle_render(g, order) + "\n" for _, g in gens)
        assert run(["gens", str(path), "--ideal", "J", "--json"]) == 0
        payload = {
            "ideal": "J",
            "poset": load_poset(str(path)).to_json_dict(),
            "generators": [{"pair": [p, q], "terms": oracle_json(g, order)} for (p, q), g in gens],
        }
        assert capsys.readouterr().out == _json(payload) + "\n"


# -- hilbert ----------------------------------------------------------------------

def test_hilbert(capsys):
    code = run(["hilbert", fixture_path("chain2.poset"), "--max-degree", "5"])
    assert code == 0
    lines = out_lines(capsys)
    assert lines[0] == "J: [1, 4, 11, 22, 40, 64]"
    assert lines[1] == "L: [1, 4, 11, 22, 40, 64]"
    assert lines[2] == "PASS"


def test_hilbert_json(capsys):
    code = run(["hilbert", fixture_path("star2.poset"), "--max-degree", "4",
                "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["J"] == payload["L"] == [1, 9, 44, 157, 456]
    assert payload["passed"] is True


# -- info -------------------------------------------------------------------------

def test_info_tree(capsys):
    code = run(["info", fixture_path("chain2.poset")])
    assert code == 0
    text = capsys.readouterr().out
    assert "multiplicity:   3" in text
    assert "u-parameters:   2" in text
    assert "t1-generators:  2" in text


def test_info_non_tree_json(capsys):
    code = run(["info", fixture_path("diamond5.poset"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tree"] is False
    assert payload["u_parameters"] is None
    assert payload["t1_generators"] == 11
    assert payload["agree"] is True


# -- failure modes -----------------------------------------------------------------

def test_missing_file_is_a_usage_error(capsys):
    assert run(["info", "/nonexistent/nowhere.poset"]) == 2
    assert "lp:" in capsys.readouterr().err


def test_malformed_poset_file(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("a <\n")
    assert run(["info", str(bad)]) == 2
    assert "lp:" in capsys.readouterr().err


def test_non_tree_rejected_where_a_tree_is_needed(capsys):
    assert run(["check", fixture_path("diamond5.poset")]) == 2
    assert "lp:" in capsys.readouterr().err


def test_bad_arguments(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["gens", fixture_path("chain2.poset")]) == 2  # --ideal required
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["hilbert", "--max-degree", "-1"],
    ["check", "--suite", "full", "--max-degree", "-1"],
    ["hilbert", "--max-degree", "two"],
])
def test_bad_max_degree_is_a_usage_error(args, capsys):
    assert run([args[0], fixture_path("chain2.poset")] + args[1:]) == 2
    captured = capsys.readouterr()
    assert "--max-degree" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("command", ["check", "hilbert"])
@pytest.mark.parametrize("flag", ["--max-pairs", "--max-weight"])
@pytest.mark.parametrize("value", ["-1", "many", "2.5"])
def test_bad_budget_is_a_usage_error(command, flag, value, capsys):
    assert run([command, fixture_path("chain2.poset"), flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["hilbert"], ["check", "--suite", "full"]])
def test_max_degree_above_the_key_bound_exits_3(command, capsys):
    args = [command[0], fixture_path("single.poset")] + command[1:] + ["--max-degree"]
    assert run(args + ["32767"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(args + ["32768"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lp: resource limit: max_degree 32768 exceeds 32767, the key bound\n"


def test_hilbert_degree_zero(capsys):
    assert run(["hilbert", fixture_path("chain2.poset"), "--max-degree", "0"]) == 0
    assert out_lines(capsys) == ["J: [1]", "L: [1]", "PASS"]


def test_underscore_in_element_name_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "underscore.poset"
    bad.write_text("a_b < c\n")
    assert run(["info", str(bad)]) == 2
    assert "lp:" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    args = ["gens", fixture_path("tree7.poset"), "--ideal", "J"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lpdeform.cli", "info",
         fixture_path("star3.poset")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "elements:       4" in proc.stdout


def test_python_dash_m_runs_the_cli(capsys):
    args = ["info", fixture_path("tree7.poset"), "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "lpdeform", *args], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert run(args) == 0
    assert proc.stdout == capsys.readouterr().out


# -- the indented JSON writer ------------------------------------------------------

keys = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=24,
)


@given(payloads)
@example({"": [], "x": {}, "é\u2028\n": ["ü", "\ud83d", -0.0, float("nan"), float("inf"), 10**30]})
@example([[], {}, (), [[]], {"a": {}}])
@example({1: True, 2.5: None, None: False, True: 1.0})
def test_json_writer_matches_json_dumps(payload):
    assert _json(payload) == json.dumps(payload, indent=2)


JSON_COMMANDS = [
    ["gens", "--ideal", "J", "--json"],
    ["gens", "--ideal", "L", "--json"],
    ["t1", "--json"],
    ["check", "--json"],
    ["check", "--suite", "full", "--max-degree", "3", "--json"],
    ["hilbert", "--json"],
    ["info", "--json"],
]


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=lambda c: " ".join(c[:-1]))
def test_every_json_output_is_json_dumps_indent_2(command, capsys):
    printed = 0
    for path in sorted(glob.glob(f"{FIXTURES}/*.poset")):
        code = run([command[0], path, *command[1:]])
        out = capsys.readouterr().out
        if code == 2:
            assert out == ""  # not a rooted tree
            continue
        assert out == json.dumps(json.loads(out), indent=2) + "\n", path
        printed += 1
    assert printed >= 9
