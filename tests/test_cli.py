"""Command-line behavior: exit codes, outputs, and file round trips."""

import json
import pathlib

import pytest

import oracles
from ctdkit import (Model, ModelSpace, augment_plan, constraints, generate_plan,
                    load_model, read_plan_csv, row_hash)
from ctdkit.cli import build_parser, main
from ctdkit.plans import plan_csv_text

M = "models"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# validate

def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", f"{M}/shopping.json")
    assert code == 0
    assert "OK" in out


def test_validate_names_unknown_value(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A = z"],
    }))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "'z'" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "models/no_such_model.json")
    assert code == 2
    assert "error" in err


# more digits than int() reads from text (sys.int_info.default_max_str_digits)
_LONG_INT = "9" * 5000


@pytest.mark.parametrize("text,reason", [
    ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
    ('{"attributes": [{"name": "A", "values": [{"label": "a", "range": [0, '
     + _LONG_INT + ']}]}]}', "unreadable number: "),
    ('{"attributes": [{"name": "A", "values": ["a", "b"]}], '
     '"constraints": ["A = a"], "constraints": []}',
     "key 'constraints' repeats in one object\n"),
], ids=["nested", "long-integer", "repeated-key"])
def test_unreadable_model_exits_1_naming_the_file(capsys, tmp_path, text, reason):
    model = tmp_path / "model.json"
    model.write_text(text)
    code, out, err = run(capsys, "validate", str(model))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {model}: {reason}")
    assert err.count("\n") == 1


def test_validate_infeasible_model(capsys, tmp_path):
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A=x AND NOT A=x"],
    }))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "no legal test" in out


def _top_level_compiles(monkeypatch):
    """Source text of every constraint compiled from here on, in order."""
    real, compiled = constraints.compile_expr, []

    def counting(expr, *args):
        compiled.append(constraints.format_expr(expr))
        return real(expr, *args)

    monkeypatch.setattr(constraints, "compile_expr", counting)
    return compiled


@pytest.mark.parametrize("command", ["generate", "project", "instantiate"])
def test_command_compiles_each_constraint_once(capsys, tmp_path, monkeypatch,
                                               command):
    model = f"{M}/code_review_dispatch.json"
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", model, "--t", "2", "-o", str(plan))
    compiled = _top_level_compiles(monkeypatch)
    argv = {"generate": ["--t", "2"],
            "project": ["--limit", "5"],
            "instantiate": [str(plan), "--seed", "1"]}[command]
    code, _, _ = run(capsys, command, model, *argv)
    assert code == 0
    sources = load_model(model).constraints
    assert len(sources) == 9
    assert compiled == [constraints.format_expr(constraints.parse(s))
                        for s in sources]


@pytest.mark.parametrize("command", [["generate", "--t", "1"], ["project"]])
def test_infeasible_model_is_rejected_with_the_validate_error(capsys, tmp_path,
                                                             command):
    bad = tmp_path / "infeasible.json"
    bad.write_text(json.dumps({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A = x", "A = y"],
    }))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 1
    assert out == ""
    assert err == ("error: invalid model:\n"
                   "error: constraints leave no legal test "
                   "(the legal space is empty)\n"
                   "1 error(s)\n")


_WIDE_ATTRIBUTES = [{"name": f"A{i}", "values": ["a", "b"]} for i in range(1200)]
_WIDE_CONJUNCTION = " AND ".join(f"A{i} = a" for i in range(1200))
_ENGINE_TOO_DEEP = ("model is too large to compile within the interpreter's "
                    "recursion limit")
_TOO_DEEP = {
    # the conjunction parses flat, but the engine recurses once per variable
    "attributes": (_WIDE_ATTRIBUTES, _WIDE_CONJUNCTION, _ENGINE_TOO_DEEP),
    # deep nesting parses (see the test below), so the one error is still
    # the engine's, reported once, whatever wraps the conjunction
    "parentheses": (_WIDE_ATTRIBUTES,
                    "(" * 400 + _WIDE_CONJUNCTION + ")" * 400,
                    _ENGINE_TOO_DEEP),
    "negations": (_WIDE_ATTRIBUTES,
                  "NOT " * 1200 + "(" + _WIDE_CONJUNCTION + ")",
                  _ENGINE_TOO_DEEP),
}


@pytest.mark.parametrize("command", ["validate", "count"])
@pytest.mark.parametrize("shape", sorted(_TOO_DEEP))
def test_model_past_the_recursion_limit_is_a_validation_error(capsys, tmp_path,
                                                              shape, command):
    attributes, constraint, message = _TOO_DEEP[shape]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"attributes": attributes,
                                "constraints": [constraint]}))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    *errors, last = (out + err).splitlines()
    assert last == "1 error(s)"
    assert all(line.startswith("error: ") for line in errors)
    assert errors[-1].startswith("error: " + message)


@pytest.mark.parametrize("shape", sorted(oracles.deep_documents()))
def test_constraint_nested_past_the_recursion_limit_validates_and_counts(
        capsys, tmp_path, shape):
    document, legal = oracles.deep_documents()[shape]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out.splitlines()[-1], err) == (0, "OK", "")
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert f"legal: {legal}\n" in out


# ----------------------------------------------------------------------
# count

def test_count_shopping(capsys):
    code, out, _ = run(capsys, "count", f"{M}/shopping.json")
    assert code == 0
    assert "cartesian: 288" in out
    assert "legal: 288" in out
    assert "feasible t=2 requirements: 101" in out
    assert "feasible t=3 requirements: 314" in out


def test_count_code_review(capsys):
    code, out, _ = run(capsys, "count", f"{M}/code_review.json")
    assert code == 0
    assert "legal: 63" in out


def test_count_api8x2(capsys):
    code, out, _ = run(capsys, "count", f"{M}/api8x2.json")
    assert code == 0
    assert "cartesian: 256" in out
    assert "legal: 256" in out


# ----------------------------------------------------------------------
# generate

def test_generate_writes_full_plan(capsys, tmp_path):
    out_file = tmp_path / "plan.csv"
    code, out, _ = run(capsys, "generate", f"{M}/api8x2.json",
                       "--t", "2", "-o", str(out_file))
    assert code == 0
    assert "coverage=100.00%" in out
    assert "partial=false" in out
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "Name,Shape,Color,Integer,Animal,Age,Location,Gender"
    assert len(rows) - 1 <= 10


def test_generate_budget_marks_partial(capsys, tmp_path):
    out_file = tmp_path / "plan.csv"
    code, out, _ = run(capsys, "generate", f"{M}/model1.json",
                       "--t", "2", "--budget", "5", "-o", str(out_file))
    assert code == 0
    assert "tests=5" in out
    assert "partial=true" in out
    assert len(out_file.read_text().strip().splitlines()) == 6


@pytest.mark.parametrize("argv", [
    ["generate", f"{M}/api8x2.json", "--t", "2", "--budget", "0"],
    ["augment", f"{M}/linked8x3.json", f"{M}/linked8x3_plan14.csv", "RESULTS",
     "--t", "2", "--n", "0"],
])
def test_budget_below_1_is_one_error_line(capsys, tmp_path, argv):
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n1,PASS\n2,FAIL\n")
    argv = [str(results) if arg == "RESULTS" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: budget must be >= 1, got 0\n"


def test_generate_json_format(capsys, tmp_path):
    out_file = tmp_path / "plan.json"
    code, out, _ = run(capsys, "generate", f"{M}/manual3x3x3.json",
                       "--t", "2", "--format", "json", "-o", str(out_file))
    assert code == 0
    document = json.loads(out_file.read_text())
    assert document["schema_version"] == 1
    assert document["partial"] is False
    assert document["covered"] == document["total_feasible"] == 27


def test_generate_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "generate", f"{M}/model1.json", "--t", "2", "--seed", "4",
        "-o", str(a))
    run(capsys, "generate", f"{M}/model1.json", "--t", "2", "--seed", "4",
        "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_seed_without_randomize_ties_changes_nothing(capsys):
    _, seeded, _ = run(capsys, "generate", f"{M}/api8x2.json", "--t", "2",
                       "--seed", "4")
    _, plain, _ = run(capsys, "generate", f"{M}/api8x2.json", "--t", "2")
    assert seeded == plain


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_randomize_ties_uses_the_seed_as_tie_seed(capsys, seed):
    space = ModelSpace(load_model(f"{M}/api8x2.json"))
    plan = generate_plan(space, 2, tie_seed=seed)
    code, out, _ = run(capsys, "generate", f"{M}/api8x2.json", "--t", "2",
                       "--randomize-ties", "--seed", str(seed))
    assert code == 0
    assert out == plan_csv_text(plan.tests, space.model.attribute_names)


def test_generate_to_stdout_keeps_summary_on_stderr(capsys):
    code, out, err = run(capsys, "generate", f"{M}/manual3x3x3.json", "--t", "2")
    assert code == 0
    assert out.startswith("Color,Size,Quantity")
    assert "coverage=100.00%" in err


def test_generate_then_analyze_agree(capsys, tmp_path):
    out_file = tmp_path / "plan.csv"
    code, out, _ = run(capsys, "generate", f"{M}/code_review.json",
                       "--t", "2", "-o", str(out_file))
    assert "coverage=100.00%" in out
    code, out, _ = run(capsys, "analyze", f"{M}/code_review.json",
                       str(out_file), "--t", "2")
    assert code == 0
    assert "(100.00%)" in out


# ----------------------------------------------------------------------
# analyze

def test_analyze_seven_row_table(capsys):
    code, out, _ = run(capsys, "analyze", f"{M}/api8x2.json",
                       f"{M}/api8x2_plan7.csv", "--t", "2")
    assert code == 0
    assert "covered 112 of 112" in out


def test_analyze_partial_plan_lists_missing(capsys, tmp_path):
    text = pathlib.Path(f"{M}/api8x2_plan7.csv").read_text().strip().splitlines()
    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(text[:4]) + "\n")  # header + 3 rows
    code, out, _ = run(capsys, "analyze", f"{M}/api8x2.json", str(partial),
                       "--t", "2")
    assert code == 0
    assert "missing:" in out
    assert "covered 112 of 112" not in out


def test_analyze_empty_plan_is_zero(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("Name,Shape,Color,Integer,Animal,Age,Location,Gender\n")
    code, out, _ = run(capsys, "analyze", f"{M}/api8x2.json", str(empty),
                       "--t", "2")
    assert code == 0
    assert "covered 0 of 112" in out
    assert "(0.00%)" in out


def test_analyze_rejects_unknown_label(capsys):
    # the 19-row review table contains a dispatch value outside the domain
    code, _, err = run(capsys, "analyze", f"{M}/code_review_dispatch.json",
                       f"{M}/code_review_dispatch_plan19.csv", "--t", "2")
    assert code == 1
    assert "'0'" in err


@pytest.mark.parametrize("t", ["2", "0", "99"])
def test_analyze_bad_row_wins_over_bad_t(capsys, t):
    code, out, err = run(capsys, "analyze", f"{M}/code_review_dispatch.json",
                         f"{M}/code_review_dispatch_plan19.csv", "--t", t)
    assert (code, out) == (1, "")
    assert err == "error: unknown value '0' for attribute 'DA'\n"


@pytest.mark.parametrize("command", [["analyze", "--t", "2"],
                                     ["instantiate", "--seed", "1"],
                                     ["augment", "RESULTS", "--t", "2", "--n", "3"]])
def test_plan_rows_are_typechecked_once(capsys, tmp_path, monkeypatch, command):
    # augment checks the rows that fail or have no verdict, and augment_plan
    # the ones that pass
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n" + "".join(
        f"{i},{'PASS' if i % 3 else 'FAIL'}\n" for i in range(1, 14) if i % 5))
    command = [str(results) if a == "RESULTS" else a for a in command]
    checked = []
    real = Model.check_assignment

    def counting(self, assignment):
        checked.append(assignment)
        return real(self, assignment)

    monkeypatch.setattr(Model, "check_assignment", counting)
    code, _, _ = run(capsys, command[0], f"{M}/code_review.json",
                     f"{M}/code_review_plan13.csv", *command[1:])
    assert code == 0
    assert len(checked) == 13


def test_analyze_thirteen_row_table(capsys):
    code, out, _ = run(capsys, "analyze", f"{M}/code_review.json",
                       f"{M}/code_review_plan13.csv", "--t", "2")
    assert code == 0
    assert "covered 85 of 85" in out


# ----------------------------------------------------------------------
# augment

def _write_results(path, verdicts):
    lines = ["test,verdict"]
    lines += [f"{i + 1},{'PASS' if v else 'FAIL'}" for i, v in enumerate(verdicts)]
    path.write_text("\n".join(lines) + "\n")


def test_augment_all_pass_emits_nothing(capsys, tmp_path):
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", f"{M}/api8x2.json", "--t", "2", "-o", str(plan))
    rows = plan.read_text().strip().splitlines()[1:]
    results = tmp_path / "results.csv"
    _write_results(results, [True] * len(rows))
    out_file = tmp_path / "new.csv"
    code, out, _ = run(capsys, "augment", f"{M}/api8x2.json", str(plan),
                       str(results), "--t", "2", "--n", "5", "-o", str(out_file))
    assert code == 0
    assert "new=0" in out
    assert "residual_after=0" in out
    assert len(out_file.read_text().strip().splitlines()) == 1  # header only


def test_augment_all_fail_retargets(capsys, tmp_path):
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", f"{M}/api8x2.json", "--t", "2", "-o", str(plan))
    rows = plan.read_text().strip().splitlines()[1:]
    results = tmp_path / "results.csv"
    _write_results(results, [False] * len(rows))
    code, out, err = run(capsys, "augment", f"{M}/api8x2.json", str(plan),
                         str(results), "--t", "2", "--n", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # header + the 4 new rows
    assert "new=4" in err
    assert "residual_before=112" in err


def test_augment_tests_do_not_depend_on_seed(capsys, tmp_path):
    # the seed drives only random tie-breaks, which augment never takes
    results = tmp_path / "results.csv"
    _write_results(results, [])
    outputs = {run(capsys, "augment", f"{M}/api8x2.json", f"{M}/api8x2_plan7.csv",
                   str(results), "--t", "2", "--n", "2", "--seed", seed)
               for seed in ("0", "1", "7")}
    assert len(outputs) == 1
    (code, out, _), = outputs
    assert code == 0 and len(out.strip().splitlines()) == 3  # header + 2 rows


def test_augment_partial_pass_shrinks_residual(capsys, tmp_path):
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", f"{M}/api8x2.json", "--t", "2", "-o", str(plan))
    rows = plan.read_text().strip().splitlines()[1:]
    results = tmp_path / "results.csv"
    _write_results(results, [i % 2 == 0 for i in range(len(rows))])
    code, _, err = run(capsys, "augment", f"{M}/api8x2.json", str(plan),
                       str(results), "--t", "2", "--n", "30")
    assert code == 0
    summary = {part.split("=")[0]: part.split("=")[1]
               for part in err.split() if "=" in part}
    assert int(summary["residual_before"]) < 112
    assert int(summary["residual_after"]) < int(summary["residual_before"])
    assert summary["residual_after"] == "0"


# linked8x3_plan14's rows 4, 5, 10, 11 and 13 are illegal; None is no verdict
@pytest.mark.parametrize("verdicts", [
    [None, None, None, True] + [None] * 10,
    [True] * 14,
    [i % 3 != 2 for i in range(14)],
    [False, None, True, False, True, None, True, True, None, True, False, True,
     True, None],
    [True, True, True, False, False, True, True, True, True, False, False, True,
     False, True],
])
def test_augment_reports_the_illegal_rows_that_passed(capsys, tmp_path, verdicts):
    model, plan = f"{M}/linked8x3.json", f"{M}/linked8x3_plan14.csv"
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n" + "".join(
        f"{i + 1},{'PASS' if v else 'FAIL'}\n"
        for i, v in enumerate(verdicts) if v is not None))
    _, out, _ = run(capsys, "analyze", model, plan, "--t", "2", "--format", "json")
    expected = [i for i in json.loads(out)["illegal_tests"] if verdicts[i]]
    args = ["augment", model, plan, str(results), "--t", "2", "--n", "3"]
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["illegal_passed"] == expected
    code, out, err = run(capsys, *args)
    assert code == 0
    # CSV output is the plan alone; the rows go on a second summary line
    assert out.splitlines()[1:] == [",".join(r) for r in document["tests"]]
    lines = err.splitlines()
    assert lines[0].startswith("new=3 ")
    assert lines[1:] == ([f"illegal passed tests excluded from credit (rows): "
                          + ", ".join(str(i + 1) for i in expected)]
                         if expected else [])
    code, out, _ = run(capsys, *args, "-o", str(tmp_path / "new.csv"))
    assert (code, out) == (0, err)  # with -o, the summary goes to stdout


def test_augment_rejects_a_bad_row_that_failed(capsys, tmp_path):
    # augment_plan sees only passed rows, so the command checks the others
    results = tmp_path / "results.csv"
    _write_results(results, [False] * 19)
    code, out, err = run(capsys, "augment", f"{M}/code_review_dispatch.json",
                         f"{M}/code_review_dispatch_plan19.csv", str(results),
                         "--t", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: unknown value '0' for attribute 'DA'\n"


def test_augment_rejects_a_bad_row_that_passed(capsys, tmp_path):
    # augment_plan checks the passed rows, with the same message
    results = tmp_path / "results.csv"
    _write_results(results, [True] * 19)
    code, out, err = run(capsys, "augment", f"{M}/code_review_dispatch.json",
                         f"{M}/code_review_dispatch_plan19.csv", str(results),
                         "--t", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: unknown value '0' for attribute 'DA'\n"


def test_augment_reads_spreadsheet_csv(capsys, tmp_path):
    """A plan and results saved as "CSV UTF-8" (byte-order mark, CRLF) with
    spaces after the header commas give the same output as the plain files."""
    plain = f"{M}/manual3x3x3_plan9.csv"
    results = tmp_path / "results.csv"
    _write_results(results, [i % 2 == 0 for i in range(9)])
    lines = pathlib.Path(plain).read_text().splitlines()
    plan = tmp_path / "excel.csv"
    plan.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(
        [lines[0].replace(",", ", ")] + lines[1:]).encode("utf-8") + b"\r\n")
    excel_results = tmp_path / "excel_results.csv"
    excel_results.write_bytes(b"\xef\xbb\xbf" + results.read_bytes())
    model, args = f"{M}/manual3x3x3.json", ["--t", "2", "--n", "3", "--format", "json"]
    expected = run(capsys, "augment", model, plain, str(results), *args)
    got = run(capsys, "augment", model, str(plan), str(excel_results), *args)
    assert expected[0] == 0
    assert got == expected


def test_augment_rejects_unknown_row_reference(capsys, tmp_path):
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", f"{M}/manual3x3x3.json", "--t", "2", "-o", str(plan))
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n99,PASS\n")
    code, _, err = run(capsys, "augment", f"{M}/manual3x3x3.json", str(plan),
                       str(results), "--t", "2", "--n", "3")
    assert code == 1
    assert "99" in err


def test_augment_rejects_non_ascii_digit_reference(capsys, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n\u00b2,PASS\n", encoding="utf-8")
    code, out, err = run(capsys, "augment", f"{M}/manual3x3x3.json",
                         f"{M}/manual3x3x3_plan9.csv", str(results),
                         "--t", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: results reference unknown row hash '\u00b2'\n"


@pytest.mark.parametrize("ref", ["10", "0" * 5000 + "10", _LONG_INT],
                         ids=["short", "zero-padded", "long"])
def test_augment_rejects_a_row_number_past_the_plan(capsys, tmp_path, ref):
    results = tmp_path / "results.csv"
    results.write_text(f"test,verdict\n{ref},PASS\n")
    code, out, err = run(capsys, "augment", f"{M}/manual3x3x3.json",
                         f"{M}/manual3x3x3_plan9.csv", str(results),
                         "--t", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == f"error: results reference row {ref}, plan has 9 rows\n"


def test_augment_reads_leading_zeros_in_a_row_number(capsys, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n01,PASS\n1,FAIL\n")
    code, out, err = run(capsys, "augment", f"{M}/manual3x3x3.json",
                         f"{M}/manual3x3x3_plan9.csv", str(results),
                         "--t", "2", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: results give more than one verdict for row 1\n"


def test_augment_rejects_two_verdicts_for_one_row(capsys, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n1,PASS\n2,PASS\n1,FAIL\n")
    code, out, err = run(capsys, "augment", f"{M}/manual3x3x3.json",
                         f"{M}/manual3x3x3_plan9.csv", str(results),
                         "--t", "2", "--n", "3")
    assert code == 1
    assert out == ""
    assert "more than one verdict for row 1" in err


def test_augment_gives_identical_rows_one_hash_verdict_each(capsys, tmp_path):
    # a 2x2 model whose plan repeats a row: the two verdicts for its hash
    # go to the two copies in file order
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"attributes": [
        {"name": "A", "values": ["a", "b"]}, {"name": "B", "values": ["x", "y"]}]}))
    plan = tmp_path / "plan.csv"
    plan.write_text("A,B\na,x\na,x\nb,y\n")
    digest = row_hash({"A": "a", "B": "x"}, ["A", "B"])
    results = tmp_path / "results.csv"
    results.write_text(f"test,verdict\n{digest},PASS\n{digest},FAIL\n3,PASS\n")
    code, out, err = run(capsys, "augment", str(model), str(plan), str(results),
                         "--t", "2", "--n", "5")
    assert code == 0
    # the passed rows a,x and b,y leave a,y and b,x
    assert err == "new=2 residual_before=2 residual_after=0 coverage=100.00%\n"
    assert out.splitlines()[1:] == ["a,y", "b,x"]
    results.write_text(f"test,verdict\n{digest},PASS\n{digest},FAIL\n"
                       f"{digest},PASS\n")
    code, out, err = run(capsys, "augment", str(model), str(plan), str(results),
                         "--t", "2", "--n", "5")
    assert (code, out) == (1, "")
    assert err == "error: results give more than one verdict for row 2\n"


def test_augment_rejects_a_label_holding_the_row_hash_separator(capsys, tmp_path):
    # the rows ("a\x1fb", "c") and ("a", "b\x1fc") would share a row_hash,
    # so a verdict for one would credit the other
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"attributes": [
        {"name": "A", "values": ["a\x1fb", "a"]},
        {"name": "B", "values": ["c", "b\x1fc"]}]}))
    plan = tmp_path / "plan.csv"
    plan.write_text("A,B\na\x1fb,c\na,b\x1fc\n")
    digest = row_hash({"A": "a", "B": "b\x1fc"}, ["A", "B"])
    results = tmp_path / "results.csv"
    results.write_text(f"test,verdict\n{digest},PASS\n")
    code, out, _ = run(capsys, "validate", str(model))
    assert code == 1
    assert out.endswith("contains U+001F\n2 error(s)\n")
    code, out, err = run(capsys, "augment", str(model), str(plan), str(results),
                         "--t", "2", "--n", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid model:\n")
    assert "attribute 'A' value 'a\\x1fb' contains U+001F" in err


def test_labels_the_csv_writer_quotes_round_trip(capsys, tmp_path):
    # commas, quotes, line feeds, CR LF pairs and non-ASCII letters in labels
    # go through generate, analyze, augment and instantiate byte for byte
    document = {"attributes": [
        {"name": "A", "values": ["plain", "with, comma", 'say "hi"']},
        {"name": "B", "values": ["line\nbreak", "cr\r\nlf"]},
        {"name": "C", "values": ["na\u00efve", '"quoted, all"\r\nover']},
    ]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(document), encoding="utf-8")
    space = ModelSpace(load_model(model))
    columns = list(space.model.attribute_names)
    plan = tmp_path / "plan.csv"
    code, _, _ = run(capsys, "generate", str(model), "--t", "2", "-o", str(plan))
    assert code == 0
    tests = generate_plan(space, 2).tests
    assert read_plan_csv(plan) == (columns, tests)
    for attr in document["attributes"]:
        assert {test[attr["name"]] for test in tests} == set(attr["values"])

    code, out, _ = run(capsys, "analyze", str(model), str(plan), "--t", "2")
    assert code == 0
    assert "(100.00%)" in out

    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n" + "".join(
        f"{row_hash(test, columns)},{'PASS' if i % 2 else 'FAIL'}\n"
        for i, test in enumerate(tests)))
    added = tmp_path / "added.csv"
    code, _, _ = run(capsys, "augment", str(model), str(plan), str(results),
                     "--t", "2", "--n", "10", "-o", str(added))
    assert code == 0
    expected = augment_plan(space, 2, tests[1::2], 10).plan.tests
    assert expected
    assert read_plan_csv(added) == (columns, expected)

    concrete = tmp_path / "concrete.csv"
    code, _, _ = run(capsys, "instantiate", str(model), str(plan), "--seed", "1",
                     "-o", str(concrete))
    assert code == 0
    assert read_plan_csv(concrete) == (columns, tests)


def _plan_with_repeated_column(tmp_path):
    # every model column is present, so only the repeat is wrong; the
    # first copy's values would silently give way to the second's
    header, *rows = pathlib.Path(f"{M}/manual3x3x3_plan9.csv").read_text().splitlines()
    first = header.split(",")[0]
    plan = tmp_path / "plan.csv"
    plan.write_text("\n".join([f"{first},{header}"]
                              + [f"blue,{row}" for row in rows]) + "\n")
    return plan


@pytest.mark.parametrize("command", [
    ["analyze", "--t", "2"],
    ["augment", "RESULTS", "--t", "2", "--n", "3"],
    ["instantiate", "--seed", "1"],
])
def test_repeated_plan_column_exits_1(capsys, tmp_path, command):
    plan = _plan_with_repeated_column(tmp_path)
    results = tmp_path / "results.csv"
    results.write_text("test,verdict\n1,PASS\n")
    name, *rest = command
    rest = [str(results) if a == "RESULTS" else a for a in rest]
    code, out, err = run(capsys, name, f"{M}/manual3x3x3.json", str(plan), *rest)
    assert code == 1
    assert out == ""
    assert "repeats column" in err


def _undecodable_inputs(tmp_path, broken, byte=b"\xff"):
    """manual3x3x3's model, plan and a results file, with `byte` written
    into the `broken` one."""
    files = {"model": tmp_path / "model.json", "plan": tmp_path / "plan.csv",
             "results": tmp_path / "results.csv"}
    files["model"].write_bytes(pathlib.Path(f"{M}/manual3x3x3.json").read_bytes())
    files["plan"].write_bytes(pathlib.Path(f"{M}/manual3x3x3_plan9.csv").read_bytes())
    files["results"].write_bytes(b"test,verdict\n1,PASS\n2,FAIL\n")
    text = files[broken].read_bytes()
    cut = text.index(b"\n") + 3  # inside a value of the second line
    files[broken].write_bytes(text[:cut] + byte + text[cut:])
    return {name: str(path) for name, path in files.items()}


_FILE_COMMANDS = {
    "validate": ["validate", "{model}"],
    "analyze": ["analyze", "{model}", "{plan}", "--t", "2"],
    "augment": ["augment", "{model}", "{plan}", "{results}", "--t", "2", "--n", "3"],
    "instantiate": ["instantiate", "{model}", "{plan}", "--seed", "1"],
}


@pytest.mark.parametrize("broken,command", [
    ("model", "validate"), ("model", "analyze"), ("model", "augment"),
    ("plan", "analyze"), ("plan", "augment"), ("plan", "instantiate"),
    ("results", "augment"),
])
def test_non_utf8_input_exits_1_naming_the_file(capsys, tmp_path, broken, command):
    files = _undecodable_inputs(tmp_path, broken)
    argv = [a.format(**files) for a in _FILE_COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {files[broken]}: not UTF-8 text: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "augment", "instantiate"])
def test_nul_byte_in_plan_exits_1(capsys, tmp_path, command):
    # the csv module rejects the line before Python 3.11; later versions
    # read the NUL into a label, which the model does not hold
    files = _undecodable_inputs(tmp_path, "plan", b"\x00")
    argv = [a.format(**files) for a in _FILE_COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (f"{files['plan']}: line 2: " in err) or ("unknown value" in err)


# ----------------------------------------------------------------------
# project

def test_project_fixed_pair(capsys):
    code, out, _ = run(capsys, "project", f"{M}/at_least_one.json",
                       "--fix", "x1=0", "--fix", "x2=0")
    assert code == 0
    assert out.splitlines() == ["x1,x2,x3,x4", "0,0,0,1", "0,0,1,0", "0,0,1,1"]


def test_project_forbidden_value_prints_nothing(capsys):
    code, out, _ = run(capsys, "project", f"{M}/code_review.json",
                       "--fix", "LenCBchain=0", "--fix", "InterestingCB1=true")
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


def test_project_without_fix_enumerates_legal(capsys):
    code, out, _ = run(capsys, "project", f"{M}/at_least_one.json")
    assert code == 0
    assert len(out.strip().splitlines()) == 16  # header + 15 legal rows


def test_project_limit(capsys):
    code, out, _ = run(capsys, "project", f"{M}/shopping.json", "--limit", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


@pytest.mark.parametrize("second", ["x1=1", " x1 =0"])
def test_project_repeated_fix_exits_1(capsys, second):
    code, out, err = run(capsys, "project", f"{M}/at_least_one.json",
                         "--fix", "x1=0", "--fix", second)
    assert code == 1
    assert out == ""
    assert "--fix repeats attribute 'x1'" in err


def test_project_unknown_value(capsys):
    code, _, err = run(capsys, "project", f"{M}/shopping.json",
                       "--fix", "Payment=Bitcoin")
    assert code == 1
    assert "Bitcoin" in err


# ----------------------------------------------------------------------
# instantiate

def test_instantiate_ranges_and_determinism(capsys, tmp_path):
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", f"{M}/power_failure.json", "--t", "2", "-o", str(plan))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, _ = run(capsys, "instantiate", f"{M}/power_failure.json", str(plan),
                     "--seed", "9", "-o", str(a))
    assert code == 0
    run(capsys, "instantiate", f"{M}/power_failure.json", str(plan),
        "--seed", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    header, *rows = a.read_text().strip().splitlines()
    count_col = header.split(",").index("WriteCount")
    for row in rows:
        assert 1 <= int(row.split(",")[count_col]) < 1001


def test_instantiate_passes_through_rangeless_plan(capsys, tmp_path):
    code, _, _ = run(capsys, "instantiate", f"{M}/api8x2.json",
                     f"{M}/api8x2_plan7.csv", "--seed", "1",
                     "-o", str(tmp_path / "c.csv"))
    assert code == 0
    original = pathlib.Path(f"{M}/api8x2_plan7.csv").read_text().strip().splitlines()
    produced = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert produced == original


def test_instantiate_free_column_and_json(capsys, tmp_path):
    plan = tmp_path / "plan.csv"
    run(capsys, "generate", f"{M}/power_failure.json", "--t", "2", "-o", str(plan))
    code, out, _ = run(capsys, "instantiate", f"{M}/power_failure.json", str(plan),
                       "--seed", "3", "--free", "writeSize=1:4096",
                       "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["schema_version"] == 1
    assert document["seed"] == 3
    assert document["columns"][-1] == "writeSize"
    size_index = document["columns"].index("writeSize")
    assert all(1 <= int(row[size_index]) < 4096 for row in document["tests"])


@pytest.mark.parametrize("free, message", [
    (["x=1:5", "x=10:20"], "free attribute 'x' is given twice"),
    ([" =1:5"], "free attribute name must be a non-empty string"),
    (["=1:5"], "free attribute name must be a non-empty string"),
], ids=["repeated", "blank", "empty"])
def test_instantiate_rejects_bad_free_names(capsys, free, message):
    flags = [arg for item in free for arg in ("--free", item)]
    code, out, err = run(capsys, "instantiate", f"{M}/api8x2.json",
                         f"{M}/api8x2_plan7.csv", "--seed", "1", *flags)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("free, message", [
    ("n=1:" + _LONG_INT, "error: --free n: unreadable number: Exceeds the limit"),
    ("n=-" + _LONG_INT + ":1", "error: --free n: unreadable number: Exceeds the limit"),
    ("n=1:x", "error: --free bounds must be integers, got 'n=1:x'"),
], ids=["long-hi", "long-lo", "not-integer"])
def test_instantiate_rejects_an_unreadable_free_bound(capsys, free, message):
    code, out, err = run(capsys, "instantiate", f"{M}/api8x2.json",
                         f"{M}/api8x2_plan7.csv", "--seed", "1", "--free", free)
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert _LONG_INT not in err


# ----------------------------------------------------------------------
# global behavior

def test_one_parser_serves_every_call(capsys):
    """`main` builds its parser once per process, and an `append` option
    given in one call leaves nothing for the next that omits it."""
    plan = f"{M}/api8x2_plan7.csv"
    calls = [["project", f"{M}/at_least_one.json", "--fix", "x1=0"],
             ["project", f"{M}/at_least_one.json"],
             ["instantiate", f"{M}/api8x2.json", plan, "--seed", "1", "--free", "n=1:9"],
             ["instantiate", f"{M}/api8x2.json", plan, "--seed", "1"]]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert fresh[1][1].count("\n") == 16 and fresh[3][1].count("\n") == 8
    assert fresh[2][1].splitlines()[0].endswith(",n")
    assert not fresh[3][1].splitlines()[0].endswith(",n")


def test_format_env_var_sets_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CTDKIT_FORMAT", "json")
    code, out, _ = run(capsys, "generate", f"{M}/manual3x3x3.json", "--t", "2")
    assert code == 0
    assert json.loads(out)["schema_version"] == 1


@pytest.mark.parametrize("value", ["xml", "", "jsonl"])
def test_unknown_format_env_var_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CTDKIT_FORMAT", value)
    for command in (["generate", f"{M}/shopping.json", "--t", "2"],
                    ["analyze", f"{M}/api8x2.json", f"{M}/api8x2_plan7.csv",
                     "--t", "2"]):
        with pytest.raises(SystemExit) as err:
            main(command)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"CTDKIT_FORMAT must be csv or json, got {value!r}" in captured.err
    # a flag overrides the variable, and commands without one ignore it
    code, out, _ = run(capsys, "generate", f"{M}/manual3x3x3.json", "--t", "2",
                       "--format", "csv")
    assert code == 0
    assert out.startswith("Color,Size,Quantity")
    assert run(capsys, "validate", f"{M}/shopping.json")[0] == 0


def test_format_env_var_ignores_case(capsys, monkeypatch):
    monkeypatch.setenv("CTDKIT_FORMAT", "JSON")
    code, out, _ = run(capsys, "generate", f"{M}/manual3x3x3.json", "--t", "2")
    assert code == 0
    assert json.loads(out)["schema_version"] == 1


def test_flag_overrides_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CTDKIT_FORMAT", "json")
    code, out, _ = run(capsys, "generate", f"{M}/manual3x3x3.json", "--t", "2",
                       "--format", "csv")
    assert code == 0
    assert out.startswith("Color,Size,Quantity")


def test_missing_files_exit_2(capsys, tmp_path):
    assert run(capsys, "count", "nope.json")[0] == 2
    assert run(capsys, "analyze", f"{M}/api8x2.json", "nope.csv", "--t", "2")[0] == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", f"{M}/api8x2.json"])  # --t is required
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", f"{M}/code_review.json", f"{M}/code_review_plan13.csv",
     "--t", "3", "--max-missing", "-1"],
    ["analyze", f"{M}/code_review.json", f"{M}/code_review_plan13.csv",
     "--t", "3", "--format", "json", "--max-missing", "-1"],
    ["project", f"{M}/shopping.json", "--limit", "-5"],
])
def test_negative_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0, got -" in captured.err
