"""Plan and results file formats."""

import json

import pytest

from ctdkit import PlanFormatError, TestPlan, read_plan_csv, row_hash
from ctdkit.plans import (
    check_plan_columns,
    plan_csv_text,
    plan_json_text,
    read_results_csv,
    resolve_results,
)


def test_plan_csv_round_trip(tmp_path):
    columns = ["A", "B"]
    rows = [{"A": "x", "B": "plain"}, {"A": "y", "B": "with, comma"}]
    text = plan_csv_text(rows, columns)
    assert '"with, comma"' in text  # comma-bearing values are quoted
    path = tmp_path / "plan.csv"
    path.write_text(text)
    got_columns, got_rows = read_plan_csv(path)
    assert got_columns == columns
    assert got_rows == rows


def test_read_plan_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("A,B\nx\n")
    with pytest.raises(PlanFormatError, match="line 2"):
        read_plan_csv(path)


def test_read_plan_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("")
    with pytest.raises(PlanFormatError, match="empty"):
        read_plan_csv(path)


def test_read_plan_csv_rejects_repeated_column(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("X,X,Y,Z\na,b,c,d\n")
    with pytest.raises(PlanFormatError, match="repeats column.*'X'"):
        read_plan_csv(path)


def test_read_plan_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_bytes(b"\xef\xbb\xbfA,B\r\nx,y\r\n")  # as spreadsheets save "CSV UTF-8"
    assert read_plan_csv(path) == (["A", "B"], [{"A": "x", "B": "y"}])


def test_read_plan_csv_strips_header_names(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("A, B \nx, y\n")
    assert read_plan_csv(path) == (["A", "B"], [{"A": "x", "B": "y"}])


def test_read_plan_csv_rejects_column_repeated_after_stripping(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("X, X,Y\na,b,c\n")
    with pytest.raises(PlanFormatError, match=r"repeats column.*\['X'\]"):
        read_plan_csv(path)


def test_check_plan_columns(shopping):
    check_plan_columns(list(shopping.attribute_names), shopping)
    with pytest.raises(PlanFormatError) as err:
        check_plan_columns(["Availability", "Payment"], shopping)
    assert str(err.value) == (
        "plan columns do not match model attributes: missing "
        "['Carrier', 'DeliverySchedule', 'ExportControl'], unknown []")
    with pytest.raises(PlanFormatError) as err:
        check_plan_columns(["Extra"] + list(shopping.attribute_names)[1:], shopping)
    assert str(err.value) == ("plan columns do not match model attributes: "
                              "missing ['Availability'], unknown ['Extra']")


def test_plan_json_shape():
    plan = TestPlan(tests=[{"A": "x", "B": "y"}], covered=3, total_feasible=4, t=2)
    document = json.loads(plan_json_text(plan, ["A", "B"], {"seed": 7}))
    assert document["schema_version"] == 1
    assert document["columns"] == ["A", "B"]
    assert document["tests"] == [["x", "y"]]
    assert document["provenance"] == ["generated"]
    assert document["partial"] is True
    assert document["percent"] == 75.0
    assert document["seed"] == 7


def test_results_csv_parsing(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("test,verdict\n1,PASS\n2,fail\n3,Pass\n")
    assert read_results_csv(path) == [("1", True), ("2", False), ("3", True)]


def test_results_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "results.csv"
    path.write_bytes(b"\xef\xbb\xbftest, verdict\r\n1,PASS\r\n")
    assert read_results_csv(path) == [("1", True)]


def test_results_csv_bad_header(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("row,result\n1,PASS\n")
    with pytest.raises(PlanFormatError, match="header"):
        read_results_csv(path)


def test_results_csv_bad_verdict(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("test,verdict\n1,MAYBE\n")
    with pytest.raises(PlanFormatError, match="PASS or FAIL"):
        read_results_csv(path)


def test_resolve_results_by_index_and_hash():
    columns = ["A", "B"]
    tests = [{"A": "x", "B": "y"}, {"A": "z", "B": "w"}]
    digest = row_hash(tests[1], columns)
    verdicts = resolve_results([("1", True), (digest, False)], tests, columns)
    assert verdicts == [True, False]


def test_resolve_results_unknown_references():
    columns = ["A"]
    tests = [{"A": "x"}]
    with pytest.raises(PlanFormatError, match="plan has 1 rows"):
        resolve_results([("2", True)], tests, columns)
    with pytest.raises(PlanFormatError, match="unknown row hash"):
        resolve_results([("deadbeef", True)], tests, columns)


def test_resolve_results_non_ascii_digits_are_hashes():
    # str.isdigit holds for each, but only ASCII digits index rows
    columns = ["A"]
    tests = [{"A": "x"}]
    for ref in ("\u00b2", "\u0663", "1\u00b2"):
        with pytest.raises(PlanFormatError, match="unknown row hash"):
            resolve_results([(ref, True)], tests, columns)


def test_resolve_results_rejects_two_verdicts_for_one_row():
    columns = ["A", "B"]
    tests = [{"A": "x", "B": "y"}, {"A": "z", "B": "w"}]
    digest = row_hash(tests[0], columns)
    for results in ([("1", True), ("1", True)],
                    [("1", True), (digest, False)],
                    [(digest, False), (digest, False)]):
        with pytest.raises(PlanFormatError, match="more than one verdict for row 1"):
            resolve_results(results, tests, columns)


def test_resolve_results_hashes_fill_identical_rows_in_file_order():
    columns = ["A", "B"]
    tests = [{"A": "a", "B": "x"}, {"A": "a", "B": "x"}, {"A": "b", "B": "y"}]
    digest = row_hash(tests[0], columns)
    assert resolve_results([(digest, True)], tests, columns) == [True, None, None]
    assert resolve_results([(digest, True), (digest, False)], tests, columns) == [
        True, False, None]
    # a number takes its row, and a hash the copy left over
    assert resolve_results([("1", False), (digest, True)], tests, columns) == [
        False, True, None]
    assert resolve_results([("2", False), (digest, True)], tests, columns) == [
        True, False, None]
    # a third verdict for two copies is one too many
    with pytest.raises(PlanFormatError, match="more than one verdict for row 2"):
        resolve_results([(digest, True)] * 3, tests, columns)
    with pytest.raises(PlanFormatError, match="more than one verdict for row 2"):
        resolve_results([(digest, True), (digest, True), ("2", True)], tests, columns)


def test_row_hash_is_stable_and_order_sensitive():
    columns = ["A", "B"]
    test = {"A": "x", "B": "y"}
    assert row_hash(test, columns) == row_hash(dict(test), columns)
    assert row_hash(test, columns) != row_hash({"A": "y", "B": "x"}, columns)


def test_resolve_results_rejects_a_hash_that_rows_of_different_contents_share():
    # U+001F joins a row's values in row_hash, so ("a\x1fb", "c") and
    # ("a", "b\x1fc") hash alike; crediting the first would credit the wrong row
    columns = ["A", "B"]
    tests = [{"A": "a\x1fb", "B": "c"}, {"A": "a", "B": "b\x1fc"}]
    digest = row_hash(tests[1], columns)
    assert digest == row_hash(tests[0], columns)
    with pytest.raises(PlanFormatError, match=r"names rows \[1, 2\], whose contents differ"):
        resolve_results([(digest, True)], tests, columns)
    # index refs still name their rows
    assert resolve_results([("2", True)], tests, columns) == [None, True]
