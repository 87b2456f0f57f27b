"""Test plans and their file formats.

Plan CSV: first row is the header (attribute names in declaration order,
none repeated), one row per test; the csv module double-quotes values containing commas.
Readers skip a UTF-8 byte-order mark (as spreadsheets save "CSV UTF-8")
and strip spaces around header names and values; a file that is not UTF-8
text is a PlanFormatError naming it.
Plan JSON carries the same rows plus coverage metrics and a
schema_version field.

Cycle results CSV: header ``test,verdict``; ``test`` is either a 1-based
row index into the plan CSV or the row's content hash (see `row_hash`;
identical rows take one hash ref each, in file order), ``verdict`` is PASS
or FAIL (case-insensitive).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

from .coverage import coverage_percent
from .errors import PlanFormatError
from .model import Model


@dataclass
class TestPlan:
    """An ordered list of full assignments with coverage accounting."""
    __test__ = False  # keep pytest from collecting this as a test class

    tests: list[dict[str, str]]
    covered: int
    total_feasible: int
    t: int

    def __len__(self) -> int:
        return len(self.tests)

    @property
    def percent(self) -> float:
        return coverage_percent(self.covered, self.total_feasible)

    @property
    def partial(self) -> bool:
        return self.covered < self.total_feasible


def row_hash(test: dict[str, str], columns) -> str:
    """Content hash of one row: sha1 over values in column order."""
    joined = "\x1f".join(test[c] for c in columns)
    return hashlib.sha1(joined.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# plan CSV / JSON

def write_plan_csv(tests, columns, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(columns)
    for test in tests:
        writer.writerow([test[c] for c in columns])


def plan_csv_text(tests, columns) -> str:
    buf = io.StringIO()
    write_plan_csv(tests, columns, buf)
    return buf.getvalue()


def _csv_rows(path):
    """The rows of a CSV file, a UTF-8 byte-order mark skipped.  Bytes that
    are not UTF-8, and a line the csv module rejects (a NUL byte, before
    Python 3.11), raise PlanFormatError naming the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError as exc:
            raise PlanFormatError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise PlanFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def read_plan_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read (columns, rows); labels are not validated against any model."""
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None:
        raise PlanFormatError(f"{path}: empty plan file")
    columns = [c.strip() for c in header]
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise PlanFormatError(f"{path}: header repeats column(s) {repeated}")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise PlanFormatError(
                f"{path}: line {line_no} has {len(row)} fields, "
                f"header has {len(columns)}")
        rows.append(dict(zip(columns, map(str.strip, row))))
    return columns, rows


def check_plan_columns(columns, model: Model) -> None:
    expected = list(model.attribute_names)
    missing = [c for c in expected if c not in columns]
    extra = [c for c in columns if c not in expected]
    if missing or extra:
        raise PlanFormatError(f"plan columns do not match model attributes: "
                              f"missing {missing}, unknown {extra}")


def plan_json_text(plan: TestPlan, columns, extra: dict) -> str:
    """The plan as JSON: its rows and coverage, then the fields of `extra`."""
    document = {
        "schema_version": 1,
        "columns": list(columns),
        "tests": [[test[c] for c in columns] for test in plan.tests],
        "provenance": ["generated"] * len(plan.tests),  # every plan is generated
        "t": plan.t,
        "covered": plan.covered,
        "total_feasible": plan.total_feasible,
        "percent": round(plan.percent, 4),
        "partial": plan.partial,
        **extra,
    }
    return json.dumps(document, indent=2) + "\n"


# ----------------------------------------------------------------------
# cycle results CSV

def read_results_csv(path) -> list[tuple[str, bool]]:
    """Read (test reference, passed) pairs from a results file."""
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None:
        raise PlanFormatError(f"{path}: empty results file")
    if [h.strip().lower() for h in header] != ["test", "verdict"]:
        raise PlanFormatError(
            f"{path}: results header must be 'test,verdict', got {header}")
    out = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise PlanFormatError(f"{path}: line {line_no}: expected 2 fields")
        ref, verdict = row[0].strip(), row[1].strip().upper()
        if verdict not in ("PASS", "FAIL"):
            raise PlanFormatError(
                f"{path}: line {line_no}: verdict must be PASS or FAIL, "
                f"got {row[1]!r}")
        out.append((ref, verdict == "PASS"))
    return out


def resolve_results(results, tests, columns) -> list[bool | None]:
    """Per-test verdicts (None = no verdict); refs are 1-based indices or
    hashes.  A hash names the first row with that content that has no
    verdict yet, so identical rows take one verdict each, in file order.
    Two verdicts for one row, by either kind of ref, are rejected, and so
    is a hash that rows of different contents share (labels holding
    U+001F, the separator of `row_hash`, can make one)."""
    hashes: dict[str, list[int]] = {}  # row hash -> its rows, in file order
    for i, test in enumerate(tests):
        hashes.setdefault(row_hash(test, columns), []).append(i)
    verdicts: list[bool | None] = [None] * len(tests)
    for ref, passed in results:
        if ref.isascii() and ref.isdigit():  # '²' is a digit that int() rejects
            digits = ref.lstrip("0")
            # a ref longer than the row count is out of range, and may be
            # longer than int() reads
            index = (int(digits or 0) - 1 if len(digits) <= len(str(len(tests)))
                     else len(tests))
            if not 0 <= index < len(tests):
                raise PlanFormatError(
                    f"results reference row {ref}, plan has {len(tests)} rows")
        else:
            rows = hashes.get(ref)
            if rows is None:
                raise PlanFormatError(f"results reference unknown row hash {ref!r}")
            if len({tuple(tests[i][c] for c in columns) for i in rows}) > 1:
                raise PlanFormatError(
                    f"results row hash {ref!r} names rows "
                    f"{[i + 1 for i in rows]}, whose contents differ")
            # when every copy has a verdict, the last one is reported
            index = next((i for i in rows if verdicts[i] is None), rows[-1])
        if verdicts[index] is not None:
            raise PlanFormatError(
                f"results give more than one verdict for row {index + 1}")
        verdicts[index] = passed
    return verdicts
