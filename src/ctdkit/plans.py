"""Test plans and their file formats.

Plan CSV: first row is the header (attribute names in declaration order,
none repeated), one row per test; the csv module double-quotes values containing commas.
Readers skip a UTF-8 byte-order mark (as spreadsheets save "CSV UTF-8")
and strip spaces around header names and values; a file that is not UTF-8
text is a PlanFormatError naming it.
Plan JSON carries the same rows plus coverage metrics and a
schema_version field.  Every JSON output of the CLI (plan, report and
concrete plan) is written by `json_text`, byte for byte what `json.dumps`
writes with a two-space indent, without the json module's pure-Python
encoder.

Cycle results CSV: header ``test,verdict``; ``test`` is either a 1-based
row index into the plan CSV or the row's content hash (see `row_hash`;
identical rows take one hash ref each, in file order), ``verdict`` is PASS
or FAIL (case-insensitive).  Rows are hashed only when some ref is a hash.
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
    """The non-blank rows of a CSV file, each as (the number of the line it
    ends on, its fields), a UTF-8 byte-order mark skipped: a quoted field
    may span lines.  Bytes that are not UTF-8, and a line the csv module
    rejects (a NUL byte, before Python 3.11), raise PlanFormatError naming
    the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise PlanFormatError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise PlanFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def read_plan_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read (columns, rows); labels are not validated against any model."""
    reader = _csv_rows(path)
    _, header = next(reader, (None, None))
    if header is None:
        raise PlanFormatError(f"{path}: empty plan file")
    columns = [c.strip() for c in header]
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise PlanFormatError(f"{path}: header repeats column(s) {repeated}")
    rows = []
    for line_no, row in reader:
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
    return json_text(document) + "\n"


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def json_text(document) -> str:
    """The document as `json.dumps` writes it with a two-space indent, byte
    for byte, for the dicts (str keys), lists, tuples and JSON scalars
    ctdkit writes.  With an indent the json module runs its pure-Python
    encoder.  Here a container of scalars only (a plan row, a binding) is
    one pass of its C encoder, with the newline and indent as the item
    separator; any other scalar is written by `json.dumps` (the same
    encoder, so the same escaping and float repr).  A tuple of strings,
    such as a requirement's (attribute, label) binding, is written once
    per depth and reused.  Only tuples of strings are kept: equal tuples
    of other scalars can encode differently, as (1,) == (True,) and
    (0.0,) == (-0.0,)."""
    memo: dict[tuple, str] = {}  # (tuple of strings, depth) -> its text
    encoders: dict[int, json.JSONEncoder] = {}  # depth -> its containers' encoder

    def write(value, depth: int) -> str:
        if isinstance(value, tuple):
            try:
                return memo[value, depth]
            except KeyError:  # only tuples of strings are kept; no other tuple equals one
                text = container(value, depth)
                if all(isinstance(v, str) for v in value):
                    memo[value, depth] = text
                return text
            except TypeError:  # it holds a list or a dict
                return container(value, depth)
        if isinstance(value, (dict, list)):
            return container(value, depth)
        return json.dumps(value)

    def container(value, depth: int) -> str:
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = "\n" + "  " * (depth + 1)
        outer = "\n" + "  " * depth
        is_dict = isinstance(value, dict)
        # exact types: a subclass goes item by item, as the indent encoder takes it
        if _SCALAR_TYPES.issuperset(map(type, value.values() if is_dict else value)):
            if depth not in encoders:
                encoders[depth] = json.JSONEncoder(separators=("," + inner, ": "))
            text = encoders[depth].encode(value)
            return text[0] + inner + text[1:-1] + outer + text[-1]
        if is_dict:
            items = [json.dumps(k) + ": " + write(v, depth + 1)
                     for k, v in value.items()]
            return "{" + inner + ("," + inner).join(items) + outer + "}"
        items = [write(v, depth + 1) for v in value]
        return "[" + inner + ("," + inner).join(items) + outer + "]"

    return write(document, 0)


# ----------------------------------------------------------------------
# cycle results CSV

def read_results_csv(path) -> list[tuple[str, bool]]:
    """Read (test reference, passed) pairs from a results file."""
    reader = _csv_rows(path)
    _, header = next(reader, (None, None))
    if header is None:
        raise PlanFormatError(f"{path}: empty results file")
    if [h.strip().lower() for h in header] != ["test", "verdict"]:
        raise PlanFormatError(
            f"{path}: results header must be 'test,verdict', got {header}")
    out = []
    for line_no, row in reader:
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
    U+001F, the separator of `row_hash`, can make one).  Rows are hashed
    only when some ref is not a number, and each hash's rows are compared
    once, at its first ref; after that a cursor per hash passes the copies
    that have a verdict (verdicts are only ever set), so n refs to n
    identical rows take linear time."""
    hashes: dict[str, list[int]] | None = None  # row hash -> its rows, in file order
    cursors: dict[str, int] = {}  # hash -> index into its rows; earlier copies have verdicts
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
            if hashes is None:
                hashes = {}
                for i, test in enumerate(tests):
                    hashes.setdefault(row_hash(test, columns), []).append(i)
            rows = hashes.get(ref)
            if rows is None:
                raise PlanFormatError(f"results reference unknown row hash {ref!r}")
            k = cursors.get(ref)
            if k is None:
                _check_same_contents(ref, rows, tests, columns)
                k = 0
            # when every copy has a verdict, the last one is reported
            while k < len(rows) - 1 and verdicts[rows[k]] is not None:
                k += 1
            cursors[ref] = k
            index = rows[k]
        if verdicts[index] is not None:
            raise PlanFormatError(
                f"results give more than one verdict for row {index + 1}")
        verdicts[index] = passed
    return verdicts


def _check_same_contents(ref, rows, tests, columns) -> None:
    """Reject a row hash that rows of different contents share."""
    if len({tuple(tests[i][c] for c in columns) for i in rows}) > 1:
        raise PlanFormatError(
            f"results row hash {ref!r} names rows "
            f"{[i + 1 for i in rows]}, whose contents differ")
