"""The four workloads.

Each workload writes its seeded inputs once, then runs rounds of the same
ctdkit operations on them.  A round returns the reference seconds its
ctdkit calls took and the number of tests ctdkit emitted, and checks every
output against `oracle` (or a property the method must have) outside the
timed region.  ctdkit is
driven only through `ctdkit.cli.main(argv)` with output captured, or
through the package's exported functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import sys
from types import SimpleNamespace

import ctdkit
from ctdkit import cli

import inputs
import oracle
from refclock import RefClock


class Ledger:
    """Counts operations attempted and failed, and times ctdkit calls with a
    `RefClock`.  A call fails when it raises or, for the CLI, exits with a
    code other than 0; a check fails when it does not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.clock = RefClock()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(f"check {name}")
        return ok

    def call(self, what: str, fn):
        """Time fn(); returns (wall seconds, reference seconds, result), the
        result None if fn raised."""
        self.attempted += 1
        try:
            return self.clock.time(fn)
        except Exception as exc:  # a crash counts as a failed call; the run goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return 0.0, 0.0, None

    def cli(self, argv: list[str]) -> tuple[float, float, str]:
        """Run one CLI command in process; returns (wall seconds, reference
        seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()

        def command():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)

        seconds, ref_s, code = self.call(f"ctdkit {' '.join(argv)}", command)
        if code not in (0, None):
            self.fail(f"ctdkit {' '.join(argv)} exited {code}: {err.getvalue()[-500:]}")
        return seconds, ref_s, out.getvalue()


class Codec:
    """Maps ctdkit's names and labels to the oracle's value indices."""

    def __init__(self, model):
        self.names = list(model.names)
        self.attr = {name: i for i, name in enumerate(model.names)}
        self.value = [{label: x for x, label in enumerate(ls)} for ls in model.labels]

    def row(self, cells) -> tuple[int, ...]:
        """Cells in column order; raises KeyError/IndexError/ValueError on a
        mismatch."""
        if len(cells) != len(self.names):
            raise ValueError(f"row has {len(cells)} cells")
        return tuple(self.value[i][cell] for i, cell in enumerate(cells))

    def test(self, test: dict[str, str]) -> tuple[int, ...]:
        return self.row([test[name] for name in self.names])

    def requirement(self, bindings) -> tuple:
        out = []
        for attr, label in bindings:
            i = self.attr[attr]
            out.append((i, self.value[i][label]))
        return tuple(out)

    def plan(self, text: str):
        """Plan CSV text -> rows of value indices, or None when the header or
        any row does not match the model."""
        lines = list(csv.reader(io.StringIO(text)))
        if not lines or lines[0] != self.names:
            return None
        try:
            return [self.row(line) for line in lines[1:]]
        except (KeyError, IndexError, ValueError):
            return None


def json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Workload:
    name = ""
    setup_reps = 8   # set-ups timed before each round

    def __init__(self, seed: int, workdir: str, ledger: Ledger):
        self.seed = seed
        self.rng = random.Random(seed)
        self.dir = workdir
        self.ledger = ledger
        self.setup_model = ""   # model file whose set-up `setup_s` times

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def set_up(self) -> float:
        """load_model + validate_model + ModelSpace on the main model, as
        every CLI command does; returns reference seconds."""
        def set_up():
            model = ctdkit.load_model(self.setup_model)
            report = ctdkit.validate_model(model)
            ctdkit.ModelSpace(model)
            return report.ok

        _, ref_s, ok = self.ledger.call("set-up", set_up)
        if ok is False:
            self.ledger.fail("set-up: model reported invalid")
        return ref_s

    def run_round(self, index: int) -> tuple[float, float, dict]:
        """One round: (reference seconds spent in ctdkit calls, tests
        emitted, details for the per-round line: wall seconds per call,
        reference seconds as `ref_s`, counts)."""
        raise NotImplementedError


class GenerateChain(Workload):
    """`generate --t 2` to a full plan on a 20x5 chain model."""
    name = "generate-chain"

    def __init__(self, *args):
        super().__init__(*args)
        self.model = inputs.chain_model(self.rng, 20, 5)
        self.codec = Codec(self.model)
        self.setup_model = self.path("chain20x5.json")
        inputs.write_model(self.setup_model, self.model)
        self.feasible = oracle.chain_feasible(self.model, 2)
        self.lower_bound = oracle.lower_bound(self.feasible)

    def run_round(self, index):
        check = self.ledger.check
        seconds, ref_s, out = self.ledger.cli(
            ["generate", self.setup_model, "--t", "2", "--format", "csv"])
        rows = self.codec.plan(out)
        check("generate: plan parses", rows is not None)
        rows = rows or []
        check("generate: every row legal",
              all(oracle.chain_legal(self.model, r) for r in rows))
        check("generate: covers exactly the feasible pairs",
              oracle.covered_by(rows, 2) == self.feasible)
        check("generate: plan_tests >= lower_bound", len(rows) >= self.lower_bound)
        return ref_s, len(rows), {"generate_s": seconds, "ref_s": ref_s,
                                 "plan_tests": len(rows),
                                 "lower_bound": self.lower_bound}


class AnalyzeImport(Workload):
    """`analyze` two imported plans with illegal rows, `augment --n 10` one."""
    name = "analyze-import"

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.big = inputs.chain_model(rng, 30, 5)
        self.codec = Codec(self.big)
        big_rows = inputs.random_rows(rng, 30, 5, 400)
        verdicts = inputs.random_verdicts(rng, 400)
        small = inputs.chain_model(rng, 12, 4)
        small_rows = inputs.random_rows(rng, 12, 4, 300)
        self.setup_model = self.path("chain30x5.json")
        inputs.write_model(self.setup_model, self.big)
        inputs.write_plan(self.path("plan30x5.csv"), self.big, big_rows)
        inputs.write_results(self.path("results30x5.csv"), verdicts)
        inputs.write_model(self.path("chain12x4.json"), small)
        inputs.write_plan(self.path("plan12x4.csv"), small, small_rows)

        self.analyses = [
            ("analyze30x5_s", self.setup_model, "plan30x5.csv", 2, self.codec,
             self._report(self.big, big_rows, 2)),
            ("analyze12x4_s", self.path("chain12x4.json"), "plan12x4.csv", 3,
             Codec(small), self._report(small, small_rows, 3)),
        ]
        self.feasible = oracle.chain_feasible(self.big, 2)
        passed = [r for r, v in zip(big_rows, verdicts)
                  if v and oracle.chain_legal(self.big, r)]
        self.credited = oracle.covered_by(passed, 2)

    @staticmethod
    def _report(model, rows, t):
        feasible = oracle.chain_feasible(model, t)
        illegal = [i for i, r in enumerate(rows) if not oracle.chain_legal(model, r)]
        legal = [r for r in rows if oracle.chain_legal(model, r)]
        covered = oracle.covered_by(legal, t)
        return {"total_feasible": len(feasible), "covered": len(covered),
                "missing": oracle.ordered(feasible - covered),
                "missing_truncated": False, "illegal_tests": illegal}

    def run_round(self, index):
        check = self.ledger.check
        timings, total = {}, 0.0
        for key, model, plan, t, codec, expected in self.analyses:
            timings[key], ref_s, out = self.ledger.cli(
                ["analyze", model, self.path(plan), "--t", str(t), "--format", "json",
                 "--max-missing", "1000000"])
            total += ref_s
            report = json_or_none(out) or {}
            for field, value in expected.items():
                got = report.get(field)
                if field == "missing":
                    try:
                        got = [codec.requirement(r) for r in got]
                    except (KeyError, TypeError, ValueError):
                        got = None
                check(f"analyze t={t}: {field}", got == value)

        timings["augment_s"], ref_s, out = self.ledger.cli(
            ["augment", self.setup_model, self.path("plan30x5.csv"),
             self.path("results30x5.csv"), "--t", "2", "--n", "10",
             "--seed", str(self.seed), "--format", "json"])
        total += ref_s
        doc = json_or_none(out) or {}
        try:
            new = [self.codec.row(row) for row in doc["tests"]]
        except (KeyError, TypeError, IndexError, ValueError):
            new = None
        check("augment: output parses", new is not None)
        new = new or []
        check("augment: at most 10 rows", len(new) <= 10)
        check("augment: every row legal",
              all(oracle.chain_legal(self.big, r) for r in new))
        before = len(self.feasible) - len(self.credited)
        covered = set(self.credited)
        gains = []
        for row in new:
            fresh = set(oracle.tuples_of(row, 2)) - covered
            gains.append(len(fresh))
            covered |= fresh
        after = len(self.feasible) - len(covered)
        check("augment: residual_before", doc.get("residual_before") == before)
        check("augment: residual_after", doc.get("residual_after") == after)
        check("augment: residual_after <= residual_before", after <= before)
        check("augment: every row covers something new", all(g > 0 for g in gains))
        return total, len(new), {**timings, "ref_s": total, "augment_rows": len(new)}


class CyclesFlaky(Workload):
    """Library `run_cycles` at t=2, n=5 on a 15x4 chain until full coverage,
    with about a quarter of the executed tests failing.  A round runs
    `streams` verdict streams, the same ones every round and every seed, so
    its figures are means over streams rather than one stream's luck."""
    name = "cycles-flaky"
    n = 5
    max_cycles = 100
    streams = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.model = inputs.chain_model(self.rng, 15, 4)
        self.codec = Codec(self.model)
        self.setup_model = self.path("chain15x4.json")
        inputs.write_model(self.setup_model, self.model)
        self.feasible = oracle.chain_feasible(self.model, 2)

    def run_round(self, index):
        totals = {"cycles_s": 0.0, "ref_s": 0.0, "cycles_run": 0, "cycles_tests": 0,
                  "passed": 0}
        for stream in range(self.streams):
            for key, value in self._loop(stream).items():
                totals[key] += value
        means = {k: v / self.streams for k, v in totals.items()}
        return totals["ref_s"], means["cycles_tests"], {**means, "ref_s": totals["ref_s"]}

    def _loop(self, stream: int) -> dict:
        check = self.ledger.check
        executed: list[tuple[tuple[int, ...], bool]] = []
        attempts: dict[tuple[int, ...], int] = {}

        def execute(test: dict[str, str]) -> bool:
            row = self.codec.test(test)
            attempt = attempts.get(row, 0)
            attempts[row] = attempt + 1
            passed = inputs.flaky_verdict(stream, row, attempt)
            executed.append((row, passed))
            return passed

        def loop():
            space = ctdkit.ModelSpace(ctdkit.load_model(self.setup_model))
            return ctdkit.run_cycles(space, 2, self.n, execute, self.max_cycles,
                                     self.seed)

        seconds, ref_s, state = self.ledger.call("run_cycles", loop)
        if state is None:
            state = SimpleNamespace(passed=[], residual=[None], history=[])

        history = state.history
        emitted = sum(h.emitted for h in history)
        passed_rows = [row for row, ok in executed if ok]
        check("cycles: reaches 100%", not state.residual
              and bool(history) and history[-1].percent == 100.0)
        check("cycles: percent never decreases",
              all(a.percent <= b.percent for a, b in zip(history, history[1:])))
        check("cycles: at most n tests per cycle",
              all(h.emitted <= self.n for h in history))
        check("cycles: every emitted test executed", emitted == len(executed))
        check("cycles: passed tests are the ones that passed",
              [self.codec.test(t) for t in state.passed] == passed_rows)
        check("cycles: every passed test legal",
              all(oracle.chain_legal(self.model, r) for r in passed_rows))
        counts, done = [], 0
        covered: set = set()
        for h in history:
            covered |= oracle.covered_by(
                (r for r, ok in executed[done:done + h.emitted] if ok), 2)
            done += h.emitted
            counts.append(len(covered))
        check("cycles: per-cycle covered counts",
              counts == [h.covered for h in history]
              and all(h.total_feasible == len(self.feasible) for h in history))
        return {"cycles_s": seconds, "ref_s": ref_s, "cycles_run": len(history),
                "cycles_tests": emitted, "passed": len(passed_rows)}


class CompileLinked(Workload):
    """`validate`, `project --fix ... --limit 500`, `instantiate --free ...`
    on a 30x6 linked model with ranged values."""
    name = "compile-linked"
    setup_reps = 2
    limit = 500

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.model = inputs.linked_model(rng, 30, 6, 6)
        self.codec = Codec(self.model)
        self.setup_model = self.path("linked30x6.json")
        inputs.write_model(self.setup_model, self.model)
        # fixes on P0..P5, which no implication constrains, so any choice is legal
        self.fixed = {a: rng.randrange(6) for a in rng.sample(range(6), 2)}
        self.free = [("Load", 0, rng.randint(50, 500)), ("Retries", 1, rng.randint(3, 9))]
        self.expected = oracle.linked_rows(self.model, self.fixed, self.limit)
        self.first_output = None

    def run_round(self, index):
        check = self.ledger.check
        model = self.model
        timings = {}
        timings["validate_s"], total, out = self.ledger.cli(["validate", self.setup_model])
        check("validate: prints OK", out.splitlines() == ["OK"])

        fixes = []
        for attr, value in sorted(self.fixed.items()):
            fixes += ["--fix", f"P{attr}=r{value}"]
        timings["project_s"], ref_s, out = self.ledger.cli(
            ["project", self.setup_model, *fixes, "--limit", str(self.limit)])
        total += ref_s
        rows = self.codec.plan(out)
        check("project: plan parses", rows is not None)
        rows = rows or []
        check("project: exactly limit rows", len(rows) == self.limit)
        check("project: rows distinct", len(set(rows)) == len(rows))
        check("project: rows legal", all(oracle.linked_legal(model, r) for r in rows))
        check("project: rows match --fix",
              all(r[a] == x for r in rows for a, x in self.fixed.items()))
        check("project: lexicographic order", rows == sorted(rows))
        check("project: the first legal rows", rows == self.expected)

        plan = self.path("projected.csv")
        with open(plan, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        free_args = []
        for name, lo, hi in self.free:
            free_args += ["--free", f"{name}={lo}:{hi}"]
        timings["instantiate_s"], ref_s, out = self.ledger.cli(
            ["instantiate", self.setup_model, plan, "--seed", str(self.seed),
             "--format", "csv", *free_args])
        total += ref_s
        lines = list(csv.reader(io.StringIO(out)))
        header, body = (lines[0], lines[1:]) if lines else ([], [])
        check("instantiate: header",
              header == [*model.names, *(name for name, _, _ in self.free)])
        check("instantiate: one row per projected row", len(body) == len(rows))
        in_range, free_ok = True, True
        for abstract, concrete in zip(rows, body):
            try:
                cells = [int(c) for c in concrete]
            except ValueError:
                cells = []
            if len(cells) != len(header):
                in_range = free_ok = False
                break
            for i, x in enumerate(abstract):
                lo, hi = model.ranges[i][x]
                in_range = in_range and lo <= cells[i] < hi
            for (_, lo, hi), cell in zip(self.free, cells[model.k:]):
                free_ok = free_ok and lo <= cell < hi
        check("instantiate: cells in their value's range", in_range)
        check("instantiate: --free cells in bounds", free_ok)
        if self.first_output is None:
            self.first_output = out
        else:
            check("instantiate: same seed, same output", out == self.first_output)
        return total, len(body), {**timings, "ref_s": total}


WORKLOADS = {w.name: w for w in (GenerateChain, AnalyzeImport, CyclesFlaky, CompileLinked)}
