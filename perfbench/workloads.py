"""The three workloads: inputs, set-up, operations and output checks.

Each workload is a closed loop: one process, one operation at a time.
`prepare` validates the specs and points with the program; with the
import, it is the set-up that `setup_s` times.  `operations` lists one
round of calls, each timed alone.  `check` hands the first round's outputs
to the independent oracle, with None in place of an operation that raised.
Every call resolves its program function through the module at call time,
so the span recorder's wrappers see it.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, Dict, List, Optional, Tuple

import inputs

# (label, call, render): call() is the timed program call and may raise;
# render(result) turns its result into canonical text outside the timer.
Operation = Tuple[str, Callable[[], object], Callable[[object], str]]

# Failures that the benchmark keeps on purpose: `selmer`, `local` and
# `solve` on a fiber above a root of p_J end in DegenerateFiberError, which
# `cli.main` does not catch.  Their correct result is a clean exit-1 message.
KNOWN_FAULT = "DegenerateFiberError"


def canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _make_spec(mods, raw: inputs.RawSpec):
    return mods["surface"].make_spec(list(raw.s0), raw.a, raw.b, raw.factor_dict(),
                                     list(raw.part_a))


def _validated(point):
    problems = point.validate()
    if problems:
        raise RuntimeError("benchmark point rejected: " + "; ".join(problems))
    return point


class Family:
    """descend on the 25 curated surfaces, fiber solving on and off."""

    name = "family"

    def __init__(self, seed: int):
        self.cases = inputs.family_cases(seed)

    def prepare(self, mods) -> List:
        surface, parse_place = mods["surface"], mods["arith"].parse_place
        out = []
        for case in self.cases:
            spec = _make_spec(mods, case.spec)
            point = _validated(surface.PartialAdelicPoint(spec, {
                parse_place(v): surface.LocalPoint.make(x, y, t, prec)
                for v, x, y, t, prec in case.rows}))
            bounds = mods["descent"].DescentBounds(solve_each_fiber=case.solve_each_fiber)
            out.append((spec, point, bounds))
        return out

    def operations(self, mods, prepared) -> List[Operation]:
        descent = mods["descent"]

        def op(spec, point, bounds):
            return lambda: descent.descend(spec, point, bounds)

        return [(f"member{case.member}/solve={int(case.solve_each_fiber)}", op(*args),
                 lambda cert: canonical(cert.as_dict()))
                for case, args in zip(self.cases, prepared)]

    def check(self, outputs: List[Optional[str]]) -> List[str]:
        import oracle

        problems = []
        holds = {}
        for case, text in zip(self.cases, outputs):
            if text is None:
                continue
            if case.member not in holds:
                holds[case.member] = oracle.condition_d(case.spec)["holds"]
            problems += [f"member {case.member}: {p}" for p in
                         oracle.check_certificate(case.spec, json.loads(text), holds[case.member])]
        return problems


class WideJ:
    """check_condition_d on specs with |J| = 6..10, some built to fail."""

    name = "wide-j"

    def __init__(self, seed: int, rows=inputs.WIDE_J_ROWS):
        self.cases = inputs.wide_j_cases(seed, rows)

    def prepare(self, mods) -> List:
        return [_make_spec(mods, case.spec) for case in self.cases]

    def operations(self, mods, prepared) -> List[Operation]:
        conditiond = mods["conditiond"]

        def render(report) -> str:
            return canonical({"holds": report.holds,
                              "g_d": [str(g) for g in report.g_d],
                              "g_d_dual": [str(g) for g in report.g_d_dual],
                              "witnesses": [str(g) for g in report.witnesses]})

        def op(spec):
            return lambda: conditiond.check_condition_d(spec)

        return [(f"J{len(c.spec.factors)}/{c.kind}", op(spec), render)
                for c, spec in zip(self.cases, prepared)]

    def check(self, outputs: List[Optional[str]]) -> List[str]:
        import oracle

        problems = []
        for case, text in zip(self.cases, outputs):
            if text is None:
                continue
            problems += [f"{case.spec}: {p}" for p in
                         oracle.check_condition_d_report(case.spec, json.loads(text))]
        return problems


class CliMix:
    """Every subcommand in-process on small seeded specs read from files."""

    name = "cli-mix"

    def __init__(self, seed: int, workdir: str, per_cell: int = inputs.CLI_PER_CELL):
        self.cases = inputs.cli_cases(seed, per_cell)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.files = []
        for k, case in enumerate(self.cases):
            spec_path = os.path.join(workdir, f"spec{k}.spec")
            point_path = os.path.join(workdir, f"spec{k}.points")
            with open(spec_path, "w", encoding="utf-8") as fh:
                fh.write(case.spec.spec_text())
            with open(point_path, "w", encoding="utf-8") as fh:
                fh.write(inputs.point_text(case.rows))
            self.files.append((spec_path, point_path))
        self.labels = [(case, label, argv) for case, (spec_path, point_path)
                       in zip(self.cases, self.files)
                       for label, argv in inputs.cli_invocations(case, spec_path, point_path)]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self, mods) -> List:
        surface = mods["surface"]
        out = []
        for spec_path, point_path in self.files:
            spec = surface.load_spec(spec_path)
            with open(point_path, encoding="utf-8") as fh:
                out.append((spec, _validated(surface.parse_point_file(fh.read(), spec))))
        return out

    def operations(self, mods, prepared) -> List[Operation]:
        cli = mods["cli"]

        def op(argv):
            def call():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        rc = cli.main(list(argv))
                    except SystemExit as exc:  # argparse rejects the arguments
                        rc = exc.code
                return rc, out.getvalue(), err.getvalue()
            return call

        return [(label, op(argv), canonical) for _, label, argv in self.labels]

    def check(self, outputs: List[Optional[str]]) -> List[str]:
        import oracle

        problems = []
        for (case, label, _), text in zip(self.labels, outputs):
            if text is None:
                continue
            rc, out, err = json.loads(text)
            problems += [f"{case.spec} {label}: {p}" for p in
                         oracle.check_cli(case, label, rc, out, err)]
        return problems

    @staticmethod
    def may_fail(label: str) -> bool:
        return label.endswith("@root")


def admissible_counts(outputs: List[Optional[str]]) -> Tuple[int, int]:
    """(admissible fibers found, candidates scanned) over descend certificates;
    None stands for an operation that raised.

    An exhausted admissible scan reports its bound, which is the number of
    candidates it checked.
    """
    found = scanned = 0
    for text in outputs:
        if text is None:
            continue
        cert = json.loads(text)
        if isinstance(cert, list):  # a CLI result: [rc, stdout, stderr]
            try:
                cert = json.loads(cert[1])
            except ValueError:
                continue
        if not isinstance(cert, dict) or "trace" not in cert:
            continue
        for entry in cert["trace"]:
            if entry.get("step") == "admissible_point":
                found += 1
                scanned += entry["candidates_checked"]
            elif entry.get("step") == "exhausted" and entry.get("stage") == "admissible_point":
                scanned += entry["bound"]
    return found, scanned
