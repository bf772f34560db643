"""Workload inputs for the qchar benchmark, and one checked verify per input.

This module imports only qchar and the standard library, so the set-up probe
(a fresh interpreter that imports qchar and builds a workload's inputs) pays
for nothing the program itself does not need.

A case is a plain tuple naming one verify:
  ("proposition", parts, k, order)   qchar.verify_proposition
  ("class1" | "class2", m, order)    qchar.cli.main([... "--json"]), in-process
  ("classical", name, order)         qchar.verify_identity
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import qchar
import qchar.cli

# sha256 over each workload's canonical reports, recorded from the seed
# commit of this benchmark.  Simplification work must keep every report
# byte-identical, so a changed digest fails the run.
EXPECTED_DIGESTS = {
    "sweep": "67a64a594d4fe6d259ef7f66f9bf1048ad23e62b68e51028b56b9540e63d75d9",
    "families": "a3d2c8dbaced1e2d1dab1cc1b73632640b00dc90ee9f4908d4baab495ce5b1b3",
    "classical-hi": "548c2b28f452689b7d75be973019852035cf6ff446f5387662cf5355f346c784",
}


def inputs(workload: str) -> list[tuple]:
    """The workload's verifies in canonical order (the seed only permutes them)."""
    if workload == "sweep":
        return [
            ("proposition", parts, k, 30)
            for n in range(1, 8)
            for parts in qchar.partitions(n)
            for k in range(n)
        ]
    if workload == "families":
        return [
            ("class1", 1, 800),
            ("class1", 2, 160),
            ("class1", 3, 56),
            ("class2", 1, 800),
            ("class2", 2, 100),
        ]
    if workload == "classical-hi":
        return [("classical", name, 3000) for name in qchar.CLASSICAL_NAMES]
    raise ValueError(f"unknown workload: {workload!r}")


def run_case(case: tuple) -> str:
    """Run one verify and return its canonical report as a JSON string."""
    kind = case[0]
    if kind == "proposition":
        _, parts, k, order = case
        return _canonical(qchar.verify_proposition(parts, k, order).to_json())
    if kind == "classical":
        _, name, order = case
        report = qchar.verify_identity(qchar.classical_identity(name), order)
        return _canonical(report.to_json())
    _, m, order = case
    argv = ["verify", kind, "--m", str(m), "--order", str(order), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qchar.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qchar {' '.join(argv)} exited with {code}")
    return _canonical(json.loads(out.getvalue()))


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def check_report(case: tuple, report: str) -> bool:
    """A verify passes when it matched through exactly the requested order."""
    data = json.loads(report)
    return data["match"] is True and Fraction(data["checked_through"]) == case[-1]


def digest(cases: list[tuple], reports: dict[tuple, str]) -> str:
    """sha256 over the reports, keyed and ordered by the canonical case order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(f"{case!r}\t{reports[case]}\n".encode())
    return h.hexdigest()
