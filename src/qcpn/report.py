"""Verification records and report emission (human table, JSON, CSV).

JSON and CSV output is byte-stable for fixed flags: records keep insertion
order, floats are printed with a fixed format, and volatile metadata (wall
time) appears only in the human-readable table.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass
class PairingRecord:
    """One verified quantity: name, parameters, value, target, residual."""

    name: str
    params: Dict[str, object]
    value: object
    target: Optional[object] = None
    residual: Optional[float] = None
    tol: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.residual is None or self.tol is None:
            return True
        return bool(self.residual <= self.tol)


@dataclass
class Report:
    title: str
    records: List[PairingRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    wall_time: float = 0.0
    unstable: bool = False

    def add(self, rec: PairingRecord) -> None:
        self.records.append(rec)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def exit_code(self) -> int:
        if self.unstable:
            return 3
        return 0 if self.passed else 1

    # -- emitters -------------------------------------------------------------

    def human(self) -> str:
        lines = [self.title]
        meta = ", ".join(f"{k}={fmt(v)}" for k, v in self.metadata.items())
        if meta:
            lines.append(f"  [{meta}]")
        for r in self.records:
            ps = ", ".join(f"{k}={fmt(v)}" for k, v in r.params.items())
            cells = [f"{r.name}({ps})", f"value={fmt(r.value)}"]
            if r.target is not None:
                cells.append(f"target={fmt(r.target)}")
            if r.residual is not None:
                cells.append(f"residual={fmt(r.residual)}")
            cells.append("PASS" if r.passed else "FAIL")
            lines.append("  " + "  ".join(cells))
        status = "ALL PASS" if self.passed else "FAILURES PRESENT"
        lines.append(f"{status}  ({len(self.records)} checks, {self.wall_time:.2f}s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "metadata": {k: fmt(v) for k, v in sorted(self.metadata.items())},
            "records": [
                {
                    "name": r.name,
                    "params": {k: fmt(v) for k, v in r.params.items()},
                    "value": fmt(r.value),
                    "target": fmt(r.target) if r.target is not None else None,
                    "residual": fmt(r.residual) if r.residual is not None else None,
                    "pass": r.passed,
                }
                for r in self.records
            ],
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "params", "value", "target", "residual", "pass"])
        for r in self.records:
            ps = ";".join(f"{k}={fmt(v)}" for k, v in r.params.items())
            w.writerow(
                [
                    r.name,
                    ps,
                    fmt(r.value),
                    fmt(r.target) if r.target is not None else "",
                    fmt(r.residual) if r.residual is not None else "",
                    "pass" if r.passed else "fail",
                ]
            )
        return buf.getvalue()
