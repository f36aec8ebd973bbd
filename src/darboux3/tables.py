"""Embedded reference tables and their recomputation.

Each table id maps to one packaged CSV of published values kept verbatim at
their printed precision.  ``verify_table`` recomputes every cell with the
library and compares at a per-cell tolerance: by default 1.5 units in the
last printed digit, with stricter fixed tolerances where the acceptance
targets demand them (spectra 1e-5, the 4-decimal momentum sweep 1e-4, the
8-decimal slack sweeps 1e-5).

Two kinds of cells never gate the pass/fail verdict: the interior-order
columns of the nine-column entropy tables (the source column header is
internally inconsistent there; only the unambiguous 0.5 and 2 columns
gate) and the second slack-vs-lambda table (its published caption
contradicts the figure it feeds; the cells are pinned and reported against
the Tsallis alpha = 2/3 slack without gating).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from importlib import resources

from .model import ModelParams, effective_frequency, energy
from .uncertainty import _entropies, _xi_slacks, entropy, xi_renyi, xi_tsallis

__all__ = ["TABLE_IDS", "CellCheck", "TableReport", "load_reference", "verify_table"]


@dataclass(frozen=True)
class CellCheck:
    row: str
    col: str
    reference_text: str
    computed: float
    tolerance: float
    gating: bool

    @property
    def reference(self) -> float:
        return float(self.reference_text)

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.reference) <= self.tolerance


@dataclass(frozen=True)
class TableReport:
    cells: list[CellCheck]

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.cells if c.gating and not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failures


def _ulp_tolerance(text: str) -> float:
    """1.5 units in the last printed digit; bare '0' means a saturation
    row pinned at 1e-7."""
    if re.fullmatch(r"0(\.0+)?", text):
        return 1e-7
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 1.5 * 10.0 ** (-decimals)


def _lambda_rows(level):
    """compute(lam, ns) of a table with lambda rows and level columns."""
    return lambda lam, ns: [level(ModelParams(1.0, float(lam)), int(n)) for n in ns]


def _order_columns(lam: float, values):
    """compute(n, alphas) of a table at one lambda, level rows, order
    columns: ``values(omega, cells, n)`` at the row's (lam, alpha) cells."""
    return lambda n, alphas: values(1.0, [(lam, float(a)) for a in alphas], int(n))


def _slacks(kind: str):
    return lambda omega, cells, n: [r.value for r in _xi_slacks(omega, cells, n, kind)]


def _sweep_row(lam: str, columns) -> list[float]:
    cells = [column.split("_n") for column in columns]  # e.g. "renyi_n0"
    return [entropy(ModelParams(1.0, float(lam)), int(n), 2.0, "momentum", k) for k, n in cells]


@dataclass(frozen=True)
class _TableDef:
    filename: str
    compute: object  # compute(row label, column labels) -> the row's values, labels as printed
    fixed_tolerance: float | None = None  # None: 1.5 units in the last printed digit
    gate_columns: tuple | None = None  # labels of the gating columns; None: all


def _defs() -> dict[str, _TableDef]:
    defs: dict[str, _TableDef] = {
        "energy": _TableDef("energy.csv", _lambda_rows(energy), 1e-5),
        "omega": _TableDef("omega.csv", _lambda_rows(effective_frequency), 1e-5),
        "mom_vs_lambda": _TableDef("momentum_vs_lambda.csv", _sweep_row, 1e-4),
        "xi_vs_lambda_a": _TableDef(
            "xi_renyi_vs_lambda.csv",
            _lambda_rows(lambda params, n: xi_renyi(params, n, 2.0).value),
            1e-5,
        ),
        "xi_vs_lambda_b": _TableDef(
            "xi_vs_lambda_b.csv",
            _lambda_rows(lambda params, n: xi_tsallis(params, n, 2.0 / 3.0).value),
            1e-5,
            gate_columns=(),
        ),
    }
    for kind in ("renyi", "tsallis"):
        for tag, space in (("pos", "position"), ("mom", "momentum")):
            for suffix, lam in (("h", 0.0), ("d", 0.4)):
                system = "harmonic" if suffix == "h" else "darboux"
                defs[f"{kind}_{tag}_{suffix}"] = _TableDef(
                    f"{kind}_{tag}_{system}.csv",
                    _order_columns(lam, partial(_entropies, space=space, kind=kind)),
                    1.5e-3,
                    gate_columns=("0.5", "2"),
                )
    for kind in ("renyi", "tsallis"):
        for suffix, lam in (("h", 0.0), ("d", 0.4)):
            system = "harmonic" if suffix == "h" else "darboux"
            defs[f"xi_{kind}_{suffix}"] = _TableDef(
                f"xi_{kind}_{system}.csv", _order_columns(lam, _slacks(kind))
            )
    return defs


_TABLES = _defs()
TABLE_IDS = tuple(_TABLES)


def load_reference(table_id: str):
    """(column labels, rows) of the packaged reference CSV; cells as text."""
    spec = _TABLES[table_id]
    path = resources.files("darboux3").joinpath("reference", spec.filename)
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    header, *rows = [line.split(",") for line in lines]
    return header, rows


def verify_table(table_id: str, tolerance_override: float | None = None) -> TableReport:
    """Recompute a reference table, one row per compute call, and compare
    every cell; a negative or non-finite tolerance raises ``ValueError``."""
    if table_id not in _TABLES:
        raise KeyError(f"unknown table id {table_id!r}; known: {', '.join(TABLE_IDS)}")
    if tolerance_override is not None and not 0.0 <= tolerance_override < math.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tolerance_override}")
    spec = _TABLES[table_id]
    header, rows = load_reference(table_id)
    cells: list[CellCheck] = []
    for row in rows:
        for col, text, computed in zip(header[1:], row[1:], spec.compute(row[0], header[1:])):
            if tolerance_override is not None:
                tol = tolerance_override
            elif spec.fixed_tolerance is not None:
                tol = spec.fixed_tolerance
            else:
                tol = _ulp_tolerance(text)
            cells.append(
                CellCheck(
                    row=row[0],
                    col=col,
                    reference_text=text,
                    computed=computed,
                    tolerance=tol,
                    gating=spec.gate_columns is None or col in spec.gate_columns,
                )
            )
    return TableReport(cells=cells)
