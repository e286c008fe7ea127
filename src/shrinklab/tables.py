"""Metrics tables: the metrics CSV, read and written, and per-profile score tables.

The metrics CSV schema is shared by bundled reference tables and by tables
derived from live runs:

    group,metric,direction,random_floor,base_value,model_value

One group per compared method.  direction is "lower" or "higher";
random_floor stays empty on lower-is-better rows.  Metric names time_s and
energy_kwh are reserved for the resource measurements every group must
carry; everything else is a quality metric.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError, ParseError, named
from .scoring import Direction, MetricRecord, OptResult, ResourceRatios, WeightProfile

if TYPE_CHECKING:
    from .suite import Report

METRICS_HEADER = ["group", "metric", "direction", "random_floor", "base_value", "model_value"]
TIME_METRIC = "time_s"
ENERGY_METRIC = "energy_kwh"
RESERVED_METRICS = (TIME_METRIC, ENERGY_METRIC)

BASE_PIPELINE = "base"


# ---------------------------------------------------------------------------
# metrics CSV

@dataclass
class MethodMeasurements:
    """One method's quality records and resource ratios against its base."""

    label: str
    records: list[MetricRecord]
    ratios: ResourceRatios


def _csv_number(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{what} must be a finite number, got {text!r}", line=line)
    return value


def _read_text(path) -> str:
    """A file's UTF-8 text; a byte that is not UTF-8 is a ParseError on its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start} is not UTF-8",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def ingest_metrics(path) -> list[MethodMeasurements]:
    """Read a metrics CSV into per-method measurements.

    Syntax errors raise ParseError with the line number; rows that parse but
    break a record rule, a random floor included, raise DomainError naming
    the group and metric.  Groups come back in first-appearance order.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("file is empty, expected a header row", line=1)
        if [h.strip() for h in header] != METRICS_HEADER:
            raise ParseError(
                f"header must be {','.join(METRICS_HEADER)}", line=reader.line_num
            )

        raw: dict[str, list[tuple]] = {}
        seen: set[tuple[str, str]] = set()
        for row in reader:
            line = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(METRICS_HEADER):
                raise ParseError(
                    f"expected {len(METRICS_HEADER)} fields, got {len(row)}", line=line
                )
            group, metric, direction_s, floor_s, base_s, model_s = (c.strip() for c in row)
            if not group or not metric:
                raise ParseError("group and metric must be non-empty", line=line)
            if direction_s not in ("lower", "higher"):
                raise ParseError(
                    f"direction must be 'lower' or 'higher', got {direction_s!r}", line=line
                )
            if (group, metric) in seen:
                raise ParseError(f"duplicate metric {metric!r} in group {group!r}", line=line)
            seen.add((group, metric))
            base_v = _csv_number(base_s, "base_value", line)
            model_v = _csv_number(model_s, "model_value", line)
            floor = _csv_number(floor_s, "random_floor", line) if floor_s else None
            raw.setdefault(group, []).append((metric, direction_s, floor, base_v, model_v))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None

    if not raw:
        raise ParseError("no data rows", line=2)

    out: list[MethodMeasurements] = []
    for group, rows in raw.items():
        resources: dict[str, tuple[float, float]] = {}
        records: list[MetricRecord] = []
        with named(f"group {group!r}"):
            for metric, direction_s, floor, base_v, model_v in rows:
                if metric not in RESERVED_METRICS:
                    records.append(MetricRecord(metric, Direction(direction_s),
                                                base_v, model_v, floor))
                elif direction_s != "lower" or floor is not None:
                    raise DomainError(f"{metric} must be lower-is-better, with no random floor")
                else:
                    resources[metric] = (base_v, model_v)
            for needed in RESERVED_METRICS:
                if needed not in resources:
                    raise DomainError(f"missing a {needed} row")
            if not records:
                raise DomainError("no quality metric rows")
            ratios = ResourceRatios.from_measurements(*resources[TIME_METRIC],
                                                      *resources[ENERGY_METRIC])
        out.append(MethodMeasurements(label=group, records=records, ratios=ratios))
    return out


def report_metric_rows(report: Report) -> list[list[str]]:
    """Metrics CSV rows (without header) derived from a suite report.

    Values keep full repr precision so scores recomputed from the CSV agree
    with the report to rounding error only.
    """
    base_row = next((r for r in report.rows if r["pipeline"] == BASE_PIPELINE), None)
    if base_row is None:
        raise DomainError("report has no usable base row")
    out = []
    for row in report.rows:
        if row is base_row:
            continue
        # report rows carry the metrics under their CSV names
        for metric in ("perplexity", TIME_METRIC, ENERGY_METRIC):
            out.append([row["pipeline"], metric, "lower", "",
                        repr(base_row[metric]), repr(row[metric])])
    return out


def write_metrics_csv(rows: list[list[str]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# scoring tables

def _result_fields(r: OptResult) -> dict:
    return {"quality_factor": r.quality_factor, "cost_factor": r.cost_factor, "opt": r.opt}


@dataclass
class ScoreTable:
    """All methods scored under all requested profiles, plus rankings."""

    profiles: tuple[WeightProfile, ...]
    methods: list[str]
    scores: dict[str, dict[str, OptResult]]
    rankings: dict[str, list[str]]

    def as_dict(self) -> dict:
        return {
            "profiles": [
                {"name": p.name, "alpha": p.alpha, "beta": p.beta} for p in self.profiles
            ],
            "methods": list(self.methods),
            "scores": {
                label: {pname: _result_fields(r) for pname, r in per_prof.items()}
                for label, per_prof in self.scores.items()
            },
            "rankings": {pname: list(order) for pname, order in self.rankings.items()},
        }


def _check_unique(names, what: str) -> None:
    """Reject a repeated name, naming it."""
    seen = set()
    for name in names:
        if name in seen:
            raise DomainError(f"{what} must be unique: {name!r} is repeated")
        seen.add(name)


def emit_plot_data(table: ScoreTable, path) -> None:
    """Write a flat method,profile,opt CSV for plotting.

    Rows are grouped by profile, each profile's methods in ranked order.
    An empty table raises before any file is touched.
    """
    if not table.methods:
        raise DomainError("nothing to emit: score table has no methods")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "profile", "opt"])
        for p in table.profiles:
            for label in table.rankings[p.name]:
                writer.writerow([label, p.name, repr(table.scores[label][p.name].opt)])
