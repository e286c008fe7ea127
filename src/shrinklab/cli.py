"""Command-line harness: run compression suites, score metric tables, emit plot data.

The metrics CSV schema is shared by bundled reference tables and by tables
derived from live runs:

    group,metric,direction,random_floor,base_value,model_value

One group per compared method.  direction is "lower" or "higher";
random_floor stays empty on lower-is-better rows.  Metric names time_s and
energy_kwh are reserved for the resource measurements every group must
carry; everything else is a quality metric.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import inspect
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .compress import (MIN_CALIBRATION_LEN, CompressionPass, DistillRef, Prune24,
                       PruneHeads, Quantize, compose, head_concentration,
                       prune_heads, prune_model_2_4, quantize_model)
from .distill import METHOD_SEQKD, DistillConfig, seqkd_corpus, train_student
from .errors import (DomainError, FormatError, ParseError, SourceError, StateError,
                     check_integer, check_number, check_string)
from .meter import (DEFAULT_CARBON_INTENSITY, DEFAULT_REPETITIONS, CounterFile,
                    EnergySource, PowerModel, SyntheticClock, carbon_estimate, measure)
from .model import (LINEAR_NAMES, MIN_PPL_WINDOW, ModelConfig, TinyLM, dense_weight,
                    init_model, load_model, param_tensors, perplexity, save_model,
                    tokenize)
from .scoring import (BUILTIN_PROFILES, QUALITY_EXPONENT, Direction,
                      MetricRecord, OptResult, ResourceRatios, WeightProfile,
                      check_quality_exponent, opt_score, profile_by_name,
                      rank_methods)

METRICS_HEADER = ["group", "metric", "direction", "random_floor", "base_value", "model_value"]
TIME_METRIC = "time_s"
ENERGY_METRIC = "energy_kwh"
RESERVED_METRICS = (TIME_METRIC, ENERGY_METRIC)

BASE_PIPELINE = "base"
# head-concentration calibration: the corpus's first 8 sequences of 32 tokens
CALIBRATION_SEQUENCES = 8
CALIBRATION_LENGTH = 32


# ---------------------------------------------------------------------------
# metrics ingestion

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

    Syntax problems raise ParseError with the line number; rows that parse
    but violate record invariants raise DomainError naming the record.
    Groups come back in first-appearance order.
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
            if direction_s == "lower":
                if floor_s:
                    raise ParseError(
                        "lower-is-better rows must leave random_floor empty", line=line
                    )
                floor = None
            else:
                floor = _csv_number(floor_s, "random_floor of a higher-is-better row", line)
            raw.setdefault(group, []).append((metric, direction_s, floor, base_v, model_v))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None

    if not raw:
        raise ParseError("no data rows", line=2)

    out: list[MethodMeasurements] = []
    for group, rows in raw.items():
        resources: dict[str, tuple[float, float]] = {}
        records: list[MetricRecord] = []
        try:
            for metric, direction_s, floor, base_v, model_v in rows:
                if metric not in RESERVED_METRICS:
                    records.append(MetricRecord(metric, Direction(direction_s),
                                                base_v, model_v, floor))
                elif direction_s != "lower":
                    raise DomainError(f"{metric} must be lower-is-better")
                else:
                    resources[metric] = (base_v, model_v)
            for needed in RESERVED_METRICS:
                if needed not in resources:
                    raise DomainError(f"missing a {needed} row")
            if not records:
                raise DomainError("no quality metric rows")
            ratios = ResourceRatios.from_measurements(*resources[TIME_METRIC],
                                                      *resources[ENERGY_METRIC])
        except DomainError as exc:
            raise type(exc)(f"group {group!r}: {exc}") from exc
        out.append(MethodMeasurements(label=group, records=records, ratios=ratios))
    return out


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


def score_report(measurements, profiles=BUILTIN_PROFILES,
                 exponent: float = QUALITY_EXPONENT) -> ScoreTable:
    """Score every method under every profile and rank them per profile."""
    methods = list(measurements)
    if not methods:
        raise DomainError("score_report needs at least one method")
    profs = tuple(profiles)
    if not profs:
        raise DomainError("score_report needs at least one weight profile")
    names = [p.name for p in profs]
    if len(set(names)) != len(names):
        raise DomainError("weight profile names must be unique")
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise DomainError("method labels must be unique")

    scores: dict[str, dict[str, OptResult]] = {}
    for m in methods:
        scores[m.label] = {}
        for p in profs:
            try:
                scores[m.label][p.name] = opt_score(m.records, m.ratios, p, exponent)
            except DomainError as exc:
                raise type(exc)(f"{m.label} under profile {p.name}: {exc}") from exc
    rankings = {
        p.name: [label for label, _ in rank_methods(
            [(m.label, scores[m.label][p.name]) for m in methods]
        )]
        for p in profs
    }
    return ScoreTable(profiles=profs, methods=labels, scores=scores, rankings=rankings)


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


# ---------------------------------------------------------------------------
# suite configuration

def _load_json(path) -> dict:
    """A JSON config document; syntax errors become ParseError with the line."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too-deep nesting
        raise ParseError(f"config JSON cannot be read: {exc}", line=1) from exc
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    return doc


def _require_keys(obj, what: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise DomainError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise DomainError(f"{what}: missing keys {sorted(missing)}")


def _build(cls, obj, what: str):
    """cls made by keyword from a JSON object whose keys are its parameter names.

    Parameters with a default are optional keys; keyword-only ones (a meter's
    clock) are not config.  Only the constructor's own checks see the values.
    """
    params = [p for p in inspect.signature(cls).parameters.values()
              if p.kind is p.POSITIONAL_OR_KEYWORD]
    _require_keys(obj, what, {p.name for p in params if p.default is p.empty},
                  {p.name for p in params if p.default is not p.empty})
    try:
        return cls(**obj)
    except DomainError as exc:
        raise type(exc)(f"{what}: {exc}") from exc


def _tagged(obj, tag: str, kinds: dict, what: str):
    """The class a JSON object names under its tag key, and the object's other keys."""
    kind = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"{what}: {tag} must be one of {sorted(kinds)}, got {kind!r}")
    return kinds[kind], {k: v for k, v in obj.items() if k != tag}


_PASS_OPS = {"quantize": Quantize, "prune_heads": PruneHeads, "prune_2_4": Prune24,
             "distill": DistillRef}
_ENERGY_SOURCES = {cls.kind: cls for cls in (SyntheticClock, PowerModel, CounterFile)}


@dataclass(frozen=True)
class ModelSpec:
    """A saved model to load (path), or a fresh one to init (config and seed)."""

    path: str | None = None
    config: ModelConfig | None = None
    seed: int | None = None

    def build(self) -> TinyLM:
        return load_model(self.path) if self.path else init_model(self.config, seed=self.seed)


def _parse_model_spec(obj, what: str) -> ModelSpec:
    """A model spec carries 'path' to a saved model, or 'config' and an optional 'seed'."""
    if not isinstance(obj, dict) or ("path" in obj) == ("config" in obj):
        raise DomainError(f"{what} must carry either 'path' or 'config' (with optional 'seed')")
    if "path" in obj:
        _require_keys(obj, what, {"path"})
        return ModelSpec(path=check_string(obj["path"], f"{what}.path"))
    _require_keys(obj, what, {"config"}, {"seed"})
    return ModelSpec(config=_build(ModelConfig, obj["config"], f"{what}.config"),
                     seed=check_integer(obj.get("seed", 0), f"{what}.seed", minimum=0))


@dataclass(frozen=True)
class SeqkdPrompts:
    """How a seqkd student's data is made: corpus prompts that the teacher continues."""

    prompts: int = 12
    prompt_len: int = 8
    length: int = 24

    def __post_init__(self):
        for f in fields(self):
            check_integer(getattr(self, f.name), f.name)


@dataclass(frozen=True)
class StudentSpec:
    """A student to distill from the base model."""

    config: ModelConfig
    distill: DistillConfig
    window: int | None
    seqkd: SeqkdPrompts


def _parse_student(obj, what: str) -> StudentSpec:
    """A trained student carries 'config' and 'distill', optionally 'window' and 'seqkd'."""
    _require_keys(obj, what, {"config", "distill"}, {"window", "seqkd"})
    distill = _build(DistillConfig, obj["distill"], f"{what}.distill")
    if "seqkd" in obj and distill.method != METHOD_SEQKD:
        raise DomainError(f"{what}: seqkd is read only by method 'seqkd', not {distill.method!r}")
    return StudentSpec(
        config=_build(ModelConfig, obj["config"], f"{what}.config"), distill=distill,
        window=check_integer(obj["window"], f"{what}.window") if "window" in obj else None,
        seqkd=_build(SeqkdPrompts, obj.get("seqkd", {}), f"{what}.seqkd"))


@dataclass
class PipelineSpec:
    name: str
    passes: list[CompressionPass]


@dataclass
class SuiteConfig:
    """Everything a suite run is built from, each part already checked."""

    raw: dict
    model: ModelSpec
    corpus_path: str
    pipelines: list[PipelineSpec]
    students: dict[str, ModelSpec | StudentSpec]
    repetitions: int
    # a fresh source for each run: a synthetic clock's script position is run state
    energy_source: Callable[[], EnergySource]
    profiles: tuple[WeightProfile, ...]
    ppl_window: int | None
    ppl_stride: int | None
    calibration_sequences: int
    calibration_length: int
    carbon_intensity: float
    quality_exponent: float


def _parse_profiles(entries) -> tuple[WeightProfile, ...]:
    """Profile entries, each a built-in name or {name, alpha, beta}; none means all built-ins."""
    if not isinstance(entries, list):
        raise DomainError("profiles must be a list")
    return tuple(profile_by_name(e) if isinstance(e, str) else _build(WeightProfile, e, "profile")
                 for e in entries) or BUILTIN_PROFILES


def parse_suite_config(doc: dict) -> SuiteConfig:
    """Build and check every part of a suite, rejecting unknown keys, before any model is built."""
    _require_keys(doc, "config", {"model", "corpus", "pipelines"},
                  {"students", "repetitions", "energy_source", "profiles",
                   "perplexity", "calibration", "carbon_intensity_g_per_kwh",
                   "quality_exponent"})

    model = _parse_model_spec(doc["model"], "model")
    corpus_path = check_string(doc["corpus"], "corpus")

    if not isinstance(doc["pipelines"], list) or not doc["pipelines"]:
        raise DomainError("pipelines must be a non-empty list")
    pipelines = []
    for i, p in enumerate(doc["pipelines"]):
        what = f"pipelines[{i}]"
        _require_keys(p, what, {"name", "passes"})
        check_string(p["name"], f"{what}.name")
        if not isinstance(p["passes"], list):
            raise DomainError(f"{what}: passes must be a list")
        passes = [_build(*_tagged(ps, "op", _PASS_OPS, f"{what}.passes[{j}]"),
                         f"{what}.passes[{j}]") for j, ps in enumerate(p["passes"])]
        pipelines.append(PipelineSpec(name=p["name"], passes=passes))
    names = [p.name for p in pipelines]
    if len(set(names)) != len(names):
        raise DomainError("pipeline names must be unique")
    base_like = [p for p in pipelines if p.name == BASE_PIPELINE]
    if len(base_like) != 1:
        raise DomainError(f"exactly one pipeline must be named {BASE_PIPELINE!r}")
    if base_like[0].passes:
        raise DomainError(f"the {BASE_PIPELINE!r} pipeline must have no passes")

    students = doc.get("students", {})
    if not isinstance(students, dict):
        raise DomainError("students must be a JSON object")
    students = {sid: (_parse_model_spec if isinstance(spec, dict) and "path" in spec
                      else _parse_student)(spec, f"students[{sid!r}]")
                for sid, spec in students.items()}

    source_cls, source_args = _tagged(doc.get("energy_source", {"kind": "synthetic"}),
                                      "kind", _ENERGY_SOURCES, "energy_source")
    _build(source_cls, source_args, "energy_source")  # each run builds its own

    ppl = doc.get("perplexity", {})
    _require_keys(ppl, "perplexity", set(), {"window", "stride"})
    for key, value in ppl.items():
        check_integer(value, f"perplexity.{key}", MIN_PPL_WINDOW if key == "window" else 1)
    calib = doc.get("calibration", {})
    _require_keys(calib, "calibration", set(), {"sequences", "length"})
    calib_sequences, calib_length = _check_calibration(
        calib.get("sequences", CALIBRATION_SEQUENCES), calib.get("length", CALIBRATION_LENGTH))
    carbon = check_number(doc.get("carbon_intensity_g_per_kwh", DEFAULT_CARBON_INTENSITY),
                          "carbon_intensity_g_per_kwh")
    carbon_estimate(0.0, carbon)  # rejects a negative intensity before any measurement

    return SuiteConfig(
        raw=doc, model=model, corpus_path=corpus_path,
        pipelines=pipelines, students=students,
        repetitions=check_integer(doc.get("repetitions", DEFAULT_REPETITIONS), "repetitions"),
        energy_source=functools.partial(source_cls, **source_args),
        profiles=_parse_profiles(doc.get("profiles", [])),
        ppl_window=ppl.get("window"), ppl_stride=ppl.get("stride"),
        calibration_sequences=calib_sequences, calibration_length=calib_length,
        carbon_intensity=carbon,
        quality_exponent=check_quality_exponent(doc.get("quality_exponent", QUALITY_EXPONENT)),
    )


def _load_corpus(path) -> np.ndarray:
    toks = tokenize(Path(path).read_bytes())
    if toks.size < 2:
        raise DomainError(f"corpus {path} holds fewer than 2 tokens")
    return toks


def _check_calibration(sequences, length) -> tuple[int, int]:
    """At least one calibration sequence, each long enough to hold an eligible query."""
    return (check_integer(sequences, "calibration.sequences"),
            check_integer(length, "calibration.length", minimum=MIN_CALIBRATION_LEN))


def _calibration(corpus: np.ndarray, sequences: int, length: int) -> list[np.ndarray]:
    """The corpus's first sequences x length tokens, cut into calibration sequences."""
    need = sequences * length
    if corpus.size < need:
        raise DomainError(
            f"corpus of {corpus.size} tokens cannot supply {need} calibration tokens"
        )
    return [corpus[i * length:(i + 1) * length] for i in range(sequences)]


def build_student(teacher: TinyLM, spec: ModelSpec | StudentSpec,
                  corpus: np.ndarray) -> TinyLM:
    """Build one student: load a saved one, or distill it from the teacher."""
    if isinstance(spec, ModelSpec):
        return spec.build()
    train_corpus = corpus
    if spec.distill.method == "seqkd":
        sk = spec.seqkd
        if corpus.size < sk.prompt_len:
            raise DomainError("corpus too short to cut seqkd prompts from")
        span = corpus.size - sk.prompt_len
        starts = [(i * span) // max(1, sk.prompts - 1) for i in range(sk.prompts)]
        prompts = [corpus[s:s + sk.prompt_len] for s in starts]
        train_corpus = seqkd_corpus(teacher, prompts, sk.length, mode="greedy",
                                    seed=spec.distill.seed)
    return train_student(teacher, spec.config, train_corpus, spec.distill,
                         window=spec.window).student


# ---------------------------------------------------------------------------
# suite execution

@dataclass
class Report:
    """Result of one suite run; rows are JSON-ready dicts.

    A row is either a full measurement (pipeline, perplexity, time_s,
    energy_kwh, carbon_g, opt per profile) or a failure (pipeline, error).
    """

    config_digest: str
    rows: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"config_digest": self.config_digest, "rows": self.rows}

    def json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def config_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_ROW_ERRORS = (DomainError, FormatError, SourceError, StateError, OSError)


def run_suite(config: SuiteConfig) -> Report:
    """Measure every pipeline against the base model and score the results.

    Only students that some pipeline distills to are built.  A pipeline that
    fails to build, measure or score, or whose student failed to build,
    contributes an error row and the suite moves on; a failing base pipeline
    is fatal since nothing can be scored without it.  With a synthetic energy
    source and a seeded model, repeat runs produce byte-identical reports.
    """
    corpus = _load_corpus(config.corpus_path)
    base = config.model.build()

    def student_ids(passes) -> set[str]:
        return {ps.student for ps in passes if isinstance(ps, DistillRef)}

    used = set().union(*(student_ids(p.passes) for p in config.pipelines))
    students, student_errors = {}, {}
    for sid in sorted(used & set(config.students)):
        try:
            students[sid] = build_student(base, config.students[sid], corpus)
        except _ROW_ERRORS as exc:
            student_errors[sid] = f"student {sid!r} failed to build: {exc}"

    calibration = _calibration(corpus, config.calibration_sequences,
                               config.calibration_length)

    source = config.energy_source()
    measured: list[dict] = []
    for p in config.pipelines:
        failed = sorted(student_ids(p.passes) & set(student_errors))
        if failed:
            measured.append({"pipeline": p.name, "error": student_errors[failed[0]]})
            continue
        try:
            transform = compose(p.passes, calibration=calibration, students=students)
            candidate = transform(base)
            holder: dict[str, float] = {}

            def work():
                holder["ppl"] = perplexity(candidate, corpus,
                                           window=config.ppl_window,
                                           stride=config.ppl_stride)

            rec = measure(source, work, repetitions=config.repetitions,
                          carbon_intensity=config.carbon_intensity)
            measured.append({
                "pipeline": p.name, "perplexity": holder["ppl"],
                "time_s": rec.wall_time_s, "energy_kwh": rec.energy_kwh,
                "carbon_g": rec.carbon_g,
            })
        except _ROW_ERRORS as exc:
            measured.append({"pipeline": p.name, "error": str(exc)})

    base_row = next(r for r in measured if r["pipeline"] == BASE_PIPELINE)
    if "error" in base_row:
        raise DomainError(f"base pipeline failed: {base_row['error']}")

    for i, row in enumerate(measured):
        if "error" in row:
            continue
        try:
            ratios = ResourceRatios.from_measurements(
                base_row["time_s"], row["time_s"],
                base_row["energy_kwh"], row["energy_kwh"],
            )
            quality = [MetricRecord("perplexity", Direction.LOWER_BETTER,
                                    base_row["perplexity"], row["perplexity"])]
            row["opt"] = {
                prof.name: _result_fields(opt_score(quality, ratios, prof,
                                                    config.quality_exponent))
                for prof in config.profiles
            }
        except DomainError as exc:
            if row is base_row:
                raise DomainError(f"base pipeline cannot be scored: {exc}") from exc
            measured[i] = {"pipeline": row["pipeline"], "error": f"cannot be scored: {exc}"}
    return Report(config_digest=config_digest(config.raw), rows=measured)


def report_metric_rows(report: Report) -> list[list[str]]:
    """Metrics CSV rows (without header) derived from a suite report.

    Values keep full repr precision so scores recomputed from the CSV agree
    with the report to rounding error only.
    """
    base_row = next((r for r in report.rows if r["pipeline"] == BASE_PIPELINE), None)
    if base_row is None or "error" in base_row:
        raise DomainError("report has no usable base row")
    out = []
    for row in report.rows:
        if row["pipeline"] == BASE_PIPELINE or "error" in row:
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
# command-line interface

def _add_model_source_args(sp):
    sp.add_argument("--model", help="model file to load")
    sp.add_argument("--seed", type=int, default=None,
                    help="init a fresh model from this seed instead of loading one")
    sp.add_argument("--arch", default="2,4,64,256",
                    help="fresh-model shape: layers,heads,d_model,d_ff[,vocab,context]")


def _model_from_args(args) -> TinyLM:
    """The model --model or --seed/--arch name, built from the spec a config file would hold."""
    if (args.model is None) == (args.seed is None):
        raise DomainError("give either --model FILE or --seed N")
    if args.model is not None:
        spec = {"path": args.model}
    else:
        parts = [p.strip() for p in args.arch.split(",")]
        if len(parts) not in (4, 6):
            raise DomainError("--arch needs 4 or 6 comma-separated integers")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise DomainError("--arch fields must be integers") from None
        spec = {"config": dict(zip([f.name for f in fields(ModelConfig)], nums)),
                "seed": args.seed}
    return _parse_model_spec(spec, "model").build()


def _profile_entries(args) -> list:
    """The --profile flags as the profile entries a config file would hold."""
    entries = []
    for text in args.profile or ():
        if "," not in text:
            entries.append(text)
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise DomainError("custom profile must be alpha,beta")
        try:
            alpha, beta = float(parts[0]), float(parts[1])
        except ValueError:
            raise DomainError("custom profile weights must be numbers") from None
        entries.append({"name": text, "alpha": alpha, "beta": beta})
    return entries


def _parse_energy_source_flag(text: str):
    if text == "synthetic":
        return {"kind": "synthetic"}
    if text.startswith("power:"):
        try:
            watts = float(text.split(":", 1)[1])
        except ValueError:
            raise DomainError("--energy-source power:<watts> needs a number") from None
        return {"kind": "power", "watts": watts}
    if text.startswith("counter:"):
        rest = text.split(":", 1)[1]
        if "," not in rest:
            raise DomainError("--energy-source counter:<path>,<wrap_max>")
        p, wrap_s = rest.rsplit(",", 1)
        try:
            wrap = int(wrap_s)
        except ValueError:
            raise DomainError("counter wrap_max must be an integer") from None
        return {"kind": "counter", "path": p, "wrap_max_microjoules": wrap}
    raise DomainError(f"unknown energy source {text!r}")


def _score_table(args) -> ScoreTable:
    """The --metrics table scored under the --profile flags and the --config exponent."""
    measurements = ingest_metrics(args.metrics)
    profiles = _parse_profiles(_profile_entries(args))
    exponent = QUALITY_EXPONENT
    if args.config:
        doc = _load_json(args.config)
        _require_keys(doc, "score config", set(), {"quality_exponent"})
        exponent = check_quality_exponent(doc.get("quality_exponent", exponent))
    return score_report(measurements, profiles=profiles, exponent=exponent)


def _cmd_run(args) -> int:
    # flags are written into the document, so they are validated and digested
    # exactly as the same values in the config file would be
    doc = _load_json(args.config)
    if args.reps is not None:
        doc["repetitions"] = args.reps
    if args.profile:
        doc["profiles"] = _profile_entries(args)
    if args.energy_source:
        doc["energy_source"] = _parse_energy_source_flag(args.energy_source)
    if args.seed is not None and isinstance(doc.get("model"), dict):
        doc["model"] = dict(doc["model"], seed=args.seed)
    config = parse_suite_config(doc)

    report = run_suite(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(report.json() + "\n")
    print(f"wrote {report_path}")

    metric_rows = report_metric_rows(report)
    if metric_rows:
        metrics_path = out_dir / "metrics.csv"
        write_metrics_csv(metric_rows, metrics_path)
        table = score_report(ingest_metrics(metrics_path),
                             profiles=config.profiles,
                             exponent=config.quality_exponent)
        plot_path = out_dir / "plot.csv"
        emit_plot_data(table, plot_path)
        print(f"wrote {metrics_path}")
        print(f"wrote {plot_path}")
    else:
        print("no scoreable pipelines beyond base; skipped metrics and plot output")

    print(f"config digest {report.config_digest}")
    for r in report.rows:
        if "error" in r:
            print(f"  {r['pipeline']}: FAILED ({r['error']})")
        else:
            opts = " ".join(
                f"{name}={vals['opt']:.4f}" for name, vals in sorted(r["opt"].items())
            )
            print(f"  {r['pipeline']}: ppl={r['perplexity']:.4f} {opts}")
    return 1 if any("error" in r for r in report.rows) else 0


def _cmd_score(args) -> int:
    table = _score_table(args)
    text = json.dumps(table.as_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_rank(args) -> int:
    table = _score_table(args)
    for p in table.profiles:
        print(f"[{p.name}]")
        for i, label in enumerate(table.rankings[p.name], start=1):
            r = table.scores[label][p.name]
            print(f"  {i}. {label}  opt={r.opt:.6f}  "
                  f"quality={r.quality_factor:.6f} cost={r.cost_factor:.6f}")
    return 0


def _cmd_perplexity(args) -> int:
    model = _model_from_args(args)
    corpus = _load_corpus(args.corpus)
    ppl = perplexity(model, corpus, window=args.window, stride=args.stride)
    print(f"perplexity {ppl!r} over {corpus.size} tokens")
    return 0


def _cmd_quantize(args) -> int:
    model = _model_from_args(args)
    quantized = quantize_model(model, args.bits)
    worst = 0.0
    for (_, orig), (_, q) in zip(param_tensors(model), param_tensors(quantized)):
        if not isinstance(q, np.ndarray):
            err = np.abs(dense_weight(orig, np.float64) - q.dense(np.float64)).max()
            worst = max(worst, float(err))
    save_model(quantized, args.out)
    print(f"wrote {args.out} ({args.bits}-bit, max reconstruction error {worst:.3e})")
    return 0


def _cmd_prune24(args) -> int:
    model = _model_from_args(args)
    pruned = prune_model_2_4(model)
    zeros = total = 0
    for name, t in param_tensors(pruned):
        if name.split(".")[-1] in LINEAR_NAMES:
            arr = dense_weight(t)
            zeros += int((arr == 0).sum())
            total += arr.size
    save_model(pruned, args.out)
    print(f"wrote {args.out} (projection sparsity {zeros / total:.3f})")
    return 0


def _cmd_prune_heads(args) -> int:
    model = _model_from_args(args)
    corpus = _load_corpus(args.corpus)
    report = head_concentration(model, _calibration(
        corpus, *_check_calibration(args.calib_sequences, args.calib_length)))
    if args.report:
        Path(args.report).write_text(json.dumps(report.as_dict(), indent=2,
                                                sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    pruned = prune_heads(model, report, args.threshold)
    dropped = int(model.head_mask.sum() - pruned.head_mask.sum())
    if args.out:
        save_model(pruned, args.out)
        print(f"wrote {args.out}")
    print(f"pruned {dropped} of {int(model.head_mask.sum())} live heads "
          f"at threshold {args.threshold}")
    return 0


def _cmd_distill(args) -> int:
    doc = _load_json(args.config)
    _require_keys(doc, "distill config", {"teacher", "corpus", "student"},
                  {"window", "seqkd"})
    # the top-level window and seqkd belong to the student spec, and so does --seed
    spec = doc["student"]
    if isinstance(spec, dict):
        twice = sorted(k for k in ("window", "seqkd") if k in doc and k in spec)
        if twice:
            raise DomainError(f"distill config: {twice} given both at the top level and in student")
        spec = dict(spec, **{k: doc[k] for k in ("window", "seqkd") if k in doc})
        if args.seed is not None and isinstance(spec.get("distill"), dict):
            spec["distill"] = dict(spec["distill"], seed=args.seed)
    student = _parse_student(spec, "student")
    teacher = _parse_model_spec(doc["teacher"], "teacher")
    corpus = check_string(doc["corpus"], "corpus")
    save_model(build_student(teacher.build(), student, _load_corpus(corpus)), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    emit_plot_data(_score_table(args), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinklab",
        description="Compress tiny language models and score the quality/resource trade-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run a compression suite end to end")
    sp.add_argument("--config", required=True, help="suite config JSON")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--reps", type=int, default=None,
                    help=f"override repetitions (config default {DEFAULT_REPETITIONS})")
    sp.add_argument("--seed", type=int, default=None, help="override fresh-model seed")
    sp.add_argument("--profile", action="append",
                    help="weight profile name or alpha,beta; repeatable")
    sp.add_argument("--energy-source", default=None,
                    help="synthetic | power:<watts> | counter:<path>,<wrap_max>")
    sp.set_defaults(func=_cmd_run)

    for name, func, help_text in (
        ("score", _cmd_score, "score a metrics CSV and print the table"),
        ("rank", _cmd_rank, "score a metrics CSV and print rankings"),
        ("plot-data", _cmd_plot_data, "emit flat per-profile opt rows for plotting"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--metrics", required=True, help="metrics CSV path")
        sp.add_argument("--profile", action="append",
                        help="weight profile name or alpha,beta; repeatable")
        sp.add_argument("--config", default=None,
                        help="optional JSON with quality_exponent override")
        if name == "score":
            sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        elif name == "plot-data":
            sp.add_argument("--out", required=True, help="output CSV path")
        sp.set_defaults(func=func)

    sp = sub.add_parser("perplexity", help="perplexity of a model over a corpus")
    _add_model_source_args(sp)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--window", type=int, default=None)
    sp.add_argument("--stride", type=int, default=None)
    sp.set_defaults(func=_cmd_perplexity)

    sp = sub.add_parser("quantize", help="quantize a model's linear projections")
    _add_model_source_args(sp)
    sp.add_argument("--bits", type=int, required=True, choices=(4, 8))
    sp.add_argument("--out", required=True, help="output model file")
    sp.set_defaults(func=_cmd_quantize)

    sp = sub.add_parser("prune-24", help="apply 2:4 sparsity to linear projections")
    _add_model_source_args(sp)
    sp.add_argument("--out", required=True, help="output model file")
    sp.set_defaults(func=_cmd_prune24)

    sp = sub.add_parser("prune-heads", help="mask over-concentrated attention heads")
    _add_model_source_args(sp)
    sp.add_argument("--corpus", required=True, help="calibration text")
    sp.add_argument("--threshold", type=float, required=True)
    sp.add_argument("--calib-sequences", type=int, default=CALIBRATION_SEQUENCES)
    sp.add_argument("--calib-length", type=int, default=CALIBRATION_LENGTH)
    sp.add_argument("--report", default=None, help="write concentration scores here")
    sp.add_argument("--out", default=None, help="write the masked model here")
    sp.set_defaults(func=_cmd_prune_heads)

    sp = sub.add_parser("distill", help="train a student model from a teacher")
    sp.add_argument("--config", required=True, help="distillation config JSON")
    sp.add_argument("--out", required=True, help="output student model file")
    sp.add_argument("--seed", type=int, default=None, help="override training seed")
    sp.set_defaults(func=_cmd_distill)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ROW_ERRORS + (ParseError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
