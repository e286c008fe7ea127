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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .compress import (SUPPORTED_BITS, Calibration, CompressionPass, DistillRef, Prune24,
                       PruneHeads, Quantize, apply_pass, compose)
from .distill import (METHOD_SEQKD, DistillConfig, check_shared_vocabulary, seqkd_corpus,
                      train_student, training_window)
from .errors import (DomainError, FormatError, ParseError, SourceError, StateError,
                     check_integer, check_string)
from .meter import (DEFAULT_CARBON_INTENSITY, DEFAULT_REPETITIONS, CounterFile,
                    EnergySource, PowerModel, SyntheticClock, carbon_estimate, measure)
from .model import (MIN_PPL_WINDOW, ModelConfig, TinyLM, _check_tokens, init_model, load_model,
                    perplexity, perplexity_window, save_model, tokenize)
from .scoring import (BUILTIN_PROFILES, QUALITY_EXPONENT, Direction,
                      MetricRecord, OptResult, ResourceRatios, WeightProfile,
                      check_quality_exponent, opt_score, profile_by_name,
                      rank_methods)

METRICS_HEADER = ["group", "metric", "direction", "random_floor", "base_value", "model_value"]
TIME_METRIC = "time_s"
ENERGY_METRIC = "energy_kwh"
RESERVED_METRICS = (TIME_METRIC, ENERGY_METRIC)

BASE_PIPELINE = "base"


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
        try:
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


def _check_unique(names, what: str) -> None:
    """Reject a repeated name, naming it."""
    seen = set()
    for name in names:
        if name in seen:
            raise DomainError(f"{what} must be unique: {name!r} is repeated")
        seen.add(name)


def score_report(measurements, profiles=BUILTIN_PROFILES,
                 exponent: float = QUALITY_EXPONENT) -> ScoreTable:
    """Score every method under every profile and rank them per profile."""
    methods = list(measurements)
    if not methods:
        raise DomainError("score_report needs at least one method")
    profs = tuple(profiles)
    if not profs:
        raise DomainError("score_report needs at least one weight profile")
    _check_unique((p.name for p in profs), "weight profile names")
    labels = [m.label for m in methods]
    _check_unique(labels, "method labels")

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

    def cut(self, corpus: np.ndarray, context_len: int) -> list[np.ndarray]:
        """Evenly spaced prompts, for a teacher of context_len tokens to continue."""
        if self.prompt_len + self.length > context_len:
            raise DomainError(f"seqkd prompt_len {self.prompt_len} plus length {self.length} "
                              f"exceeds context length {context_len}")
        if corpus.size < self.prompt_len:
            raise DomainError("corpus too short to cut seqkd prompts from")
        span = corpus.size - self.prompt_len
        starts = [(i * span) // max(1, self.prompts - 1) for i in range(self.prompts)]
        return [corpus[s:s + self.prompt_len] for s in starts]


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
    calibration: Calibration
    carbon_intensity: float
    quality_exponent: float


def _parse_profiles(entries) -> tuple[WeightProfile, ...]:
    """Profile entries, each a built-in name or {name, alpha, beta}; none means all built-ins."""
    if not isinstance(entries, list):
        raise DomainError("profiles must be a list")
    profiles = tuple(profile_by_name(e) if isinstance(e, str)
                     else _build(WeightProfile, e, f"profiles[{i}]")
                     for i, e in enumerate(entries))
    _check_unique((p.name for p in profiles), "weight profile names")
    return profiles or BUILTIN_PROFILES


def parse_suite_config(doc: dict) -> SuiteConfig:
    """Build and check every part of a suite, rejecting unknown keys, before any model is built."""
    _require_keys(doc, "config", {"model", "corpus", "pipelines"},
                  {"students", "repetitions", "energy_source", "profiles",
                   "perplexity", "calibration", "carbon_intensity_g_per_kwh",
                   "quality_exponent"})

    model = _parse_model_spec(doc["model"], "model")
    corpus_path = check_string(doc["corpus"], "corpus")

    students = doc.get("students", {})
    if not isinstance(students, dict):
        raise DomainError("students must be a JSON object")
    students = {sid: (_parse_model_spec if isinstance(spec, dict) and "path" in spec
                      else _parse_student)(spec, f"students[{sid!r}]")
                for sid, spec in students.items()}

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
        try:
            compose(passes)  # a distill pass must come first
            if passes and isinstance(passes[0], DistillRef) and passes[0].student not in students:
                raise DomainError(f"student {passes[0].student!r} is not defined in students")
        except DomainError as exc:
            raise DomainError(f"pipeline {p['name']!r}: {exc}") from exc
        pipelines.append(PipelineSpec(name=p["name"], passes=passes))
    _check_unique((p.name for p in pipelines), "pipeline names")
    base_like = [p for p in pipelines if p.name == BASE_PIPELINE]
    if len(base_like) != 1:
        raise DomainError(f"exactly one pipeline must be named {BASE_PIPELINE!r}")
    if base_like[0].passes:
        raise DomainError(f"the {BASE_PIPELINE!r} pipeline must have no passes")

    source_cls, source_args = _tagged(doc.get("energy_source", {"kind": "synthetic"}),
                                      "kind", _ENERGY_SOURCES, "energy_source")
    _build(source_cls, source_args, "energy_source")  # each run builds its own

    ppl = doc.get("perplexity", {})
    _require_keys(ppl, "perplexity", set(), {"window", "stride"})
    for key, value in ppl.items():
        check_integer(value, f"perplexity.{key}", MIN_PPL_WINDOW if key == "window" else 1)
    carbon = doc.get("carbon_intensity_g_per_kwh", DEFAULT_CARBON_INTENSITY)
    carbon_estimate(0.0, carbon)  # rejects a bad intensity before any measurement

    return SuiteConfig(
        raw=doc, model=model, corpus_path=corpus_path,
        pipelines=pipelines, students=students,
        repetitions=check_integer(doc.get("repetitions", DEFAULT_REPETITIONS), "repetitions"),
        energy_source=functools.partial(source_cls, **source_args),
        profiles=_parse_profiles(doc.get("profiles", [])),
        ppl_window=ppl.get("window"), ppl_stride=ppl.get("stride"),
        calibration=_build(Calibration, doc.get("calibration", {}), "calibration"),
        carbon_intensity=carbon,
        quality_exponent=check_quality_exponent(doc.get("quality_exponent", QUALITY_EXPONENT)),
    )


def _load_corpus(path, config: ModelConfig) -> np.ndarray:
    """The corpus file's tokens, at least 2 of them, each in config's vocabulary."""
    toks = tokenize(Path(path).read_bytes())
    if toks.size < 2:
        raise DomainError(f"corpus {path} holds fewer than 2 tokens")
    try:
        return _check_tokens(toks, config)
    except DomainError as exc:
        raise DomainError(f"corpus {path}: {exc}") from exc


def training_tokens(teacher: TinyLM, spec: StudentSpec, corpus: np.ndarray) -> np.ndarray:
    """The tokens a student trains on: the corpus, or for seqkd the teacher's continuations."""
    if spec.distill.method != METHOD_SEQKD:
        return corpus
    return seqkd_corpus(teacher, spec.seqkd.cut(corpus, teacher.config.context_len),
                        spec.seqkd.length)


def build_student(teacher: TinyLM, spec: StudentSpec, tokens: np.ndarray) -> TinyLM:
    """Distill one student from the teacher on its training tokens."""
    return train_student(teacher, spec.config, tokens, spec.distill, window=spec.window).student


# ---------------------------------------------------------------------------
# suite execution

@dataclass
class Report:
    """Result of one suite run; rows are JSON-ready dicts.

    Every pipeline has one row: pipeline, perplexity, time_s, energy_kwh,
    carbon_g and opt per profile.  table is the ScoreTable those opt values
    come from, base included; as_dict and json do not write it.
    """

    config_digest: str
    rows: list[dict] = field(default_factory=list)
    table: ScoreTable | None = None

    def as_dict(self) -> dict:
        return {"config_digest": self.config_digest, "rows": self.rows}

    def json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def config_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_RUN_ERRORS = (DomainError, FormatError, SourceError, StateError, OSError)


def run_suite(config: SuiteConfig) -> Report:
    """Measure every pipeline against the base model and score the results.

    The corpus is checked against the base model's vocabulary, and every
    student some pipeline distills to (a saved one loaded by its ModelSpec)
    is checked in id order with its vocabulary, calibration and perplexity
    window; a trained one also gets its training tokens (for seqkd, the
    teacher's continuations, decoded here once) and has its training window
    checked against their count, all before build_student trains any.
    Every pipeline is measured with the base model's perplexity window and
    stride, and one score_report call scores every row, base included,
    against the base row; the report keeps its ScoreTable.  Any failure ends
    the run with a DomainError naming the student or pipeline, so a report
    always holds a scored row for every pipeline.  With a synthetic energy
    source and a seeded model, repeat runs produce byte-identical reports.
    """
    base = config.model.build()
    corpus = _load_corpus(config.corpus_path, base.config)
    # checked against the base model before any student is trained
    calibration = config.calibration.cut(corpus, base.config.context_len)
    window, stride = perplexity_window(base.config.context_len,
                                       config.ppl_window, config.ppl_stride)

    # each used student (a pipeline's first pass, the only place compose accepts one)
    # and whether some pipeline prunes its heads, so probes it with the calibration
    probed: dict[str, bool] = {}
    for p in config.pipelines:
        if p.passes and isinstance(p.passes[0], DistillRef):
            sid = p.passes[0].student
            probed[sid] = probed.get(sid) or any(isinstance(ps, PruneHeads) for ps in p.passes)
    students, tokens = {}, {}
    for sid in sorted(probed):
        spec = config.students[sid]
        try:
            if isinstance(spec, ModelSpec):
                students[sid] = spec.build()
            student_config = students.get(sid, spec).config
            check_shared_vocabulary(base.config, student_config)
            if probed[sid]:
                config.calibration.cut(corpus, student_config.context_len)
            perplexity_window(student_config.context_len, window, stride)
            if isinstance(spec, StudentSpec):
                tokens[sid] = training_tokens(base, spec, corpus)
                training_window(base.config, spec.config, tokens[sid].size, spec.window)
        except _RUN_ERRORS as exc:
            raise DomainError(f"student {sid!r}: {exc}") from exc
    for sid, toks in tokens.items():
        students[sid] = build_student(base, config.students[sid], toks)

    source = config.energy_source()
    rows: list[dict] = []
    for p in config.pipelines:
        try:
            candidate = compose(p.passes, calibration=calibration, students=students)(base)
            holder: dict[str, float] = {}

            def work():
                holder["ppl"] = perplexity(candidate, corpus, window=window, stride=stride)

            rec = measure(source, work, repetitions=config.repetitions,
                          carbon_intensity=config.carbon_intensity)
        except _RUN_ERRORS as exc:
            raise DomainError(f"{p.name} pipeline failed: {exc}") from exc
        rows.append({"pipeline": p.name, "perplexity": holder["ppl"], "time_s": rec.wall_time_s,
                     "energy_kwh": rec.energy_kwh, "carbon_g": rec.carbon_g})

    base_row = next(r for r in rows if r["pipeline"] == BASE_PIPELINE)
    methods = []
    for row in rows:
        try:
            methods.append(MethodMeasurements(row["pipeline"], [MetricRecord(
                "perplexity", Direction.LOWER_BETTER, base_row["perplexity"], row["perplexity"])],
                ResourceRatios.from_measurements(base_row["time_s"], row["time_s"],
                                                 base_row["energy_kwh"], row["energy_kwh"])))
        except DomainError as exc:
            raise DomainError(f"{row['pipeline']} pipeline cannot be scored: {exc}") from exc
    table = score_report(methods, config.profiles, config.quality_exponent)
    for row in rows:
        row["opt"] = {name: _result_fields(r) for name, r in table.scores[row["pipeline"]].items()}
    return Report(config_digest=config_digest(config.raw), rows=rows, table=table)


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


def _cmd_run(args):
    report = run_suite(parse_suite_config(_load_json(args.config)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(report.json() + "\n")
    print(f"wrote {report_path}")

    metric_rows = report_metric_rows(report)
    if metric_rows:
        metrics_path = out_dir / "metrics.csv"
        write_metrics_csv(metric_rows, metrics_path)
        plot_path = out_dir / "plot.csv"
        emit_plot_data(replace(report.table, rankings={
            name: [m for m in order if m != BASE_PIPELINE]
            for name, order in report.table.rankings.items()}), plot_path)
        print(f"wrote {metrics_path}")
        print(f"wrote {plot_path}")
    else:
        print("no scoreable pipelines beyond base; skipped metrics and plot output")

    print(f"config digest {report.config_digest}")
    for r in report.rows:
        opts = " ".join(f"{name}={vals['opt']:.4f}" for name, vals in sorted(r["opt"].items()))
        print(f"  {r['pipeline']}: ppl={r['perplexity']:.4f} {opts}")


def _cmd_score(args):
    table = _score_table(args)
    text = json.dumps(table.as_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _cmd_rank(args):
    table = _score_table(args)
    for p in table.profiles:
        print(f"[{p.name}]")
        for i, label in enumerate(table.rankings[p.name], start=1):
            r = table.scores[label][p.name]
            print(f"  {i}. {label}  opt={r.opt:.6f}  "
                  f"quality={r.quality_factor:.6f} cost={r.cost_factor:.6f}")


def _cmd_perplexity(args):
    model = _model_from_args(args)
    corpus = _load_corpus(args.corpus, model.config)
    ppl = perplexity(model, corpus, window=args.window, stride=args.stride)
    print(f"perplexity {ppl!r} over {corpus.size} tokens")


def _cmd_quantize(args):
    report = apply_pass(_model_from_args(args), Quantize(args.bits))
    save_model(report.after, args.out)
    print(f"wrote {args.out} ({args.bits}-bit, max reconstruction error {report.max_error:.3e})")


def _cmd_prune24(args):
    report = apply_pass(_model_from_args(args), Prune24())
    save_model(report.after, args.out)
    print(f"wrote {args.out} (projection sparsity {report.sparsity:.3f})")


def _cmd_prune_heads(args):
    pruning = PruneHeads(args.threshold)  # checked before any file is written
    model = _model_from_args(args)
    corpus = _load_corpus(args.corpus, model.config)
    calibration = _build(Calibration, {"sequences": args.calib_sequences,
                                       "length": args.calib_length}, "calibration")
    report = apply_pass(model, pruning,
                        calibration=calibration.cut(corpus, model.config.context_len))
    if args.report:
        Path(args.report).write_text(json.dumps(report.concentration.as_dict(), indent=2,
                                                sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    if args.out:
        save_model(report.after, args.out)
        print(f"wrote {args.out}")
    print(f"pruned {report.heads_masked} of {int(model.head_mask.sum())} live heads "
          f"at threshold {args.threshold}")


def _cmd_distill(args):
    doc = _load_json(args.config)
    _require_keys(doc, "distill config", {"teacher", "corpus", "student"})
    student = _parse_student(doc["student"], "student")  # as a suite's students hold it
    corpus = check_string(doc["corpus"], "corpus")
    teacher = _parse_model_spec(doc["teacher"], "teacher").build()
    tokens = training_tokens(teacher, student, _load_corpus(corpus, teacher.config))
    save_model(build_student(teacher, student, tokens), args.out)
    print(f"wrote {args.out}")


def _cmd_plot_data(args):
    emit_plot_data(_score_table(args), args.out)
    print(f"wrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinklab",
        description="Compress tiny language models and score the quality/resource trade-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run a compression suite end to end")
    sp.add_argument("--config", required=True, help="suite config JSON")
    sp.add_argument("--out", required=True, help="output directory")
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
    sp.add_argument("--bits", type=int, required=True, help=f"one of {SUPPORTED_BITS}")
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
    sp.add_argument("--calib-sequences", type=int, default=Calibration.sequences)
    sp.add_argument("--calib-length", type=int, default=Calibration.length)
    sp.add_argument("--report", default=None, help="write concentration scores here")
    sp.add_argument("--out", default=None, help="write the masked model here")
    sp.set_defaults(func=_cmd_prune_heads)

    sp = sub.add_parser("distill", help="train a student model from a teacher")
    sp.add_argument("--config", required=True, help="distillation config JSON")
    sp.add_argument("--out", required=True, help="output student model file")
    sp.set_defaults(func=_cmd_distill)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _RUN_ERRORS + (ParseError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
