"""Suite configuration: the JSON grammar a suite file is written in, and a run's report.

parse_suite_config builds and checks every part of a suite before any model
is built; the suite runner itself is cli.run_suite.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .compress import (Calibration, CompressionPass, DistillRef, Prune24, PruneHeads, Quantize,
                       compose)
from .distill import METHOD_SEQKD, DistillConfig
from .errors import DomainError, ParseError, check_integer, check_string, named
from .meter import (DEFAULT_CARBON_INTENSITY, DEFAULT_REPETITIONS, CounterFile, EnergySource,
                    PowerModel, SyntheticClock, carbon_estimate)
from .model import (MIN_PPL_WINDOW, ModelConfig, TinyLM, _check_tokens, init_model, load_model,
                    tokenize)
from .scoring import (BUILTIN_PROFILES, QUALITY_EXPONENT, WeightProfile, check_quality_exponent,
                      profile_by_name)
from .tables import BASE_PIPELINE, ScoreTable, _check_unique, _read_text


# ---------------------------------------------------------------------------
# suite configuration

def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs, where json.loads would keep a repeated key's last value."""
    _check_unique((key for key, _ in pairs), "config keys")
    return dict(pairs)


def _load_json(path) -> dict:
    """A JSON config document; syntax errors become ParseError with the line."""
    text = _read_text(path)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}", line=exc.lineno) from exc
    except DomainError:
        raise
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
    with named(what):
        return cls(**obj)


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


def _parse_students(obj) -> dict[str, ModelSpec | StudentSpec]:
    """Students by id: a saved one carries 'path', a trained one 'config' and 'distill'."""
    if not isinstance(obj, dict):
        raise DomainError("students must be a JSON object")
    return {sid: (_parse_model_spec if isinstance(spec, dict) and "path" in spec
                  else _parse_student)(spec, f"students[{sid!r}]")
            for sid, spec in obj.items()}


def first_student(passes) -> str | None:
    """The student passes start from (compose accepts a distill pass first), or None."""
    return passes[0].student if passes and isinstance(passes[0], DistillRef) else None


def _check_pipeline(passes, students: dict, what: str) -> str | None:
    """The student passes start from, once compose accepts them and students defines it."""
    with named(what):
        compose(passes)
        if (sid := first_student(passes)) is not None and sid not in students:
            raise DomainError(f"student {sid!r} is not defined in students")
    return sid


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
    perplexity: tuple[int | None, int | None]  # window and stride, None where left out
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


def _parse_passes(obj, where: str = "") -> list[CompressionPass]:
    """The passes list of the object at where ('' for a document's top level), op by op."""
    if not isinstance(obj, list):
        raise DomainError(f"{where}: passes must be a list" if where else "passes must be a list")
    path = f"{where}.passes" if where else "passes"
    return [_build(*_tagged(ps, "op", _PASS_OPS, f"{path}[{j}]"), f"{path}[{j}]")
            for j, ps in enumerate(obj)]


def _parse_perplexity(obj) -> tuple[int | None, int | None]:
    """The perplexity block's window and stride, None where left out."""
    _require_keys(obj, "perplexity", set(), {"window", "stride"})
    for key, value in obj.items():
        check_integer(value, f"perplexity.{key}", MIN_PPL_WINDOW if key == "window" else 1)
    return obj.get("window"), obj.get("stride")


def parse_suite_config(doc: dict) -> SuiteConfig:
    """Build and check every part of a suite, rejecting unknown keys, before any model is built."""
    _require_keys(doc, "config", {"model", "corpus", "pipelines"},
                  {"students", "repetitions", "energy_source", "profiles",
                   "perplexity", "calibration", "carbon_intensity_g_per_kwh",
                   "quality_exponent"})

    model = _parse_model_spec(doc["model"], "model")
    corpus_path = check_string(doc["corpus"], "corpus")

    students = _parse_students(doc.get("students", {}))
    if not isinstance(doc["pipelines"], list) or not doc["pipelines"]:
        raise DomainError("pipelines must be a non-empty list")
    pipelines = []
    for i, p in enumerate(doc["pipelines"]):
        what = f"pipelines[{i}]"
        _require_keys(p, what, {"name", "passes"})
        name = check_string(p["name"], f"{what}.name")
        if name != name.strip():
            raise DomainError(f"{what}.name {name!r} starts or ends with whitespace, "
                              "which metrics.csv strips")
        passes = _parse_passes(p["passes"], what)
        _check_pipeline(passes, students, f"pipeline {name!r}")
        pipelines.append(PipelineSpec(name=name, passes=passes))
    _check_unique((p.name for p in pipelines), "pipeline names")
    base_like = [p for p in pipelines if p.name == BASE_PIPELINE]
    if len(base_like) != 1:
        raise DomainError(f"exactly one pipeline must be named {BASE_PIPELINE!r}")
    if base_like[0].passes:
        raise DomainError(f"the {BASE_PIPELINE!r} pipeline must have no passes")

    source_cls, source_args = _tagged(doc.get("energy_source", {"kind": "synthetic"}),
                                      "kind", _ENERGY_SOURCES, "energy_source")
    _build(source_cls, source_args, "energy_source")  # each run builds its own

    perplexity = _parse_perplexity(doc.get("perplexity", {}))
    carbon = doc.get("carbon_intensity_g_per_kwh", DEFAULT_CARBON_INTENSITY)
    carbon_estimate(0.0, carbon)  # rejects a bad intensity before any measurement

    return SuiteConfig(
        raw=doc, model=model, corpus_path=corpus_path,
        pipelines=pipelines, students=students, perplexity=perplexity,
        repetitions=check_integer(doc.get("repetitions", DEFAULT_REPETITIONS), "repetitions"),
        energy_source=functools.partial(source_cls, **source_args),
        profiles=_parse_profiles(doc.get("profiles", [])),
        calibration=_build(Calibration, doc.get("calibration", {}), "calibration"),
        carbon_intensity=carbon,
        quality_exponent=check_quality_exponent(doc.get("quality_exponent", QUALITY_EXPONENT)),
    )


def parse_compress_config(doc: dict):
    """A compress config's model spec, corpus path (None when left out), students, passes
    and calibration, each parsed as a suite's are, before any model is built."""
    _require_keys(doc, "compress config", {"model", "passes"},
                  {"corpus", "calibration", "students"})
    spec = _parse_model_spec(doc["model"], "model")
    corpus_path = check_string(doc["corpus"], "corpus") if "corpus" in doc else None
    students = _parse_students(doc.get("students", {}))
    passes = _parse_passes(doc["passes"])
    start = _check_pipeline(passes, students, "passes")
    calibration = _build(Calibration, doc.get("calibration", {}), "calibration")
    if corpus_path is None and any(isinstance(p, PruneHeads) for p in passes):
        raise DomainError("compress config: a prune_heads pass needs a corpus")
    if corpus_path is None and isinstance(students.get(start), StudentSpec):
        raise DomainError(f"compress config: a distill pass to trained student {start!r} "
                          "needs a corpus")
    return spec, corpus_path, students, passes, calibration


def _load_corpus(path, config: ModelConfig) -> np.ndarray:
    """The corpus file's tokens, at least 2 of them, each in config's vocabulary."""
    toks = tokenize(Path(path).read_bytes())
    if toks.size < 2:
        raise DomainError(f"corpus {path} holds fewer than 2 tokens")
    with named(f"corpus {path}"):
        return _check_tokens(toks, config)


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
