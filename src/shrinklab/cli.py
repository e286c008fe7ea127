"""Command-line harness: run compression suites, compress or evaluate one model, score
metric tables.

Each command reads its settings from a --config file holding some of a suite file's
keys, parsed by the functions that parse a suite (suite.py): run a whole suite,
perplexity its model, corpus and perplexity, compress its model, passes, corpus,
students and calibration, and score its profiles and quality_exponent.  run, compress
and perplexity build what their pipelines start from in pipeline_inputs.  score prints
each profile's ranking of a metrics table and writes the scored table as JSON (--out)
and as plot rows (--plot).  Argument parsing and the suite runner live here; the
metrics CSV and score tables are in tables.py.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .compress import Calibration, DistillRef, PruneHeads, apply_pass, compose
from .distill import (METHOD_SEQKD, check_shared_vocabulary, seqkd_corpus, train_student,
                      training_window)
from .errors import (DomainError, FormatError, ParseError, SourceError, StateError, check_number,
                     check_string, named)
from .meter import measure
from .model import TinyLM, perplexity, perplexity_plan, perplexity_window, save_model
from .scoring import (BUILTIN_PROFILES, QUALITY_EXPONENT, Direction, MetricRecord, OptResult,
                      ResourceRatios, check_quality_exponent, opt_score, rank_methods)
from .suite import (ModelSpec, Report, StudentSpec, SuiteConfig, _load_corpus, _load_json,
                    _parse_model_spec, _parse_perplexity, _parse_profiles, _require_keys,
                    config_digest, first_student, parse_compress_config, parse_suite_config)
from .tables import (BASE_PIPELINE, MethodMeasurements, ScoreTable, _check_unique, _result_fields,
                     emit_plot_data, ingest_metrics, report_metric_rows, write_metrics_csv)


# ---------------------------------------------------------------------------
# suite execution

def training_tokens(teacher: TinyLM, spec: StudentSpec, corpus: np.ndarray) -> np.ndarray:
    """The tokens a student trains on: the corpus, or for seqkd the teacher's continuations.

    The training window's range is checked before a seqkd decode, which it
    needs no tokens for, and against the tokens' count after it.
    """
    training_window(teacher.config, spec.config, None, spec.window)
    tokens = corpus if spec.distill.method != METHOD_SEQKD else seqkd_corpus(
        teacher, spec.seqkd.cut(corpus, teacher.config.context_len), spec.seqkd.length)
    training_window(teacher.config, spec.config, tokens.size, spec.window)
    return tokens


def build_student(teacher: TinyLM, spec: StudentSpec, tokens: np.ndarray) -> TinyLM:
    """Distill one student from the teacher on its training tokens."""
    return train_student(teacher, spec.config, tokens, spec.distill, window=spec.window).student


_RUN_ERRORS = (DomainError, FormatError, SourceError, StateError, OSError)


def pipeline_inputs(model: ModelSpec, corpus_path: str | None, pass_lists, specs: dict,
                    calibration: Calibration, perplexity_block=None):
    """The base model, its corpus, the calibration probes, the students that pipelines of
    pass_lists start from, and the perplexity window and stride; the corpus, probes and
    window are None without corpus_path, a list that prunes heads, or perplexity_block.
    The corpus is checked against the base model, then the base and each student a list
    starts from, in id order (a saved one loaded): a student's vocabulary, the calibration
    if a list prunes the model's heads, the window, and a trained student's training
    window and tokens (for seqkd, decoded here once).  Only then does build_student train.
    """
    base = model.build()
    corpus = None if corpus_path is None else _load_corpus(corpus_path, base.config)
    # the model each list starts from (None for the base): whether a list prunes its heads
    probed: dict[str | None, bool] = {None: False}
    for passes in pass_lists:
        start = first_student(passes)
        probed[start] = probed.get(start) or any(isinstance(p, PruneHeads) for p in passes)

    probes, window, students, tokens = None, perplexity_block, {}, {}
    for sid in [None, *sorted(probed.keys() - {None})]:
        spec = specs.get(sid)
        with named(f"student {sid!r}", _RUN_ERRORS) if sid else nullcontext():
            if isinstance(spec, ModelSpec):
                students[sid] = spec.build()
            start_config = students.get(sid, base if spec is None else spec).config
            check_shared_vocabulary(base.config, start_config)
            if probed[sid]:
                probes = calibration.cut(corpus, start_config.context_len)
            if window is not None:
                window = perplexity_window(start_config.context_len, *window)
            if isinstance(spec, StudentSpec):
                tokens[sid] = training_tokens(base, spec, corpus)
    for sid, toks in tokens.items():
        with named(f"student {sid!r}"):  # a diverged run
            students[sid] = build_student(base, specs[sid], toks)
    return base, corpus, probes, students, window


def run_suite(config: SuiteConfig) -> Report:
    """Measure every pipeline, started from pipeline_inputs, against the base model and
    score every row, base included, in one score_report call, whose ScoreTable the report
    keeps.  Any failure is a DomainError naming the student or pipeline.  With a synthetic
    energy source and a seeded model, repeat runs produce byte-identical reports.
    """
    base, corpus, calibration, students, (window, stride) = pipeline_inputs(
        config.model, config.corpus_path, [p.passes for p in config.pipelines],
        config.students, config.calibration, config.perplexity)

    source = config.energy_source()
    rows: list[dict] = []
    for p in config.pipelines:
        with named(f"{p.name} pipeline failed", _RUN_ERRORS):
            candidate = compose(p.passes, calibration=calibration, students=students)(base)
            holder: dict[str, float] = {}

            def work():
                holder["ppl"] = perplexity(candidate, corpus, window=window, stride=stride)

            rec = measure(source, work, repetitions=config.repetitions,
                          carbon_intensity=config.carbon_intensity)
        rows.append({"pipeline": p.name, "perplexity": holder["ppl"], "time_s": rec.wall_time_s,
                     "energy_kwh": rec.energy_kwh, "carbon_g": rec.carbon_g})

    base_row = next(r for r in rows if r["pipeline"] == BASE_PIPELINE)
    methods = []
    for row in rows:
        with named(f"{row['pipeline']} pipeline cannot be scored"):
            methods.append(MethodMeasurements(row["pipeline"], [MetricRecord(
                "perplexity", Direction.LOWER_BETTER, base_row["perplexity"], row["perplexity"])],
                ResourceRatios.from_measurements(base_row["time_s"], row["time_s"],
                                                 base_row["energy_kwh"], row["energy_kwh"])))
    table = score_report(methods, config.profiles, config.quality_exponent)
    for row in rows:
        row["opt"] = {name: _result_fields(r) for name, r in table.scores[row["pipeline"]].items()}
    return Report(config_digest=config_digest(config.raw), rows=rows, table=table)


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
            with named(f"{m.label} under profile {p.name}"):
                scores[m.label][p.name] = opt_score(m.records, m.ratios, p, exponent)
    rankings = {
        p.name: [label for label, _ in rank_methods(
            [(m.label, scores[m.label][p.name]) for m in methods]
        )]
        for p in profs
    }
    return ScoreTable(profiles=profs, methods=labels, scores=scores, rankings=rankings)


# ---------------------------------------------------------------------------
# command-line interface

def _check_out(args, *flags: str, directory: bool = False) -> None:
    """Fail, naming flag and path, unless each path the flags give can be written: as a
    file, or as a directory to make; and unless no two of them name the same file.  Each
    command checks every path it writes, in one call, before any other work."""
    given = [(flag, path) for flag in flags if (path := getattr(args, flag[2:])) is not None]
    for flag, path in given:
        out = Path(path)
        if directory and out.exists() and not out.is_dir():
            raise DomainError(f"{flag} {path} exists and is not a directory")
        if not directory and out.is_dir():
            raise DomainError(f"{flag} {path} is a directory")
        # a file needs its parent; a directory, its nearest existing ancestor
        nearest = next(p for p in (out, *out.parents) if p.exists()) if directory else out.parent
        if not nearest.is_dir():
            raise DomainError(f"{flag} {path}: {nearest} is not a directory")
    for (flag, path), (other, other_path) in combinations(given, 2):
        if Path(path).resolve() == Path(other_path).resolve():
            raise DomainError(f"{flag} {path} and {other} {other_path} name the same file")


def _cmd_run(args):
    _check_out(args, "--out", directory=True)
    out_dir = Path(args.out)
    report = run_suite(parse_suite_config(_load_json(args.config)))
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
    """Score the --metrics table under the --config file's profiles and quality_exponent,
    each read as parse_suite_config reads it; a key left out, or no file, means all
    built-in profiles or QUALITY_EXPONENT."""
    _check_out(args, "--out", "--plot")
    measurements = ingest_metrics(args.metrics)
    doc = _load_json(args.config) if args.config else {}
    _require_keys(doc, "score config", set(), {"profiles", "quality_exponent"})
    table = score_report(measurements, _parse_profiles(doc.get("profiles", [])),
                         check_quality_exponent(doc.get("quality_exponent", QUALITY_EXPONENT)))
    if args.out:
        Path(args.out).write_text(json.dumps(table.as_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.plot:
        emit_plot_data(table, args.plot)
        print(f"wrote {args.plot}")
    for p in table.profiles:
        print(f"[{p.name}]")
        for i, label in enumerate(table.rankings[p.name], start=1):
            r = table.scores[label][p.name]
            print(f"  {i}. {label}  opt={r.opt:.6f}  "
                  f"quality={r.quality_factor:.6f} cost={r.cost_factor:.6f}")


def _cmd_perplexity(args):
    doc = _load_json(args.config)
    _require_keys(doc, "perplexity config", {"model", "corpus"}, {"perplexity"})
    model, corpus, _, _, (window, stride) = pipeline_inputs(
        _parse_model_spec(doc["model"], "model"), check_string(doc["corpus"], "corpus"), [], {},
        Calibration(), _parse_perplexity(doc.get("perplexity", {})))
    ppl = check_number(perplexity(model, corpus, window=window, stride=stride),
                       "perplexity")  # nan when the float32 forward overflows
    scored = sum(n - row - 1 for _, n, row in perplexity_plan(corpus.size, window, stride))
    print(f"perplexity {ppl!r} over {scored} tokens")


def _cmd_compress(args):
    _check_out(args, "--report", "--out")
    doc = _load_json(args.config)
    spec, corpus_path, specs, passes, calibration = parse_compress_config(doc)
    model, _, probes, students, _ = pipeline_inputs(spec, corpus_path, [passes], specs,
                                                    calibration)
    rows = []
    for entry, p in zip(doc["passes"], passes):
        report = apply_pass(model, p, calibration=probes, students=students)
        model = report.after
        rows.append({"pass": entry, "sparsity": report.sparsity})
        if not isinstance(p, DistillRef):  # its student is another model, not a transform
            rows[-1].update(heads_masked=report.heads_masked, max_error=report.max_error)
        if report.concentration is not None:
            rows[-1]["concentration"] = report.concentration.as_dict()
    if args.report:
        Path(args.report).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    if args.out:
        save_model(model, args.out)
        print(f"wrote {args.out}")
    for j, row in enumerate(rows):
        did = (f"student {row['pass']['student']!r}" if "max_error" not in row else
               f"{row['heads_masked']} heads masked, "
               f"max reconstruction error {row['max_error']:.3e}")
        print(f"passes[{j}] {row['pass']['op']}: {did}, projection sparsity {row['sparsity']:.3f}")


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

    sp = sub.add_parser("score", help="score a metrics CSV and print each profile's ranking")
    sp.add_argument("--metrics", required=True, help="metrics CSV path")
    sp.add_argument("--config", default=None,
                    help="optional JSON with a suite config's profiles and quality_exponent")
    sp.add_argument("--out", default=None, help="write the scored table here as JSON")
    sp.add_argument("--plot", default=None, help="write flat per-profile opt rows here as CSV")
    sp.set_defaults(func=_cmd_score)

    sp = sub.add_parser("perplexity", help="perplexity of a model over a corpus")
    sp.add_argument("--config", required=True,
                    help="JSON with a suite config's model, corpus and perplexity")
    sp.set_defaults(func=_cmd_perplexity)

    sp = sub.add_parser("compress", help="run a pipeline's passes on a model and report each")
    sp.add_argument("--config", required=True, help="JSON with a suite config's model, "
                    "passes, corpus, students and calibration")
    sp.add_argument("--out", default=None, help="write the compressed model here")
    sp.add_argument("--report", default=None, help="write each pass's numbers here as JSON")
    sp.set_defaults(func=_cmd_compress)

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
