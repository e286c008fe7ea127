"""Command-line harness: run compression suites, compress or evaluate one model, score
metric tables, emit plot data.

Each command reads its settings from a --config file holding some of a suite file's
keys, parsed by the functions that parse a suite (suite.py): run a whole suite,
perplexity its model, corpus and perplexity, compress its model, passes, corpus and
calibration, and score, rank and plot-data its profiles and quality_exponent.
Argument parsing and the suite runner live here; the metrics CSV and score tables are
in tables.py.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .compress import Calibration, DistillRef, PruneHeads, apply_pass, compose
from .distill import (METHOD_SEQKD, check_shared_vocabulary, seqkd_corpus, train_student,
                      training_window)
from .errors import (DomainError, FormatError, ParseError, SourceError, StateError, check_number,
                     check_string)
from .meter import measure
from .model import TinyLM, perplexity, perplexity_plan, perplexity_window, save_model
from .scoring import (BUILTIN_PROFILES, QUALITY_EXPONENT, Direction, MetricRecord, OptResult,
                      ResourceRatios, check_quality_exponent, opt_score, rank_methods)
from .suite import (ModelSpec, Report, StudentSpec, SuiteConfig, _build, _load_corpus, _load_json,
                    _parse_model_spec, _parse_passes, _parse_perplexity, _parse_profiles,
                    _parse_student, _require_keys, config_digest, parse_suite_config)
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


def run_suite(config: SuiteConfig) -> Report:
    """Measure every pipeline against the base model and score the results.

    The corpus is checked against the base model's vocabulary.  The
    calibration is cut only when some pipeline prunes heads, and is checked
    against the context of each model such a pipeline starts from.  Every
    student some pipeline distills to (a saved one loaded by its ModelSpec)
    is checked in id order with its vocabulary, calibration and perplexity
    window; a trained one has its training window checked against both
    contexts, then gets its training tokens (for seqkd, the teacher's
    continuations, decoded here once) and has the window checked against
    their count, all before build_student trains any.
    Every pipeline is measured with the base model's perplexity window and
    stride, and one score_report call scores every row, base included,
    against the base row; the report keeps its ScoreTable.  Any failure ends
    the run with a DomainError naming the student or pipeline, so a report
    always holds a scored row for every pipeline.  With a synthetic energy
    source and a seeded model, repeat runs produce byte-identical reports.
    """
    base = config.model.build()
    corpus = _load_corpus(config.corpus_path, base.config)
    # the model each pipeline starts from (None for the base, else the student of its first
    # pass, the only place compose accepts one) and whether some pipeline prunes its heads,
    # so probes it with the calibration
    probed: dict[str | None, bool] = {}
    for p in config.pipelines:
        start = p.passes[0].student if p.passes and isinstance(p.passes[0], DistillRef) else None
        probed[start] = probed.get(start) or any(isinstance(ps, PruneHeads) for ps in p.passes)
    # checked against the base model before any student is trained
    calibration = (config.calibration.cut(corpus, base.config.context_len)
                   if probed.pop(None) else None)
    window, stride = perplexity_window(base.config.context_len,
                                       config.ppl_window, config.ppl_stride)

    students, tokens = {}, {}
    for sid in sorted(probed):
        spec = config.students[sid]
        try:
            if isinstance(spec, ModelSpec):
                students[sid] = spec.build()
            student_config = students.get(sid, spec).config
            check_shared_vocabulary(base.config, student_config)
            if probed[sid]:
                calibration = config.calibration.cut(corpus, student_config.context_len)
            perplexity_window(student_config.context_len, window, stride)
            if isinstance(spec, StudentSpec):
                tokens[sid] = training_tokens(base, spec, corpus)
        except _RUN_ERRORS as exc:
            raise DomainError(f"student {sid!r}: {exc}") from exc
    for sid, toks in tokens.items():
        try:
            students[sid] = build_student(base, config.students[sid], toks)
        except DomainError as exc:  # a diverged run
            raise DomainError(f"student {sid!r}: {exc}") from exc

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


# ---------------------------------------------------------------------------
# command-line interface

def _check_out(flag: str, path: str | None, directory: bool = False) -> None:
    """Fail, naming flag and path, unless path can be written: as a file, or as a directory
    to make.  Each command checks every path it writes before any other work."""
    if path is None:
        return
    out = Path(path)
    if directory and out.exists() and not out.is_dir():
        raise DomainError(f"{flag} {path} exists and is not a directory")
    if not directory and out.is_dir():
        raise DomainError(f"{flag} {path} is a directory")
    # a file needs its parent; a directory, its nearest existing ancestor
    nearest = next(p for p in (out, *out.parents) if p.exists()) if directory else out.parent
    if not nearest.is_dir():
        raise DomainError(f"{flag} {path}: {nearest} is not a directory")


def _score_table(args) -> ScoreTable:
    """The --metrics table scored under the --config file's profiles and quality_exponent.

    Each of a suite config's two scoring keys is read as parse_suite_config reads
    it; a key left out, or no file, means all built-in profiles or QUALITY_EXPONENT.
    """
    measurements = ingest_metrics(args.metrics)
    doc = _load_json(args.config) if args.config else {}
    _require_keys(doc, "score config", set(), {"profiles", "quality_exponent"})
    return score_report(measurements, _parse_profiles(doc.get("profiles", [])),
                        check_quality_exponent(doc.get("quality_exponent", QUALITY_EXPONENT)))


def _cmd_run(args):
    _check_out("--out", args.out, directory=True)
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
    _check_out("--out", args.out)
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
    doc = _load_json(args.config)
    _require_keys(doc, "perplexity config", {"model", "corpus"}, {"perplexity"})
    spec = _parse_model_spec(doc["model"], "model")
    corpus_path = check_string(doc["corpus"], "corpus")
    window, stride = _parse_perplexity(doc.get("perplexity", {}))
    model = spec.build()
    corpus = _load_corpus(corpus_path, model.config)
    window, stride = perplexity_window(model.config.context_len, window, stride)
    ppl = check_number(perplexity(model, corpus, window=window, stride=stride),
                       "perplexity")  # nan when the float32 forward overflows
    scored = sum(n - row - 1 for _, n, row in perplexity_plan(corpus.size, window, stride))
    print(f"perplexity {ppl!r} over {scored} tokens")


def _cmd_compress(args):
    _check_out("--report", args.report)
    _check_out("--out", args.out)
    if args.report and args.out and Path(args.report).resolve() == Path(args.out).resolve():
        raise DomainError(f"--report {args.report} and --out {args.out} name the same file")
    doc = _load_json(args.config)
    _require_keys(doc, "compress config", {"model", "passes"}, {"corpus", "calibration"})
    spec = _parse_model_spec(doc["model"], "model")
    corpus_path = check_string(doc["corpus"], "corpus") if "corpus" in doc else None
    passes = _parse_passes(doc["passes"])
    for j, p in enumerate(passes):
        if isinstance(p, DistillRef):
            raise DomainError(f"passes[{j}]: compress has no students to distill to; "
                              "train one with the distill command")
    calibration = _build(Calibration, doc.get("calibration", {}), "calibration")
    probed = any(isinstance(p, PruneHeads) for p in passes)
    if probed and corpus_path is None:
        raise DomainError("compress config: a prune_heads pass needs a corpus")

    model = spec.build()
    corpus = None if corpus_path is None else _load_corpus(corpus_path, model.config)
    probes = calibration.cut(corpus, model.config.context_len) if probed else None
    rows = []
    for entry, p in zip(doc["passes"], passes):
        report = apply_pass(model, p, calibration=probes)
        model = report.after
        rows.append({"pass": entry, "heads_masked": report.heads_masked,
                     "max_error": report.max_error, "sparsity": report.sparsity})
        if report.concentration is not None:
            rows[-1]["concentration"] = report.concentration.as_dict()
    if args.report:
        Path(args.report).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    if args.out:
        save_model(model, args.out)
        print(f"wrote {args.out}")
    for j, row in enumerate(rows):
        print(f"passes[{j}] {row['pass']['op']}: {row['heads_masked']} heads masked, "
              f"max reconstruction error {row['max_error']:.3e}, "
              f"projection sparsity {row['sparsity']:.3f}")


def _cmd_distill(args):
    _check_out("--out", args.out)
    doc = _load_json(args.config)
    _require_keys(doc, "distill config", {"teacher", "corpus", "student"})
    student = _parse_student(doc["student"], "student")  # as a suite's students hold it
    corpus = check_string(doc["corpus"], "corpus")
    teacher = _parse_model_spec(doc["teacher"], "teacher").build()
    tokens = training_tokens(teacher, student, _load_corpus(corpus, teacher.config))
    save_model(build_student(teacher, student, tokens), args.out)
    print(f"wrote {args.out}")


def _cmd_plot_data(args):
    _check_out("--out", args.out)
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
        sp.add_argument("--config", default=None,
                        help="optional JSON with a suite config's profiles and quality_exponent")
        if name == "score":
            sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        elif name == "plot-data":
            sp.add_argument("--out", required=True, help="output CSV path")
        sp.set_defaults(func=func)

    sp = sub.add_parser("perplexity", help="perplexity of a model over a corpus")
    sp.add_argument("--config", required=True,
                    help="JSON with a suite config's model, corpus and perplexity")
    sp.set_defaults(func=_cmd_perplexity)

    sp = sub.add_parser("compress", help="run a pipeline's passes on a model and report each")
    sp.add_argument("--config", required=True,
                    help="JSON with a suite config's model, passes, corpus and calibration")
    sp.add_argument("--out", default=None, help="write the compressed model here")
    sp.add_argument("--report", default=None, help="write each pass's numbers here as JSON")
    sp.set_defaults(func=_cmd_compress)

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
