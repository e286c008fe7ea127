"""CSV ingest, scoring tables, suite configs, and the command line surface."""
import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shrinklab
from shrinklab import cli, suite, tables
from shrinklab import data as bundled
from shrinklab.cli import main, run_suite, score_report
from shrinklab.suite import _load_json, Report, SeqkdPrompts, config_digest, parse_suite_config
from shrinklab.tables import (BASE_PIPELINE, METRICS_HEADER, ScoreTable, emit_plot_data,
                              ingest_metrics, report_metric_rows, write_metrics_csv)
from shrinklab.compress import (Calibration, DistillRef, Prune24, PruneHeads, Quantize, compose,
                                head_concentration, prune_heads, prune_model_2_4, quantize_model)
from shrinklab.distill import DistillConfig
from shrinklab.errors import BelowRandomFloor, DomainError, ParseError
from shrinklab.meter import CounterFile, PowerModel, SyntheticClock
from shrinklab.model import (LINEAR_NAMES, ModelConfig, dense_weight, init_model, load_model,
                             param_tensors, perplexity, save_model, tokenize)
from shrinklab.scoring import BUILTIN_PROFILES, WeightProfile, opt_score

from conftest import overflowing_model

HEADER = ",".join(METRICS_HEADER)


def write_csv(tmp_path, body, name="metrics.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + body)
    return path


def small_suite_doc(tmp_path, **overrides):
    corpus = tmp_path / "corpus.txt"
    if not corpus.exists():
        corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:600])
    doc = {
        "model": {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32,
                             "d_ff": 128}, "seed": 5},
        "corpus": str(corpus),
        "pipelines": [
            {"name": "base", "passes": []},
            {"name": "8bit", "passes": [{"op": "quantize", "bits": 8}]},
            {"name": "sparse", "passes": [{"op": "prune_2_4"}]},
        ],
        "repetitions": 2,
        "energy_source": {"kind": "synthetic", "energy_deltas_j": [2.0, 1.0],
                          "time_deltas_s": [0.5]},
        "perplexity": {"window": 32},
    }
    doc.update(overrides)
    return doc


SEQKD_STUDENT = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
                 "distill": {"method": "seqkd", "steps": 3}, "window": 16,
                 "seqkd": {"prompts": 4, "prompt_len": 8, "length": 16}}


# ---------------------------------------------------------------------------
# metrics ingest

def test_ingest_bundled_standalone_table():
    methods = ingest_metrics(bundled.path("gpt2_standalone.csv"))
    assert [m.label for m in methods] == ["8bit", "4bit", "distil", "heads90", "heads80"]
    first = methods[0]
    assert len(first.records) == 1
    rec = first.records[0]
    assert rec.name == "perplexity"
    assert rec.base_value == 34.29
    assert rec.model_value == 34.40
    assert first.ratios.time_ratio == pytest.approx(644.67 / 212.33, rel=1e-12)


def test_ingest_bundled_families_table_floors():
    methods = ingest_metrics(bundled.path("model_families_logic.csv"))
    assert len(methods) == 12
    by_label = {m.label: m for m in methods}
    opt = by_label["OPT-MiniLLM"]
    names = {r.name: r for r in opt.records}
    assert set(names) == {"arc_challenge", "hellaswag", "mmlu",
                          "truthfulqa_mc2", "winogrande"}
    assert names["winogrande"].random_floor == 0.5
    assert names["mmlu"].random_floor == 0.25


def test_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("group,metric,dir,floor,base,model\nx,ppl,lower,,1,2\n")
    with pytest.raises(ParseError) as exc:
        ingest_metrics(path)
    assert exc.value.line == 1


def test_ingest_rejects_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ParseError) as exc:
        ingest_metrics(path)
    assert exc.value.line == 1


def test_ingest_rejects_header_only(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(ParseError) as exc:
        ingest_metrics(path)
    assert exc.value.line == 2


def test_ingest_line_numbers_in_errors(tmp_path):
    good = "m,perplexity,lower,,10,12\nm,time_s,lower,,1,2\nm,energy_kwh,lower,,1,2\n"
    cases = [
        (good + "m,extra,lower,,1\n", 5),            # field count
        (good + "m,acc,sideways,,1,2\n", 5),         # direction
        (good + "m,acc2,higher,0.25,abc,0.5\n", 5),  # float
        (good + "m,perplexity,lower,,10,12\n", 5),   # duplicate metric
        (good + "m,,lower,,1,2\n", 5),               # empty metric name
        (good + "m," + "x" * 131_073 + ",lower,,1,2\n", 5),  # field over csv's limit
    ]
    for body, line in cases:
        with pytest.raises(ParseError) as exc:
            ingest_metrics(write_csv(tmp_path, body))
        assert exc.value.line == line, body.splitlines()[-1]
    # blank and whitespace-only rows are skipped but still counted as lines
    spaced = "m,perplexity,lower,,10,12\n\nm,time_s,lower,,1,2\n  , \nm,energy_kwh,lower,,1,2\n"
    assert [m.label for m in ingest_metrics(write_csv(tmp_path, spaced))] == ["m"]
    with pytest.raises(ParseError) as exc:
        ingest_metrics(write_csv(tmp_path, spaced + "m,acc,sideways,,1,2\n"))
    assert exc.value.line == 7


def test_ingest_invariant_violations(tmp_path):
    no_time = "m,perplexity,lower,,10,12\nm,energy_kwh,lower,,1,2\n"
    with pytest.raises(DomainError, match="time_s"):
        ingest_metrics(write_csv(tmp_path, no_time))

    no_quality = "m,time_s,lower,,1,2\nm,energy_kwh,lower,,1,2\n"
    with pytest.raises(DomainError, match="m"):
        ingest_metrics(write_csv(tmp_path, no_quality))

    good = "m,perplexity,lower,,10,12\nm,time_s,lower,,1,2\nm,energy_kwh,lower,,1,2\n"
    for row, message in [
        ("m,ppl2,lower,0.25,10,12",
         "group 'm': ppl2: lower-is-better metrics take no random floor"),
        ("m,acc,higher,,0.5,0.6",
         "group 'm': acc: higher-is-better metrics require a random floor"),
    ]:
        with pytest.raises(DomainError) as exc:
            ingest_metrics(write_csv(tmp_path, good + row + "\n"))
        assert str(exc.value) == message

    # a reserved row must be lower-is-better and carry no floor
    for row in ("m,time_s,higher,0.25,1,2", "m,time_s,higher,,1,2", "m,time_s,lower,0.25,1,2"):
        with pytest.raises(DomainError) as exc:
            ingest_metrics(write_csv(tmp_path, "m,perplexity,lower,,10,12\n" + row
                                     + "\nm,energy_kwh,lower,,1,2\n"))
        assert str(exc.value) == "group 'm': time_s must be lower-is-better, with no random floor"

    below = ("m,acc,higher,0.25,0.6,0.19\nm,time_s,lower,,1,2\n"
             "m,energy_kwh,lower,,1,2\n")
    with pytest.raises(BelowRandomFloor, match="m"):
        ingest_metrics(write_csv(tmp_path, below))


# ---------------------------------------------------------------------------
# scoring tables over the bundled data

def test_bundled_rankings():
    table = score_report(ingest_metrics(bundled.path("gpt2_standalone.csv")))
    assert table.rankings["balanced"] == ["4bit", "distil", "heads90", "heads80", "8bit"]
    # 4-bit wins even the energy profile: it almost halves energy at a lower
    # time cost, while 8-bit's energy saving is offset by its 3x runtime
    assert table.rankings["energy"][:2] == ["4bit", "8bit"]
    assert table.rankings["runtime"][-1] == "8bit"


def test_bundled_derived_values_stay_put():
    """Regression pins computed from the bundled tables by this scorer."""
    expect = {
        "gpt2_large_standalone.csv": {
            "8bit": 1.0710009249900414,
            "4bit": 0.5980132485583107,
            "distil": 1.0843691120284422,
            "heads90": 1.1747246684147503,
            "heads80": 1.3332741237888184,
        },
        "gpt2_xl_standalone.csv": {
            "8bit": 0.7215264585827293,
            "heads90": 0.9214637304105456,
            "heads80": 1.007537305992246,
        },
        "model_families_logic.csv": {
            "OPT-Reg": 0.667366394887358,
            "OPT-SeqKD": 1.2504149347370315,
            "Llama-Reg": 0.8785990568679612,
            "Llama-KD": 0.8320000301273875,
            "Llama-SeqKD": 0.8546128432420362,
            "Sheared-2.7B": 1.6367078268259816,
            "L3.1-Minitron-4B": 0.751801639739054,
        },
        "model_families_wikitext.csv": {
            "OPT-Reg": 0.7002829773445057,
            "OPT-KD": 0.6463458190994403,
            "OPT-SeqKD": 0.7340727713356784,
            "Llama-MiniLLM": 0.7695978965911063,
            "MN-Minitron-8B": 0.7227902090676341,
        },
    }
    for fname, values in expect.items():
        table = score_report(ingest_metrics(bundled.path(fname)))
        for label, opt in values.items():
            got = table.scores[label]["balanced"].opt
            assert got == pytest.approx(opt, abs=1e-9), (fname, label)


def test_score_report_validation(tmp_path):
    methods = ingest_metrics(bundled.path("gpt2_standalone.csv"))
    with pytest.raises(DomainError):
        score_report([])
    with pytest.raises(DomainError):
        score_report(methods, profiles=[])
    dup = WeightProfile("balanced", 0.4, 0.6)
    with pytest.raises(DomainError):
        score_report(methods, profiles=[dup, dup])
    with pytest.raises(DomainError):
        score_report(methods + [methods[0]])


def test_score_report_custom_exponent():
    methods = ingest_metrics(bundled.path("gpt2_standalone.csv"))
    linear = score_report(methods, exponent=1.0)
    cubic = score_report(methods, exponent=3.0)
    lbal = linear.scores["heads80"]["balanced"]
    cbal = cubic.scores["heads80"]["balanced"]
    # heads80 degrades quality, so a steeper exponent punishes it harder
    assert cbal.quality_factor > lbal.quality_factor
    assert lbal.quality_factor == pytest.approx(52.24299 / 34.29, rel=1e-12)


def test_emit_plot_data_rows(tmp_path):
    table = score_report(ingest_metrics(bundled.path("gpt2_standalone.csv")))
    out = tmp_path / "plot.csv"
    emit_plot_data(table, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "profile", "opt"]
    assert len(rows) == 1 + 5 * 3
    balanced = [r for r in rows[1:] if r[1] == "balanced"]
    assert [r[0] for r in balanced] == table.rankings["balanced"]
    # repr round trip: reading the text back gives the exact float
    for label, pname, text in rows[1:]:
        assert float(text) == table.scores[label][pname].opt


def test_emit_plot_data_empty_table(tmp_path):
    empty = ScoreTable(profiles=(), methods=[], scores={}, rankings={})
    out = tmp_path / "plot.csv"
    with pytest.raises(DomainError):
        emit_plot_data(empty, out)
    assert not out.exists()


# ---------------------------------------------------------------------------
# suite config parsing

def test_suite_config_minimal(tmp_path):
    cfg = parse_suite_config(small_suite_doc(tmp_path))
    assert cfg.repetitions == 2
    assert [p.name for p in cfg.pipelines] == ["base", "8bit", "sparse"]
    assert cfg.calibration == Calibration(sequences=8, length=32)


def test_suite_config_rejections(tmp_path):
    base = small_suite_doc(tmp_path)

    def variant(**changes):
        doc = json.loads(json.dumps(base))
        doc.update(changes)
        return doc

    bad_docs = [
        variant(extra_key=1),
        variant(model={"path": "x", "config": {"n_layers": 1, "n_heads": 2,
                                               "d_model": 32, "d_ff": 128}}),
        variant(pipelines=[]),
        variant(pipelines=[{"name": "base", "passes": []},
                           {"name": "base", "passes": []}]),
        variant(pipelines=[{"name": "only", "passes": []}]),          # no base
        variant(pipelines=[{"name": "base",
                            "passes": [{"op": "quantize", "bits": 8}]}]),
        variant(pipelines=[{"name": "base", "passes": []},
                           {"name": "x", "passes": [{"op": "melt"}]}]),
        variant(pipelines=[{"name": "base", "passes": []},
                           {"name": "x", "passes": [{"op": "quantize",
                                                     "bits": 8, "extra": 1}]}]),
        variant(repetitions=0),
        variant(energy_source={"kind": "fusion"}),
        variant(energy_source={"kind": "power"}),                      # watts missing
        variant(calibration={"length": 4}),
        variant(students={"kd": {"config": {"n_layers": 1, "n_heads": 2,
                                            "d_model": 32, "d_ff": 128}}}),
    ]
    for doc in bad_docs:
        with pytest.raises(DomainError):
            parse_suite_config(doc)


def test_suite_config_from_file_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json\n")
    with pytest.raises(ParseError):
        parse_suite_config(_load_json(path))


# ---------------------------------------------------------------------------
# suite runs

def test_run_suite_base_scores_exactly_one(tmp_path):
    report = run_suite(parse_suite_config(small_suite_doc(tmp_path)))
    rows = {r["pipeline"]: r for r in report.rows}
    assert set(rows) == {"base", "8bit", "sparse"}
    for vals in rows["base"]["opt"].values():
        assert vals["opt"] == 1.0
        assert vals["quality_factor"] == 1.0
        assert vals["cost_factor"] == 1.0
    assert rows["8bit"]["opt"]["balanced"]["opt"] > 0.0


def test_run_suite_is_reproducible(tmp_path):
    doc = small_suite_doc(tmp_path)
    a = run_suite(parse_suite_config(doc))
    b = run_suite(parse_suite_config(doc))
    assert a.json() == b.json()


def test_parse_rejects_a_pipeline_naming_an_undefined_student(tmp_path, monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built while parsing")

    monkeypatch.setattr(suite, "init_model", no_model)
    doc = small_suite_doc(tmp_path)
    doc["pipelines"].append(
        {"name": "broken", "passes": [{"op": "distill", "student": "ghost"}]})
    with pytest.raises(DomainError,
                       match="pipeline 'broken': student 'ghost' is not defined in students"):
        parse_suite_config(doc)


def test_run_suite_trains_students(tmp_path):
    doc = small_suite_doc(tmp_path)
    doc["students"] = {"kd": {
        "config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
        "distill": {"method": "forward_kld", "steps": 8, "seed": 3},
    }}
    doc["pipelines"].append(
        {"name": "kd", "passes": [{"op": "distill", "student": "kd"}]})
    report = run_suite(parse_suite_config(doc))
    rows = {r["pipeline"]: r for r in report.rows}
    assert "opt" in rows["kd"]
    assert rows["kd"]["perplexity"] != rows["base"]["perplexity"]


def test_report_round_trips_through_metrics_csv(tmp_path):
    cfg = parse_suite_config(small_suite_doc(tmp_path))
    report = run_suite(cfg)
    rows = report_metric_rows(report)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path)
    table = score_report(ingest_metrics(path), profiles=cfg.profiles,
                         exponent=cfg.quality_exponent)
    for row in report.rows:
        if row["pipeline"] == BASE_PIPELINE:
            continue
        for pname, vals in row["opt"].items():
            again = table.scores[row["pipeline"]][pname].opt
            assert again == pytest.approx(vals["opt"], abs=1e-12)


def test_report_metric_rows_needs_a_base_row():
    with pytest.raises(DomainError, match="report has no usable base row"):
        report_metric_rows(Report(config_digest="", rows=[{"pipeline": "8bit"}]))


def test_config_digest_tracks_content(tmp_path):
    doc = small_suite_doc(tmp_path)
    a = config_digest(doc)
    assert a == config_digest(json.loads(json.dumps(doc)))
    changed = json.loads(json.dumps(doc))
    changed["repetitions"] = 3
    assert config_digest(changed) != a
    report = run_suite(parse_suite_config(doc))
    assert report.config_digest == a


# ---------------------------------------------------------------------------
# command line

def run_main(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_config(tmp_path, **keys) -> str:
    """The path of a command's config file holding keys, some of a suite config's."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(keys))
    return str(path)


@pytest.mark.parametrize("students, pipeline", [
    ({}, None),
    ({}, {"name": "4b+24", "passes": [{"op": "quantize", "bits": 4}, {"op": "prune_2_4"}]}),
    ({"sk": SEQKD_STUDENT}, {"name": "sk", "passes": [{"op": "distill", "student": "sk"}]}),
    ({"s": {"path": "saved.lmz"}},
     {"name": "s+8bit", "passes": [{"op": "distill", "student": "s"},
                                   {"op": "quantize", "bits": 8}]}),
], ids=["small", "4b+24", "seqkd-student", "saved-student+8bit"])
def test_cli_run_writes_artifacts(tmp_path, capsys, monkeypatch, students, pipeline):
    monkeypatch.chdir(tmp_path)  # where a saved student's relative path points
    save_model(init_model(ModelConfig(1, 2, 32, 128), seed=3), "saved.lmz")
    doc = small_suite_doc(tmp_path, students=students)
    doc["pipelines"] += [pipeline] if pipeline else []
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rc, out, _ = run_main(capsys, "run", "--config", str(cfg_path),
                          "--out", str(out_dir))
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [r["pipeline"] for r in report["rows"]] == [p["name"] for p in doc["pipelines"]]
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "plot.csv").exists()
    assert "config digest" in out


def test_cli_run_scores_each_pipeline_once_per_profile(tmp_path, capsys, monkeypatch):
    """run_suite's one score_report call is run's only scorer: plot.csv reuses its table."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return opt_score(*args, **kwargs)

    monkeypatch.setattr(cli, "opt_score", counted)
    doc = small_suite_doc(tmp_path)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    rc, _, _ = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 0
    assert len(calls) == len(doc["pipelines"]) * len(BUILTIN_PROFILES)


def test_cli_run_plot_matches_plot_data_on_its_metrics(tmp_path, capsys):
    """run's plot.csv ranks the run's own scores, base left out: the bytes score --plot
    writes from run's metrics.csv under the same profiles and exponent."""
    doc = small_suite_doc(tmp_path, profiles=["energy", "balanced"], quality_exponent=2.0)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "o"
    rc, _, _ = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 0
    again = tmp_path / "again.csv"
    rc, _, _ = run_main(capsys, "score", "--metrics", str(out_dir / "metrics.csv"),
                        "--config", write_config(tmp_path, profiles=["energy", "balanced"],
                                                 quality_exponent=2.0),
                        "--plot", str(again))
    assert rc == 0
    assert (out_dir / "plot.csv").read_bytes() == again.read_bytes()


def test_cli_run_scores_exactly_what_score_reads_from_its_metrics_csv(tmp_path, capsys):
    """Each report row's records and ratios are built by measurement from its row_metrics,
    as ingest_metrics builds each group of run's metrics.csv: field for field the same."""
    rc, _, _ = run_suite_doc(capsys, tmp_path, small_suite_doc(tmp_path))
    assert rc == 0
    rows = json.loads((tmp_path / "o" / "report.json").read_text())["rows"]
    scored = [tables.measurement(name, metrics)
              for name, metrics in tables.row_metrics(rows).items() if name != BASE_PIPELINE]
    assert [m.label for m in scored] == ["8bit", "sparse"]
    assert ingest_metrics(tmp_path / "o" / "metrics.csv") == scored


def test_cli_plot_data_reproduces_a_suites_custom_profile_from_its_scoring_keys(
        tmp_path, capsys):
    """A custom {name, alpha, beta} profile is spelled in a score config as in the suite,
    so score --plot on run's metrics.csv under the suite's two scoring keys writes plot.csv."""
    doc = small_suite_doc(tmp_path, profiles=[{"name": "green", "alpha": 0.2, "beta": 0.8}],
                          quality_exponent=2.0)
    out_dir = tmp_path / "o"
    rc, _, _ = run_suite_doc(capsys, tmp_path, doc)
    assert rc == 0
    again = tmp_path / "again.csv"
    keys = {k: doc[k] for k in ("profiles", "quality_exponent")}
    rc, _, _ = run_main(capsys, "score", "--metrics", str(out_dir / "metrics.csv"),
                        "--config", write_config(tmp_path, **keys), "--plot", str(again))
    assert rc == 0
    assert again.read_bytes() == (out_dir / "plot.csv").read_bytes()
    assert {row[1] for row in csv.reader(again.read_text().splitlines()[1:])} == {"green"}


def test_cli_run_reports_failures_in_exit_code(tmp_path, capsys, monkeypatch):
    """A suite either finishes with a row for every pipeline or exits 2 with nothing
    written: an undefined student ends the run before any student is trained."""
    doc = small_suite_doc(tmp_path, students={"kd": TRAINED})
    doc["pipelines"] += [{"name": "kd", "passes": [{"op": "distill", "student": "kd"}]},
                         {"name": "broken", "passes": [{"op": "distill", "student": "ghost"}]}]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    rc, out, err = run_main(capsys, "run", "--config", str(cfg_path),
                            "--out", str(tmp_path / "out"))
    assert rc == 2 and out == ""
    assert err.startswith("error: pipeline 'broken': student 'ghost'")
    assert built == []
    assert not (tmp_path / "out").exists()


TOY_CORPUS = str(bundled.path("toy_corpus.txt"))
FRESH = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128}, "seed": 1}
Q8 = {"op": "quantize", "bits": 8}
PRUNE_HEADS_09 = {"op": "prune_heads", "threshold": 0.9}


def _fresh():
    return init_model(ModelConfig(1, 2, 32, 128), seed=1)


def compress_main(capsys, tmp_path, *options, **keys):
    """main's exit code, stdout and stderr for compress on a config file holding keys."""
    return run_main(capsys, "compress", "--config", write_config(tmp_path, **keys), *options)


DISTILL_S = {"op": "distill", "student": "s"}


def distill_main(capsys, tmp_path, student, *options, **keys):
    """main's exit code, stdout and stderr for compress on a config file holding keys and a
    first pass that distills to student."""
    return compress_main(capsys, tmp_path, *options, **{
        "students": {"s": student}, "passes": [DISTILL_S], **keys})


def perplexity_main(capsys, tmp_path, **keys):
    """main's exit code, stdout and stderr for perplexity on a config file holding keys."""
    return run_main(capsys, "perplexity", "--config", write_config(tmp_path, **keys))


def test_cli_quantize_prune_perplexity_round_trip(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:400])
    q_path = tmp_path / "q8.lmz"
    rc, _, _ = compress_main(capsys, tmp_path, "--out", str(q_path), model=FRESH, passes=[Q8])
    assert rc == 0
    load_model(q_path)

    s_path = tmp_path / "s24.lmz"
    rc, out, _ = compress_main(capsys, tmp_path, "--out", str(s_path), model=FRESH,
                               passes=[{"op": "prune_2_4"}])
    assert rc == 0
    assert "projection sparsity 0.500" in out

    rc, out, _ = perplexity_main(capsys, tmp_path, model={"path": str(q_path)},
                                 corpus=str(corpus))
    assert rc == 0
    assert out.startswith("perplexity ")


def test_cli_prune_heads_writes_report(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:600])
    report_path = tmp_path / "heads.json"
    out_path = tmp_path / "pruned.lmz"
    rc, out, _ = compress_main(capsys, tmp_path, "--report", str(report_path),
                               "--out", str(out_path), model=dict(FRESH, seed=2),
                               corpus=str(corpus), passes=[PRUNE_HEADS_09])
    assert rc == 0
    [entry] = json.loads(report_path.read_text())
    assert {e["head"] for e in entry["concentration"]["scores"]} == {0, 1}
    load_model(out_path)
    assert "heads masked" in out


# the numbers compress prints, worked out here tensor by tensor

def _max_error(before, after) -> float:
    worst = 0.0
    for (name, a), (_, b) in zip(param_tensors(before), param_tensors(after)):
        if name.split(".")[-1] in LINEAR_NAMES:
            err = np.abs(dense_weight(a, np.float64) - dense_weight(b, np.float64)).max()
            worst = max(worst, float(err))
    return worst


def _sparsity(model) -> float:
    zeros = total = 0
    for name, t in param_tensors(model):
        if name.split(".")[-1] in LINEAR_NAMES:
            arr = dense_weight(t)
            zeros += int((arr == 0).sum())
            total += arr.size
    return zeros / total


def _pass_line(index, op, masked, before, after) -> str:
    return (f"passes[{index}] {op}: {masked} heads masked, max reconstruction error "
            f"{_max_error(before, after):.3e}, projection sparsity {_sparsity(after):.3f}\n")


@pytest.mark.parametrize("bits", [4, 8])
def test_cli_quantize_prints_the_largest_reconstruction_error(tmp_path, capsys, bits):
    model, out = _fresh(), tmp_path / "q.lmz"
    rc, printed, _ = compress_main(capsys, tmp_path, "--out", str(out), model=FRESH,
                                   passes=[{"op": "quantize", "bits": bits}])
    assert rc == 0
    assert printed == f"wrote {out}\n" + _pass_line(0, "quantize", 0, model,
                                                    quantize_model(model, bits))


def test_cli_prune24_prints_the_projection_sparsity(tmp_path, capsys):
    out = tmp_path / "s.lmz"
    rc, printed, _ = compress_main(capsys, tmp_path, "--out", str(out), model=FRESH,
                                   passes=[{"op": "prune_2_4"}])
    assert rc == 0
    assert printed == f"wrote {out}\n" + _pass_line(0, "prune_2_4", 0, _fresh(),
                                                    prune_model_2_4(_fresh()))


def test_cli_prune_heads_prints_the_heads_it_masked(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:600])
    model = _fresh()
    report = head_concentration(model, Calibration().cut(tokenize(corpus.read_bytes()),
                                                         model.config.context_len))
    threshold = float(report.scores.max())  # masks the most concentrated head
    pruned = prune_heads(model, report, threshold)
    dropped = int(model.head_mask.sum() - pruned.head_mask.sum())
    assert dropped >= 1
    report_path, out = tmp_path / "heads.json", tmp_path / "m.lmz"
    entry = {"op": "prune_heads", "threshold": threshold}
    rc, printed, _ = compress_main(capsys, tmp_path, "--report", str(report_path),
                                   "--out", str(out), model=FRESH, corpus=str(corpus),
                                   passes=[entry])
    assert rc == 0
    assert printed == (f"wrote {report_path}\nwrote {out}\n"
                       + _pass_line(0, "prune_heads", dropped, model, pruned))
    assert report_path.read_text() == json.dumps([{
        "pass": entry, "heads_masked": dropped, "max_error": 0.0, "sparsity": _sparsity(pruned),
        "concentration": report.as_dict()}], indent=2, sort_keys=True) + "\n"
    assert np.array_equal(load_model(out).head_mask, pruned.head_mask)


def test_cli_prune_heads_checks_the_threshold_before_writing(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(suite.ModelSpec, "build", lambda spec: built.append(spec))
    report_path, out = tmp_path / "r.json", tmp_path / "m.lmz"
    rc, printed, err = compress_main(capsys, tmp_path, "--report", str(report_path),
                                     "--out", str(out), model=FRESH, corpus=TOY_CORPUS,
                                     passes=[{"op": "prune_heads", "threshold": 1.5}])
    assert rc == 2 and printed == ""
    assert err.startswith("error: passes[0]: threshold must")
    assert built == [] and not report_path.exists() and not out.exists()


def test_cli_prune_heads_rejects_a_non_finite_concentration(tmp_path, capsys, monkeypatch):
    """NaN attention is an error: a NaN score is below no threshold, so it would mask its head.
    load_model rejects a NaN weight, so the command gets its NaN model in memory."""
    model = init_model(ModelConfig(2, 4, 64, 256), seed=0)
    model.weights.layers[0].wq[0, 0] = np.nan
    monkeypatch.setattr(suite, "load_model", lambda path: model)
    path, report_path, out = tmp_path / "nan.lmz", tmp_path / "r.json", tmp_path / "m.lmz"
    rc, printed, err = compress_main(capsys, tmp_path, "--report", str(report_path),
                                     "--out", str(out), model={"path": str(path)},
                                     corpus=TOY_CORPUS, passes=[PRUNE_HEADS_09])
    assert rc == 2 and printed == ""
    assert err == "error: head concentration of layer 0, head 0 is not finite: nan\n"
    assert not report_path.exists() and not out.exists()


@pytest.mark.parametrize("entry", [0.5, float("nan")], ids=["half", "nan"])
def test_cli_prune_heads_rejects_a_head_mask_entry_other_than_0_or_1(tmp_path, capsys, entry):
    model = _fresh()
    model.head_mask[0, 0] = entry
    path, out = tmp_path / "m.lmz", tmp_path / "pruned.lmz"
    save_model(model, path)
    rc, printed, err = compress_main(capsys, tmp_path, "--out", str(out),
                                     model={"path": str(path)}, corpus=TOY_CORPUS,
                                     passes=[PRUNE_HEADS_09])
    assert rc == 2 and printed == ""
    assert err.startswith("error: head_mask entries must be 0 or 1 (byte ")
    assert not out.exists()


CALIBRATIONS = [("length", -1), ("length", 0), ("length", 4), ("length", 100),
                ("sequences", -1), ("sequences", 0)]


# the ids keep the names these cases had as --calib-length and --calib-sequences flags
@pytest.mark.parametrize("key, value", CALIBRATIONS,
                         ids=[f"--calib-{key}-{value}" for key, value in CALIBRATIONS])
def test_cli_prune_heads_checks_calibration_like_the_suite(tmp_path, capsys, key, value):
    out_path = tmp_path / "pruned.lmz"
    rc, _, err = compress_main(capsys, tmp_path, "--out", str(out_path),
                               model=dict(FRESH, seed=0), corpus=TOY_CORPUS,
                               passes=[PRUNE_HEADS_09], calibration={key: value})
    assert rc == 2 and err.startswith("error: calibration")
    assert not out_path.exists()


# a student of another shape than FRESH's 1,2,32,128
KD_16 = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 64},
         "distill": {"method": "forward_kld", "steps": 2, "seed": 3}}


@pytest.mark.parametrize("passes, masked", [
    ([{"op": "quantize", "bits": 4}, {"op": "prune_2_4"}], False),
    ([{"op": "prune_heads", "threshold": 0.05}, Q8], True),
    ([{"op": "distill", "student": "kd"}, {"op": "quantize", "bits": 4}], False),
], ids=["q4-then-2:4", "heads-then-q8", "kd-then-q4"])
def test_cli_compress_is_a_suite_pipeline_written_to_a_file(tmp_path, capsys, passes, masked):
    """The model compress writes is the model a suite pipeline of the same passes measures,
    its student trained by build_student, and each --report entry holds what compose
    reports for its pass: for a distill pass, its sparsity alone."""
    config = parse_suite_config(small_suite_doc(
        tmp_path, model=FRESH, corpus=TOY_CORPUS, students={"kd": KD_16},
        pipelines=[{"name": "base", "passes": []}, {"name": "p", "passes": passes}]))
    model, corpus = _fresh(), tokenize(bundled.path("toy_corpus.txt").read_bytes())
    probes = config.calibration.cut(corpus, model.config.context_len)
    students = {"kd": cli.build_student(model, config.students["kd"], corpus)
                } if passes[0]["op"] == "distill" else {}
    reports = compose(config.pipelines[1].passes, model, calibration=probes, students=students)
    after = reports[-1].after
    assert (after.head_mask.sum() < model.head_mask.sum()) == masked

    out, report_path = tmp_path / "m.lmz", tmp_path / "r.json"
    rc, printed, _ = compress_main(capsys, tmp_path, "--out", str(out), "--report",
                                   str(report_path), model=FRESH, corpus=TOY_CORPUS,
                                   students={"kd": KD_16}, passes=passes)
    assert rc == 0
    if students:
        assert printed.splitlines()[2] == ("passes[0] distill: student 'kd', projection "
                                           f"sparsity {reports[0].sparsity:.3f}")
    rc, printed, _ = perplexity_main(capsys, tmp_path, model={"path": str(out)},
                                     corpus=TOY_CORPUS)
    assert rc == 0
    assert printed == f"perplexity {perplexity(after, corpus)!r} over 4691 tokens\n"
    entries = json.loads(report_path.read_text())
    assert [entry.pop("pass") for entry in entries] == passes
    assert entries == [
        {"sparsity": r.sparsity,
         **({} if op["op"] == "distill" else {"heads_masked": r.heads_masked,
                                              "max_error": r.max_error}),
         **({"concentration": r.concentration.as_dict()} if r.concentration else {})}
        for op, r in zip(passes, reports)]


@pytest.mark.parametrize("passes, named", [
    ([{"op": "distill", "student": "kd"}], "student 'kd' is not defined in students"),
    ([Q8, {"op": "distill", "student": "s"}],
     "distill pass 's' must come first: it replaces the model, discarding the passes before it"),
], ids=["first", "after-quantize"])
def test_cli_compress_rejects_a_distill_pass_before_building_the_model(
        tmp_path, capsys, monkeypatch, passes, named):
    """compress checks its pipeline as a suite checks each of its own: a distill pass comes
    first and names a student that students defines."""
    built = []
    monkeypatch.setattr(suite.ModelSpec, "build", lambda spec: built.append(spec))
    out = tmp_path / "m.lmz"
    rc, printed, err = compress_main(capsys, tmp_path, "--out", str(out), model=FRESH,
                                     corpus=TOY_CORPUS, students={"s": {"path": "s.lmz"}},
                                     passes=passes)
    assert rc == 2 and printed == ""
    assert err == f"error: passes: {named}\n"
    assert built == [] and not out.exists()


@pytest.mark.parametrize("training", [
    {"distill": {"method": "forward_kld", "steps": 5, "seed": 7}},
    # a KL student with a cross-entropy mix runs the batched teacher pass, which seqkd does not
    {"distill": {"method": "reverse_kld", "ce_mix_lambda": 0.5, "steps": 5}, "window": 16},
    {key: SEQKD_STUDENT[key] for key in ("distill", "window", "seqkd")},
], ids=["forward_kld", "reverse_kld-ce-mix", "seqkd"])
def test_cli_distill_trains_and_saves(tmp_path, capsys, training):
    """compress on one distill pass writes the student build_student trains on the tokens
    training_tokens gives, byte for byte, and prints the student and its sparsity."""
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:400])
    teacher = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128}, "seed": 5}
    student = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128}, **training}
    out_path = tmp_path / "student.lmz"
    rc, printed, _ = distill_main(capsys, tmp_path, student, "--out", str(out_path),
                                  model=teacher, corpus=str(corpus))
    assert rc == 0
    spec = parse_suite_config(small_suite_doc(tmp_path, students={"s": student})).students["s"]
    base = init_model(ModelConfig(1, 2, 32, 128), seed=5)
    trained = cli.build_student(base, spec, cli.training_tokens(
        base, spec, tokenize(corpus.read_bytes())))
    save_model(trained, tmp_path / "again.lmz")
    assert out_path.read_bytes() == (tmp_path / "again.lmz").read_bytes()
    sparsity = compose([DistillRef("s")], base, students={"s": trained})[0].sparsity
    assert printed == (f"wrote {out_path}\npasses[0] distill: student 's', projection sparsity "
                       f"{sparsity:.3f}\n")
    # a saved student needs no corpus, and distilling to it writes it back unchanged
    rc, _, _ = distill_main(capsys, tmp_path, {"path": str(out_path)}, "--out",
                            str(tmp_path / "saved.lmz"), model=teacher)
    assert rc == 0 and (tmp_path / "saved.lmz").read_bytes() == out_path.read_bytes()


def test_cli_distill_a_diverged_run_exits_two_and_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "student.lmz"
    rc, printed, err = distill_main(
        capsys, tmp_path, {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
                           "distill": {"method": "reverse_kld", "steps": 5,
                                       "learning_rate": 1e300},
                           "window": 16},
        "--out", str(out_path), corpus=TOY_CORPUS,
        model={"config": {"n_layers": 2, "n_heads": 4, "d_model": 64, "d_ff": 256}, "seed": 0})
    assert rc == 2 and printed == ""
    assert err == "error: student 's': training diverged: loss nan at step 2\n"
    assert not out_path.exists()


def test_cli_distill_a_temperature_whose_square_overflows_exits_two_before_training(
        tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "train_student", lambda *args, **kw: trained.append(args))
    out_path = tmp_path / "student.lmz"
    rc, printed, err = distill_main(
        capsys, tmp_path, {"config": FRESH["config"], "window": 16, "distill": {
            "method": "forward_kld", "steps": 5, "temperature": 1e300}},
        "--out", str(out_path), model={"config": FRESH["config"], "seed": 0}, corpus=TOY_CORPUS)
    assert rc == 2 and printed == ""
    assert err == ("error: students['s'].distill: temperature must be positive, with a finite "
                   "square, got 1e+300\n")
    assert trained == [] and not out_path.exists()


def test_cli_run_rejects_an_out_that_is_not_a_directory_before_any_work(
        tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "build_student", lambda *args: ran.append(args))
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(small_suite_doc(tmp_path)))
    out_path = tmp_path / "taken"
    out_path.write_text("kept\n")
    rc, printed, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(out_path))
    assert rc == 2 and printed == ""
    assert err == f"error: --out {out_path} exists and is not a directory\n"
    assert ran == [] and out_path.read_text() == "kept\n"


def test_cli_distill_rejects_an_out_that_is_a_directory_before_training(
        tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "build_student", lambda *args: ran.append(args))
    rc, printed, err = distill_main(
        capsys, tmp_path, {"config": FRESH["config"], "window": 16,
                           "distill": {"method": "forward_kld", "steps": 5}},
        "--out", str(tmp_path), model={"config": FRESH["config"], "seed": 0}, corpus=TOY_CORPUS)
    assert rc == 2 and printed == ""
    assert err == f"error: --out {tmp_path} is a directory\n"
    assert ran == []


COMPRESS_HEADS = ["compress", "--config", "prune-heads.json"]


@pytest.mark.parametrize("argv, flag, path, named", [
    (["compress", "--config", "quantize.json"], "--out", "d", "--out d is a directory"),
    (["compress", "--config", "quantize.json"], "--out", "nodir/q.lmz",
     "--out nodir/q.lmz: nodir is not a directory"),
    (["compress", "--config", "prune-24.json", "--out", "m.lmz"], "--report", "d",
     "--report d is a directory"),
    (COMPRESS_HEADS, "--report", "d", "--report d is a directory"),
    (COMPRESS_HEADS, "--out", "f/m.lmz", "--out f/m.lmz: f is not a directory"),
    (COMPRESS_HEADS + ["--out", "m.lmz"], "--report", "./m.lmz",
     "--report ./m.lmz and --out m.lmz name the same file"),
    (["score", "--metrics", str(bundled.path("gpt2_standalone.csv"))], "--out", "d",
     "--out d is a directory"),
    (["score", "--metrics", str(bundled.path("gpt2_standalone.csv")), "--out", "p.json"],
     "--plot", "d", "--plot d is a directory"),
    (["score", "--metrics", str(bundled.path("gpt2_standalone.csv")), "--out", "./p.csv"],
     "--plot", "p.csv", "--out ./p.csv and --plot p.csv name the same file"),
    (["compress", "--config", "distill.json"], "--out", "nodir/s.lmz",
     "--out nodir/s.lmz: nodir is not a directory"),
    (["run", "--config", "suite.json"], "--out", "f/sub", "--out f/sub: f is not a directory"),
    (["score", "--metrics", "m.csv"], "--plot", "m.csv",
     "--plot m.csv and --metrics m.csv name the same file"),
    (["score", "--metrics", "m.csv", "--config", "p.json"], "--out", "./p.json",
     "--out ./p.json and --config p.json name the same file"),
    (["compress", "--config", "quantize.json"], "--report", "quantize.json",
     "--report quantize.json and --config quantize.json name the same file"),
    (["compress", "--config", "saved.json"], "--out", "m.lmz",
     "--out m.lmz and model.path m.lmz name the same file"),
    (["compress", "--config", "corpus.json"], "--report", "c.txt",
     "--report c.txt and corpus c.txt name the same file"),
    (["compress", "--config", "student.json"], "--out", "./m.lmz",
     "--out ./m.lmz and students['s'].path m.lmz name the same file"),
    (["run", "--config", "o/report.json"], "--out", "o",
     "--out o/report.json and --config o/report.json name the same file"),
    (["run", "--config", "suite.json"], "--out", "r", "--out r/report.json is a directory"),
    (["run", "--config", "counter.json"], "--out", "e",
     "--out e/plot.csv and energy_source.path e/plot.csv name the same file"),
], ids=["quantize-dir", "quantize-no-parent", "prune-24-dir", "prune-heads-report-dir",
        "prune-heads-file-parent", "compress-report-is-out", "score-dir", "plot-data-dir",
        "score-out-is-plot", "distill-no-parent", "run-file-ancestor", "score-plot-is-metrics",
        "score-out-is-config", "compress-report-is-config", "compress-out-is-model",
        "compress-report-is-corpus", "compress-out-is-student", "run-out-holds-config",
        "run-report-is-a-directory", "run-plot-is-counter"])
def test_cli_checks_each_output_path_before_any_work(tmp_path, capsys, monkeypatch, argv, flag,
                                                     path, named):
    """A path a command cannot write, an input file among them (a flag's or one its
    config names), ends it with exit 2 with at most its config parsed, before it loads a
    model or corpus, builds, trains or scores anything, and nothing is written: every
    file, the command's inputs included, keeps its bytes."""
    def work(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    for name in ("pipeline_inputs", "ingest_metrics", "build_student", "run_suite"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(suite.ModelSpec, "build", work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "r" / "report.json").mkdir(parents=True)
    (tmp_path / "e").mkdir()
    (tmp_path / "e" / "plot.csv").write_text("0\n")
    (tmp_path / "f").write_text("kept\n")
    save_model(_fresh(), tmp_path / "m.lmz")
    (tmp_path / "c.txt").write_bytes(bundled.path("toy_corpus.txt").read_bytes())
    for name, keys in (("saved", {"model": {"path": "m.lmz"}, "passes": [Q8]}),
                       ("corpus", {"model": FRESH, "corpus": "c.txt", "passes": [PRUNE_HEADS_09]}),
                       ("student", {"model": FRESH, "students": {"s": {"path": "m.lmz"}},
                                    "passes": [DISTILL_S, Q8]})):
        (tmp_path / f"{name}.json").write_text(json.dumps(keys))
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "report.json").write_text(json.dumps(small_suite_doc(tmp_path)))
    (tmp_path / "counter.json").write_text(json.dumps(small_suite_doc(tmp_path, energy_source={
        "kind": "counter", "path": "e/plot.csv", "wrap_max_microjoules": 1000000})))
    (tmp_path / "m.csv").write_bytes(bundled.path("gpt2_standalone.csv").read_bytes())
    (tmp_path / "p.json").write_text(json.dumps({"profiles": ["balanced"]}))
    (tmp_path / "suite.json").write_text(json.dumps(small_suite_doc(tmp_path)))
    (tmp_path / "distill.json").write_text(json.dumps({
        "model": {"config": TRAINED["config"], "seed": 0}, "corpus": TOY_CORPUS,
        "students": {"s": TRAINED}, "passes": [DISTILL_S]}))
    for name, passes in (("quantize", [Q8]), ("prune-24", [{"op": "prune_2_4"}]),
                         ("prune-heads", [PRUNE_HEADS_09])):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"model": FRESH, "corpus": TOY_CORPUS, "passes": passes}))
    def tree():
        return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

    before = tree()
    rc, printed, err = run_main(capsys, *argv, flag, path)
    assert rc == 2 and printed == ""
    assert err == f"error: {named}\n"
    assert tree() == before


def test_cli_score_and_rank(tmp_path, capsys):
    """score prints each profile's ranking of the table it writes with --out and --plot;
    the files change nothing that it prints after their wrote lines."""
    metrics = str(bundled.path("gpt2_standalone.csv"))
    table = score_report(ingest_metrics(metrics))
    rc, ranking, _ = run_main(capsys, "score", "--metrics", metrics)
    assert rc == 0
    lines = ranking.splitlines()
    assert lines[0] == "[balanced]" and len(lines) == 3 * (1 + 5)
    four = table.scores["4bit"]["balanced"]
    assert lines[1] == (f"  1. 4bit  opt={four.opt:.6f}  quality={four.quality_factor:.6f} "
                        f"cost={four.cost_factor:.6f}")
    assert [line.split()[1] for line in lines[1:6]] == table.rankings["balanced"]

    out_path, plot_path = tmp_path / "scores.json", tmp_path / "plot.csv"
    rc, out, _ = run_main(capsys, "score", "--metrics", metrics,
                          "--out", str(out_path), "--plot", str(plot_path))
    assert rc == 0 and out == f"wrote {out_path}\nwrote {plot_path}\n" + ranking
    doc = json.loads(out_path.read_text())
    assert doc == json.loads(json.dumps(table.as_dict()))
    assert doc["rankings"]["balanced"][0] == "4bit"
    emit_plot_data(table, tmp_path / "again.csv")
    assert plot_path.read_bytes() == (tmp_path / "again.csv").read_bytes()

    green = {"name": "green", "alpha": 0.2, "beta": 0.8}
    rc, out, _ = run_main(capsys, "score", "--metrics", metrics,
                          "--config", write_config(tmp_path, profiles=["energy", green],
                                                   quality_exponent=2.0))
    assert rc == 0
    assert out.splitlines()[0] == "[energy]" and "[green]" in out.splitlines()
    assert "1. 4bit" in out and "2. 8bit" in out


@pytest.mark.parametrize("exponent", [-1.5, 0])
def test_cli_rank_rejects_non_positive_quality_exponent(tmp_path, capsys, exponent):
    """A negative exponent would rank distil ahead of 4bit; zero would tie every method."""
    config = tmp_path / "exponent.json"
    config.write_text(json.dumps({"quality_exponent": exponent}))
    rc, out, err = run_main(capsys, "score", *METRICS_FLAG, "--config", str(config))
    assert rc == 2 and "quality_exponent" in err and not out


def test_cli_plot_data_and_custom_profile(tmp_path, capsys):
    out_path = tmp_path / "plot.csv"
    green = {"name": "green", "alpha": 0.3, "beta": 0.7}
    rc, _, _ = run_main(capsys, "score",
                        "--metrics", str(bundled.path("gpt2_standalone.csv")),
                        "--plot", str(out_path),
                        "--config", write_config(tmp_path, profiles=[green]))
    assert rc == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 5
    assert all(r[1] == "green" for r in rows[1:])


def test_cli_errors_exit_two(tmp_path, capsys):
    rc, _, err = run_main(capsys, "score", "--metrics", str(tmp_path / "nope.csv"))
    assert rc == 2
    assert err.strip()

    rc, _, err = run_main(capsys, "score", "--metrics",
                          str(bundled.path("gpt2_standalone.csv")),
                          "--config", write_config(tmp_path, profiles=["speed"]))
    assert rc == 2 and "unknown weight profile 'speed'" in err

    rc, _, err = perplexity_main(capsys, tmp_path, corpus=TOY_CORPUS, model={
        "config": {"n_layers": 1, "n_heads": 2, "d_model": 30, "d_ff": 128}, "seed": 1})
    assert rc == 2 and err == "error: model.config: d_model and d_ff must be divisible by 4\n"


METRICS_FLAG = ["--metrics", str(bundled.path("gpt2_standalone.csv"))]

# score's file flags, one case each: none (the printed ranking alone), --out, --plot; each
# id names the output that the case adds to the printed ranking
SCORE_FILES = pytest.mark.parametrize("files", [["--out"], [], ["--plot"]],
                                      ids=["score", "rank", "plot-data"])


def score_files(tmp_path, files):
    """score's file arguments for files, and the paths they name."""
    paths = {flag: tmp_path / f"scored{flag[1:]}" for flag in files}
    return [arg for flag, path in paths.items() for arg in (flag, str(path))], paths.values()


VOCAB_100 = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128,
                        "vocab_size": 100, "context_len": 64}, "seed": 1}


@pytest.mark.parametrize("command, keys, named", [
    ("compress", {"model": {"path": "m.lmz", "config": FRESH["config"]}, "passes": [Q8]},
     "model must carry either 'path' or 'config' (with optional 'seed')"),
    ("compress", {"model": {"seed": 1}, "passes": [Q8]},
     "model must carry either 'path' or 'config' (with optional 'seed')"),
    ("compress", {"model": {"config": {"n_layers": 1, "n_heads": 2, "d_model": 3}},
                  "passes": [Q8]}, "model.config: missing keys ['d_ff']"),
    ("compress", {"model": {"config": {"n_layers": 1, "n_heads": 2, "d_model": "a",
                                       "d_ff": "b"}}, "passes": [Q8]},
     "model.config: d_model must be an integer >= 1, got 'a'"),
    ("perplexity", {"model": FRESH, "corpus": "1.txt"}, "corpus 1.txt holds fewer than 2 tokens"),
    ("compress", {"model": FRESH, "corpus": "10.txt", "passes": [PRUNE_HEADS_09]},
     "corpus of 10 tokens cannot supply 256 calibration tokens"),
    ("perplexity", {"model": VOCAB_100, "corpus": "10.txt"},
     "corpus 10.txt: token ids must lie in [0, 100)"),
    ("compress", {"model": VOCAB_100, "corpus": "10.txt", "passes": [PRUNE_HEADS_09]},
     "corpus 10.txt: token ids must lie in [0, 100)"),
    ("compress", {"model": FRESH, "passes": [Q8, PRUNE_HEADS_09]},
     "compress config: a prune_heads pass needs a corpus"),
    ("compress", {"model": FRESH, "passes": [Q8], "students": []},
     "students must be a JSON object"),
    ("compress", {"model": FRESH, "passes": [DISTILL_S], "students": {"s": {
        "config": FRESH["config"], "distill": {"method": "forward_kld"}}}},
     "compress config: a distill pass to trained student 's' needs a corpus"),
    ("perplexity", {"model": FRESH, "corpus": "10.txt", "passes": []},
     "perplexity config: unknown keys ['passes']"),
], ids=["model-and-seed", "neither", "arch-3", "arch-letters", "corpus-1",
        "calibration-corpus-10", "perplexity-vocab-100", "prune-heads-vocab-100",
        "prune-heads-no-corpus", "compress-students", "distill-no-corpus", "perplexity-passes"])
def test_cli_flag_and_corpus_errors_exit_two(tmp_path, capsys, monkeypatch, command, keys,
                                             named):
    """compress and perplexity check a model and corpus as a suite's are checked, and reject
    a suite key that they do not read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1.txt").write_bytes(b"a")
    (tmp_path / "10.txt").write_bytes(b"abcdefghij")
    out = ["--out", "q.lmz"] if command == "compress" else []
    rc, printed, err = run_main(capsys, command, "--config", write_config(tmp_path, **keys), *out)
    assert rc == 2 and printed == ""
    assert err == f"error: {named}\n"
    assert not (tmp_path / "q.lmz").exists()


@pytest.mark.parametrize("keys, named", [
    ({"profiles": [{"name": "g", "alpha": "a", "beta": 0.5}]},
     "profiles[0]: alpha must be a finite number, got 'a'"),
    ({"profiles": [{"name": "g", "alpha": 0.3, "beta": 0.3}]},
     "profiles[0]: profile 'g': alpha + beta must equal 1, got 0.6"),
    ({"profiles": "energy"}, "profiles must be a list"),
    ({"profiles": ["energy", "energy"]},
     "weight profile names must be unique: 'energy' is repeated"),
    ({"quality_exponent": 2.0, "repetitions": 1}, "score config: unknown keys ['repetitions']"),
], ids=["alpha-string", "weights-sum", "profiles-string", "profiles-repeated", "unknown-key"])
@SCORE_FILES
def test_cli_score_config_errors_exit_two(tmp_path, capsys, files, keys, named):
    """score reads a score config's profiles as a suite's are read, and writes nothing
    when they are wrong."""
    args, paths = score_files(tmp_path, files)
    rc, printed, err = run_main(capsys, "score", *METRICS_FLAG,
                                "--config", write_config(tmp_path, **keys), *args)
    assert rc == 2 and printed == ""
    assert err == f"error: {named}\n"
    assert not any(path.exists() for path in paths)


@SCORE_FILES
def test_cli_scoring_commands_read_profiles_only_from_config(tmp_path, capsys, files):
    """score takes its weighting from --config alone, as run does, with any file flags."""
    with pytest.raises(SystemExit) as exc:
        main(["score", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--metrics", "--config", "--out", "--plot"}
    args, paths = score_files(tmp_path, files)
    with pytest.raises(SystemExit) as exc:
        main(["score", *METRICS_FLAG, *args, "--profile", "energy"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --profile energy" in capsys.readouterr().err
    assert not any(path.exists() for path in paths)


def run_suite_doc(capsys, tmp_path, doc, out="o"):
    """main's exit code, stdout and stderr for run on doc, written as the suite file."""
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    return run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / out))


def test_cli_run_energy_source_key(tmp_path, capsys):
    rc, _, _ = run_suite_doc(capsys, tmp_path, small_suite_doc(
        tmp_path, repetitions=1, energy_source={"kind": "power", "watts": 3.5}))
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert all(r["energy_kwh"] > 0 for r in report["rows"])

    # a counter that never advances gives the base pipeline zero energy,
    # which cannot anchor the ratios: typed failure, exit 2
    counter = tmp_path / "uj"
    counter.write_text("0")
    rc, _, err = run_suite_doc(capsys, tmp_path, small_suite_doc(
        tmp_path, repetitions=1, energy_source={"kind": "counter", "path": str(counter),
                                                "wrap_max_microjoules": 1000000000}), out="o3")
    assert rc == 2 and err.startswith("error:")
    assert not (tmp_path / "o3").exists()

    rc, _, err = run_suite_doc(capsys, tmp_path, small_suite_doc(
        tmp_path, energy_source={"kind": "counter", "path": str(counter)}), out="o4")
    assert rc == 2 and "wrap_max_microjoules" in err


def test_cli_run_missing_counter_file_fails_the_base_pipeline(tmp_path, capsys):
    rc, _, err = run_suite_doc(capsys, tmp_path, small_suite_doc(
        tmp_path, energy_source={"kind": "counter", "path": str(tmp_path / "absent"),
                                 "wrap_max_microjoules": 1000000}))
    assert rc == 2 and err.startswith("error:") and "base pipeline failed" in err


def test_cli_run_an_overflowing_carbon_estimate_fails_the_base_pipeline(tmp_path, capsys):
    """Finite energy at a finite intensity can overflow to inf grams, which would reach
    report.json as Infinity: the run exits 2 and writes nothing."""
    rc, out, err = run_suite_doc(capsys, tmp_path, small_suite_doc(
        tmp_path, repetitions=1, carbon_intensity_g_per_kwh=1e300,
        energy_source={"kind": "synthetic", "energy_deltas_j": [1e300]}))
    assert rc == 2 and out == ""
    assert err == ("error: base pipeline failed: carbon_intensity_g_per_kwh times energy_kwh "
                   "must be a finite number, got inf\n")
    assert not (tmp_path / "o").exists()


def test_cli_run_profiles_key_scores_only_that_profile(tmp_path, capsys):
    rc, _, _ = run_suite_doc(capsys, tmp_path, small_suite_doc(tmp_path, profiles=["energy"]))
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert all(set(row["opt"]) == {"energy"} for row in report["rows"])


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--reps", "1"), ("run", "--seed", "1"), ("run", "--profile", "energy"),
    ("run", "--energy-source", "synthetic"),
    # the id keeps the name of the distill command, which compress replaces
    pytest.param("compress", "--seed", "1", id="distill---seed-1"),
])
def test_cli_run_and_distill_read_only_config_and_out(tmp_path, capsys, command, flag, value):
    """Every suite and distillation value is set in the config file, where it is digested."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--config", "--out", *(["--report"] if command == "compress" else [])}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(small_suite_doc(tmp_path)))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_commands_take_every_setting_from_a_config_file(capsys):
    """Four commands; beside --config (or score's --metrics) a command has only the paths
    it writes, so no flag restates what a suite file's keys hold."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{run,score,perplexity,compress}" in capsys.readouterr().out
    options = {}
    for command in ("run", "score", "perplexity", "compress"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        options[command] = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert options == {"run": {"--config", "--out"},
                       "score": {"--metrics", "--config", "--out", "--plot"},
                       "perplexity": {"--config"}, "compress": {"--config", "--out", "--report"}}
    assert sum(map(len, options.values())) == 10


def test_readme_cli_examples_run_every_command_and_no_other():
    """The commands the README's CLI examples run are build_parser's subcommands, so a
    removed command cannot stay in the docs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    documented = set(re.findall(r"^shrinklab ([a-z-]+)", examples, re.M))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def _readme_json_blocks():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M)


def test_readme_python_example_runs(tmp_path, monkeypatch):
    """The README's one Python block runs as written, in a directory holding the bundled
    corpus as corpus.txt, so a removed or re-signed library call cannot stay documented."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    (tmp_path / "corpus.txt").write_bytes(bundled.path("toy_corpus.txt").read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_configs_parse_with_their_commands_parsers(monkeypatch):
    """Each JSON block of the README parses with the parser of the command it configures,
    a suite's or compress's, so a removed grammar cannot stay documented."""
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built while parsing")

    monkeypatch.setattr(suite, "init_model", no_model)
    monkeypatch.setattr(suite, "load_model", no_model)
    parsed = []
    for block in _readme_json_blocks():
        doc = json.loads(block)
        parser = parse_suite_config if "pipelines" in doc else suite.parse_compress_config
        parser(doc)
        parsed.append(parser)
    assert parsed == [parse_suite_config, suite.parse_compress_config]


def test_cli_a_key_given_twice_is_an_error_in_every_command(tmp_path, capsys):
    """json keeps the last of a repeated key, which would drop the first value unmentioned;
    a config file that repeats one exits 2, naming it, and writes nothing.  A file without
    a repeated key loads as json.loads reads it."""
    suite_text = json.dumps(small_suite_doc(tmp_path))
    compress_text = json.dumps({"model": FRESH, "passes": [Q8]})
    for text in (suite_text, compress_text):
        (tmp_path / "config.json").write_text(text)
        assert _load_json(tmp_path / "config.json") == json.loads(text)
    cases = [("run", suite_text.replace('"pipelines": [', '"pipelines": [], "pipelines": ['),
              "pipelines", "o"),
             ("compress", compress_text.replace('"bits": 8', '"bits": 4, "bits": 8'), "bits",
              "m.lmz")]
    for command, text, key, out in cases:
        (tmp_path / "config.json").write_text(text)
        rc, printed, err = run_main(capsys, command, "--config", str(tmp_path / "config.json"),
                                    "--out", str(tmp_path / out))
        assert rc == 2 and printed == ""
        assert err == f"error: config keys must be unique: {key!r} is repeated\n"
        assert not (tmp_path / out).exists()


@pytest.mark.parametrize("name", [" q8 ", "   "], ids=["padded", "blank"])
def test_parse_rejects_a_pipeline_name_that_metrics_csv_cannot_round_trip(
        tmp_path, capsys, monkeypatch, name):
    """ingest_metrics strips every cell, so score on run's metrics.csv would read another
    name, or none; parsing rejects the name before any model is built."""
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built while parsing")

    monkeypatch.setattr(suite, "init_model", no_model)
    doc = small_suite_doc(tmp_path)
    doc["pipelines"].append({"name": name, "passes": [Q8]})
    rc, printed, err = run_suite_doc(capsys, tmp_path, doc)
    assert rc == 2 and printed == ""
    assert err == (f"error: pipelines[3].name {name!r} starts or ends with whitespace, "
                   "which metrics.csv strips\n")
    assert not (tmp_path / "o").exists()


def test_cli_run_base_only_suite_writes_no_metrics(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(small_suite_doc(
        tmp_path, pipelines=[{"name": "base", "passes": []}])))
    out_dir = tmp_path / "o"
    rc, out, _ = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 0
    assert "no scoreable pipelines beyond base" in out
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]


def test_cli_run_digest_is_the_suite_file_digest(tmp_path, capsys):
    def digest(seed):
        doc = small_suite_doc(tmp_path)
        doc["model"]["seed"] = seed
        rc, out, _ = run_suite_doc(capsys, tmp_path, doc, out=f"o{seed}")
        assert rc == 0
        got = json.loads((tmp_path / f"o{seed}" / "report.json").read_text())["config_digest"]
        assert f"config digest {got}" in out
        assert got == config_digest(json.loads((tmp_path / "suite.json").read_text()))
        return got

    assert digest(1) != digest(2)

    rc, _, err = run_suite_doc(capsys, tmp_path, small_suite_doc(tmp_path, repetitions=0),
                               out="bad")
    assert rc == 2 and "repetitions" in err
    assert not (tmp_path / "bad").exists()


BAD_STEPS_STUDENT = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
           "distill": {"method": "forward_kld", "steps": "5"}}


@pytest.mark.parametrize("changes", [
    {"perplexity": {"window": "64"}},
    {"calibration": {"sequences": "8"}},
    {"pipelines": [{"name": "base", "passes": []},
                   {"name": "ah", "passes": [{"op": "prune_heads", "threshold": "0.9"}]}]},
    {"pipelines": [{"name": "base", "passes": []},
                   {"name": "q", "passes": [{"op": "quantize", "bits": 8.0}]}]},
    {"students": {"kd": BAD_STEPS_STUDENT}},
    {"carbon_intensity_g_per_kwh": "abc"},
    {"profiles": [{"name": "p", "alpha": "a", "beta": 0.5}]},
    {"repetitions": True},
    {"energy_source": {"kind": "synthetic", "energy_deltas_j": ["abc"]}},
    {"model": {"config": {"n_layers": True, "n_heads": 2, "d_model": 32, "d_ff": 128}}},
], ids=["window", "sequences", "threshold", "bits", "steps", "carbon", "alpha",
        "bool-reps", "deltas", "bool-layers"])
def test_cli_run_wrong_typed_values_exit_two(tmp_path, capsys, changes):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(small_suite_doc(tmp_path, **changes)))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path),
                          "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err.startswith("error:")
    assert next(iter(changes)) in err  # the top-level key changed


def test_cli_distill_wrong_typed_steps_exit_two(tmp_path, capsys):
    rc, _, err = distill_main(capsys, tmp_path, BAD_STEPS_STUDENT, "--out", str(tmp_path / "s.lmz"),
                              model={"config": BAD_STEPS_STUDENT["config"]}, corpus=TOY_CORPUS)
    assert rc == 2
    assert err == "error: students['s'].distill: steps must be an integer >= 0, got '5'\n"
    assert not (tmp_path / "s.lmz").exists()


def test_parse_rejects_distill_after_other_passes(tmp_path, capsys, monkeypatch):
    """compose's rule that a distill pass comes first is applied when the suite is
    parsed, so the run exits 2 before any student is trained."""
    doc = small_suite_doc(tmp_path, students={"kd": TRAINED})
    doc["pipelines"] += [{"name": "kd", "passes": [{"op": "distill", "student": "kd"}]},
                         {"name": "late", "passes": [{"op": "quantize", "bits": 8},
                                                     {"op": "distill", "student": "kd"}]}]
    with pytest.raises(DomainError, match="pipeline 'late': distill pass 'kd' must come first"):
        parse_suite_config(doc)
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error: pipeline 'late':")
    assert built == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("row, line", [
    ("m,acc,higher,0.25,nan,0.5", 4),
    ("m,acc,higher,0.25,0.6,inf", 4),
    ("m,acc,higher,nan,0.6,0.5", 4),
    ("m,perplexity,lower,,-inf,12", 4),
])
def test_ingest_rejects_non_finite_values(tmp_path, row, line):
    body = "m,time_s,lower,,1,2\nm,energy_kwh,lower,,1,2\n" + row + "\n"
    with pytest.raises(ParseError) as exc:
        ingest_metrics(write_csv(tmp_path, body))
    assert exc.value.line == line


@pytest.mark.parametrize("changes", [
    {"corpus": 5},
    {"model": {"path": 7}},
    {"students": {"s": {"path": 3}}},
    {"energy_source": {"kind": "counter", "path": 4, "wrap_max_microjoules": 100}},
    {"profiles": [{"name": 1, "alpha": 0.5, "beta": 0.5}]},
    {"pipelines": [{"name": "base", "passes": []},
                   {"name": "kd", "passes": [{"op": "distill", "student": 2}]}]},
], ids=["corpus", "model-path", "student-path", "counter-path", "profile-name",
        "distill-student"])
def test_cli_run_wrong_typed_strings_exit_two(tmp_path, capsys, changes):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(small_suite_doc(tmp_path, **changes)))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path),
                          "--out", str(tmp_path / "out"))
    assert rc == 2
    assert err.startswith("error:") and "must be a non-empty string" in err


def test_cli_distill_wrong_typed_corpus_exits_two(tmp_path, capsys):
    rc, _, err = distill_main(capsys, tmp_path, TRAINED, "--out", str(tmp_path / "s.lmz"),
                              model={"config": TRAINED["config"]}, corpus=5)
    assert rc == 2
    assert err == "error: corpus must be a non-empty string, got 5\n"


def test_cli_distill_names_a_corpus_outside_the_teacher_vocabulary(tmp_path, capsys, monkeypatch):
    """The corpus is checked against the teacher before any seqkd prompt is decoded."""
    import shrinklab.cli as cli
    decoded = []
    monkeypatch.setattr(cli, "seqkd_corpus", lambda *a, **k: decoded.append(a))
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:400])
    small = dict(BAD_STEPS_STUDENT["config"], vocab_size=100)
    rc, out, err = distill_main(
        capsys, tmp_path, {"config": small, "window": 16,
                           "distill": {"method": "seqkd", "steps": 2}},
        "--out", str(tmp_path / "s.lmz"), model={"config": small}, corpus=str(corpus))
    assert rc == 2 and out == ""
    assert err == f"error: corpus {corpus}: token ids must lie in [0, 100)\n"
    assert decoded == [] and not (tmp_path / "s.lmz").exists()


def test_run_suite_builds_only_referenced_students(tmp_path, capsys, monkeypatch):
    import shrinklab.cli as cli
    built = []
    real_build = cli.build_student

    def counting_build(teacher, spec, corpus):
        built.append(spec)
        return real_build(teacher, spec, corpus)

    monkeypatch.setattr(cli, "build_student", counting_build)
    # a student no pipeline uses is never built, so its missing file is harmless
    doc = small_suite_doc(tmp_path, students={"s": {"path": str(tmp_path / "missing.lmz")}})
    report = run_suite(parse_suite_config(doc))
    assert built == []
    assert all("opt" in r for r in report.rows)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    rc, _, _ = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert rc == 0


@pytest.mark.parametrize("changes, named", [
    ({"calibration": {"length": 100}}, "calibration"),
    ({"perplexity": {"window": 100}}, "window"),
    ({"perplexity": {"window": 32, "stride": 64}}, "stride"),
], ids=["calibration-length", "window", "stride"])
def test_run_checks_the_base_context_before_any_student_is_trained(
        tmp_path, capsys, monkeypatch, changes, named):
    """Perplexity windows longer than the base model's context are fatal, even with no
    prune_heads pipeline, and so is a calibration longer than it once a pipeline prunes
    the base model's heads; no student is trained first."""
    import shrinklab.cli as cli
    built = []
    monkeypatch.setattr(cli, "build_student", lambda *args: built.append(args))
    doc = small_suite_doc(tmp_path, **changes)
    doc["students"] = {"kd": {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
                              "distill": {"method": "forward_kld", "steps": 1}}}
    doc["pipelines"].append({"name": "kd", "passes": [{"op": "distill", "student": "kd"}]})
    if "calibration" in changes:  # only a head-pruning pipeline cuts the calibration
        doc["pipelines"].append({"name": "ah", "passes": [{"op": "prune_heads", "threshold": 0.9}]})
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(DomainError, match=named):
        run_suite(parse_suite_config(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:") and named in err
    assert built == []
    assert not (tmp_path / "o").exists()


def _spied_suite(tmp_path, monkeypatch, doc):
    """doc written to suite.json, and the specs build_student will be asked for."""
    import shrinklab.cli as cli
    built = []
    real_build = cli.build_student

    def spy(teacher, spec, corpus):
        built.append(spec)
        return real_build(teacher, spec, corpus)

    monkeypatch.setattr(cli, "build_student", spy)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path, built


TRAINED = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
           "distill": {"method": "forward_kld", "steps": 1}}


def _run_with_student_spy(tmp_path, capsys, monkeypatch, doc, student_context=64):
    """main(["run", ...]) on doc plus a distilled student 'kd'; returns rc, stderr
    and the students build_student was asked for."""
    doc["students"] = {"kd": dict(TRAINED, config=dict(TRAINED["config"],
                                                       context_len=student_context))}
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    return rc, err, built


def test_run_rejects_repeated_profiles_before_any_student_is_built(tmp_path, capsys, monkeypatch):
    doc = small_suite_doc(tmp_path, profiles=["balanced", "energy", "energy"])
    doc["pipelines"].append({"name": "kd", "passes": [{"op": "distill", "student": "kd"}]})
    rc, err, built = _run_with_student_spy(tmp_path, capsys, monkeypatch, doc)
    assert rc == 2 and err.startswith("error:")
    assert "weight profile names must be unique" in err and "'energy'" in err
    assert built == []
    assert not (tmp_path / "o").exists()


def test_run_checks_calibration_against_a_pruned_students_context(tmp_path, capsys, monkeypatch):
    """Calibration that fits the base model but not a student whose heads a
    pipeline prunes is fatal before the student is trained."""
    doc = small_suite_doc(tmp_path, calibration={"length": 14})
    doc["pipelines"] += [{"name": "kd", "passes": [{"op": "distill", "student": "kd"}]},
                         {"name": "kd+ah", "passes": [{"op": "distill", "student": "kd"},
                                                      {"op": "prune_heads", "threshold": 0.9}]}]
    rc, err, built = _run_with_student_spy(tmp_path, capsys, monkeypatch, doc, student_context=12)
    assert rc == 2 and err.startswith("error:")
    assert "calibration length 14 exceeds context length 12" in err and "'kd'" in err
    assert built == []
    # the same student without a head-pruning pipeline is never probed; its context
    # is still shorter than the perplexity window, and that too is fatal before training
    doc["pipelines"].pop()
    rc, err, built = _run_with_student_spy(tmp_path, capsys, monkeypatch, doc, student_context=12)
    assert rc == 2 and "calibration" not in err
    assert "student 'kd': perplexity window must lie in [2, 12]" in err
    assert built == []


def test_run_checks_calibration_against_a_saved_students_context(tmp_path, capsys, monkeypatch):
    """A saved student is loaded first and probed like a trained one, so a calibration
    longer than its context is fatal before any configured student is trained."""
    saved = tmp_path / "kd.lmz"
    save_model(init_model(ModelConfig(1, 2, 32, 128, context_len=12), seed=1), saved)
    doc = small_suite_doc(tmp_path, calibration={"length": 14},
                          students={"kd": {"path": str(saved)}, "trained": TRAINED})
    doc["pipelines"] += [{"name": "kd+ah", "passes": [{"op": "distill", "student": "kd"},
                                                      {"op": "prune_heads", "threshold": 0.9}]},
                         {"name": "trained", "passes": [{"op": "distill", "student": "trained"}]}]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    with pytest.raises(DomainError, match="calibration length 14 exceeds context length 12"):
        run_suite(parse_suite_config(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:")
    assert "calibration length 14 exceeds context length 12" in err and "'kd'" in err
    assert built == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("context_len, corpus_bytes, error", [
    (16, 600, "calibration length 32 exceeds context length 16"),
    (64, 200, "corpus of 200 tokens cannot supply 256 calibration tokens"),
], ids=["base-context-16", "corpus-200"])
def test_run_cuts_the_calibration_only_for_a_suite_that_prunes_heads(
        tmp_path, capsys, context_len, corpus_bytes, error):
    """A calibration the base model cannot supply is no error until a pipeline prunes heads."""
    (tmp_path / "corpus.txt").write_bytes(
        bundled.path("toy_corpus.txt").read_bytes()[:corpus_bytes])
    doc = small_suite_doc(
        tmp_path, model={"config": dict(TRAINED["config"], context_len=context_len), "seed": 5},
        perplexity={"window": 16})
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 0 and err == ""
    rows = json.loads((tmp_path / "o" / "report.json").read_text())["rows"]
    assert [r["pipeline"] for r in rows] == ["base", "8bit", "sparse"]

    doc["pipelines"].append({"name": "ah", "passes": [{"op": "prune_heads", "threshold": 0.9}]})
    cfg_path.write_text(json.dumps(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "p"))
    assert rc == 2 and err == f"error: {error}\n"
    assert not (tmp_path / "p").exists()


def test_run_checks_the_calibration_only_against_models_whose_heads_are_pruned(tmp_path):
    """A base model shorter than the calibration is no error when only a student's
    heads are pruned: the calibration is checked against that student's context."""
    doc = small_suite_doc(
        tmp_path, model={"config": dict(TRAINED["config"], context_len=16), "seed": 5},
        perplexity={"window": 16}, students={"kd": TRAINED})
    doc["pipelines"].append({"name": "kd+ah", "passes": [{"op": "distill", "student": "kd"},
                                                         {"op": "prune_heads", "threshold": 0.9}]})
    report = run_suite(parse_suite_config(doc))
    assert [r["pipeline"] for r in report.rows] == ["base", "8bit", "sparse", "kd+ah"]


def test_run_suite_measures_every_pipeline_with_the_base_window(tmp_path, capsys, monkeypatch):
    """With no perplexity block the window is the base model's context, for students too:
    a student with a shorter context ends the run before any student is trained,
    instead of being scored over shorter windows."""
    doc = small_suite_doc(tmp_path, students={
        "a": TRAINED, "short": dict(TRAINED, config=dict(TRAINED["config"], context_len=16))})
    del doc["perplexity"]
    doc["pipelines"] += [{"name": "a", "passes": [{"op": "distill", "student": "a"}]},
                         {"name": "short", "passes": [{"op": "distill", "student": "short"}]},
                         {"name": "short+8bit", "passes": [{"op": "distill", "student": "short"},
                                                           {"op": "quantize", "bits": 8}]}]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    with pytest.raises(DomainError, match=r"student 'short': perplexity window must lie in "
                                          r"\[2, 16\]"):
        run_suite(parse_suite_config(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error: student 'short': perplexity window")
    assert built == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("distill, seqkd, named", [
    ({}, {"length": 100}, "seqkd prompt_len 8 plus length 100 exceeds context length 64"),
    ({"ce_mix_lambda": 0.5}, {}, "ce_mix_lambda"),
    ({}, {"prompts": 1, "prompt_len": 2, "length": 2},
     "corpus of 4 tokens is shorter than one window of 32 plus a target"),
], ids=["does-not-fit", "ce-mix", "short-corpus"])
def test_run_rejects_a_seqkd_student_before_any_student_is_built(
        tmp_path, capsys, monkeypatch, distill, seqkd, named):
    """A seqkd student that cannot be trained ends the run with exit 2, naming it,
    before any student is built."""
    sk = {"config": TRAINED["config"], "seqkd": seqkd,
          "distill": dict({"method": "seqkd", "steps": 1}, **distill)}
    doc = small_suite_doc(tmp_path, students={"sk": sk, "a": TRAINED})
    doc["pipelines"] += [{"name": n, "passes": [{"op": "distill", "student": n}]}
                         for n in ("a", "sk")]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:")
    assert named in err and "'sk'" in err
    assert built == []
    assert not (tmp_path / "o").exists()


def test_run_checks_a_seqkd_students_window_against_its_decoded_tokens(
        tmp_path, capsys, monkeypatch):
    """The pre-flight decodes a seqkd student's tokens and checks the training window
    against their real count, so too few of them exit 2, naming the student, and no
    student is trained."""
    import shrinklab.cli as cli
    trained = []
    monkeypatch.setattr(cli, "seqkd_corpus", lambda *a, **k: np.arange(10))
    monkeypatch.setattr(cli, "train_student", lambda *args, **kwargs: trained.append(args))
    sk = {"config": TRAINED["config"], "distill": {"method": "seqkd", "steps": 1}}
    doc = small_suite_doc(tmp_path, students={"sk": sk, "a": TRAINED})
    doc["pipelines"] += [{"name": n, "passes": [{"op": "distill", "student": n}]}
                         for n in ("a", "sk")]
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    rc, out, err = run_main(capsys, "run", "--config", str(cfg_path),
                            "--out", str(tmp_path / "o"))
    assert rc == 2 and out == ""
    assert err == ("error: student 'sk': corpus of 10 tokens is shorter than one window "
                   "of 32 plus a target\n")
    assert trained == []
    assert not (tmp_path / "o").exists()


def test_run_checks_a_seqkd_students_window_range_before_decoding(
        tmp_path, capsys, monkeypatch):
    """A window that fits neither context needs no tokens to reject, so a seqkd
    student's continuations are never decoded for it."""
    import shrinklab.cli as cli
    decoded = []
    monkeypatch.setattr(cli, "seqkd_corpus", lambda *a, **k: decoded.append(a))
    sk = {"config": TRAINED["config"], "distill": {"method": "seqkd", "steps": 1},
          "window": 100}
    doc = small_suite_doc(tmp_path, students={"sk": sk})
    doc["pipelines"].append({"name": "sk", "passes": [{"op": "distill", "student": "sk"}]})
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    rc, out, err = run_main(capsys, "run", "--config", str(cfg_path),
                            "--out", str(tmp_path / "o"))
    assert rc == 2 and out == ""
    assert err == "error: student 'sk': window must lie in [1, 64]\n"
    assert decoded == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change, named", [
    ({"window": 100}, "window must lie in [1, 64]"),
    ({"config": dict(TRAINED["config"], vocab_size=128)}, "share a vocabulary"),
], ids=["window", "vocab"])
def test_run_rejects_a_student_that_cannot_train_before_any_student_is_built(
        tmp_path, capsys, monkeypatch, change, named):
    """A training window or vocabulary that train_student would reject ends the run
    with exit 2, naming the student, before any student is built."""
    doc = small_suite_doc(tmp_path, students={"a": TRAINED, "kd": dict(TRAINED, **change)})
    doc["pipelines"] += [{"name": n, "passes": [{"op": "distill", "student": n}]}
                         for n in ("a", "kd")]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:")
    assert named in err and "'kd'" in err
    assert built == []
    assert not (tmp_path / "o").exists()


def test_run_names_a_student_whose_training_diverged_before_measuring(
        tmp_path, capsys, monkeypatch):
    """A student whose training diverges ends the run with exit 2 as soon as it
    is trained, named like the pre-flight names it; no pipeline is measured."""
    import shrinklab.cli as cli
    measured = []
    monkeypatch.setattr(cli, "measure", lambda *a, **k: measured.append(a))
    kd = dict(TRAINED, distill={"method": "forward_kld", "steps": 5, "learning_rate": 1e300})
    doc = small_suite_doc(tmp_path, students={"a": TRAINED, "kd": kd})
    doc["pipelines"] += [{"name": n, "passes": [{"op": "distill", "student": n}]}
                         for n in ("a", "kd")]
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    rc, out, err = run_main(capsys, "run", "--config", str(cfg_path),
                            "--out", str(tmp_path / "o"))
    assert rc == 2 and out == ""
    assert err == "error: student 'kd': training diverged: loss nan at step 2\n"
    assert measured == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("saved_bytes, named", [
    (None, "No such file"), (b"not a model", "missing header line"),
], ids=["missing", "malformed"])
def test_run_rejects_a_saved_student_that_cannot_load_before_any_is_trained(
        tmp_path, capsys, monkeypatch, saved_bytes, named):
    """A saved student that cannot be loaded ends the run with exit 2, naming it,
    before any configured student is trained."""
    saved = tmp_path / "s.lmz"
    if saved_bytes is not None:
        saved.write_bytes(saved_bytes)
    doc = small_suite_doc(tmp_path, students={"s": {"path": str(saved)}, "a": TRAINED})
    doc["pipelines"] += [
        {"name": "a", "passes": [{"op": "distill", "student": "a"}]},
        {"name": "s+8bit", "passes": [{"op": "distill", "student": "s"},
                                      {"op": "quantize", "bits": 8}]},
    ]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    with pytest.raises(DomainError, match="student 's'"):
        run_suite(parse_suite_config(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:")
    assert "student 's'" in err and named in err
    assert built == []
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_saved_student_with_another_vocabulary_before_any_is_trained(
        tmp_path, capsys, monkeypatch):
    """A saved student is held to the shared-vocabulary rule a trained one is: a
    smaller softmax would win a perplexity comparison by its size alone."""
    saved = tmp_path / "v128.lmz"
    save_model(init_model(ModelConfig(1, 2, 32, 128, vocab_size=128), seed=1), saved)
    doc = small_suite_doc(tmp_path, students={"v128": {"path": str(saved)}, "a": TRAINED})
    doc["pipelines"] += [{"name": n, "passes": [{"op": "distill", "student": n}]}
                         for n in ("a", "v128")]
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert err.startswith("error: student 'v128': student and teacher must share a vocabulary")
    assert built == []
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_corpus_outside_the_base_vocabulary_before_any_student_is_built(
        tmp_path, capsys, monkeypatch):
    """The corpus is checked against the base model once, before any student is
    built: a byte at or above vocab_size ends the run with exit 2, naming the corpus."""
    doc = small_suite_doc(tmp_path, students={"a": TRAINED})
    doc["model"]["config"]["vocab_size"] = 100
    doc["pipelines"].append({"name": "a", "passes": [{"op": "distill", "student": "a"}]})
    cfg_path, built = _spied_suite(tmp_path, monkeypatch, doc)
    with pytest.raises(DomainError, match=r"token ids must lie in \[0, 100\)"):
        run_suite(parse_suite_config(doc))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:")
    assert f"corpus {doc['corpus']}: token ids must lie in [0, 100)" in err
    assert built == []
    assert not (tmp_path / "o").exists()


def _saved_overflowing_model(tmp_path) -> str:
    """The path of a saved model with finite weights whose float32 forward overflows."""
    saved = tmp_path / "big.lmz"
    save_model(overflowing_model(), saved)
    return str(saved)


def test_cli_an_overflowing_forward_exits_two_with_a_typed_error(tmp_path, capsys):
    """Finite weights whose float32 forward overflows give nan, not a warning: perplexity
    rejects it, as a prune_heads pass and run already do (numpy's RuntimeWarnings are errors
    here)."""
    saved = {"path": _saved_overflowing_model(tmp_path)}
    rc, printed, err = perplexity_main(capsys, tmp_path, model=saved, corpus=TOY_CORPUS)
    assert rc == 2 and printed == ""
    assert err == "error: perplexity must be a finite number, got nan\n"
    rc, printed, err = compress_main(capsys, tmp_path, model=saved, corpus=TOY_CORPUS,
                                     passes=[PRUNE_HEADS_09])
    assert rc == 2 and printed == ""
    assert err == "error: head concentration of layer 0, head 0 is not finite: nan\n"
    rc, printed, err = run_suite_doc(capsys, tmp_path, small_suite_doc(tmp_path, model=saved))
    assert rc == 2 and printed == ""
    assert err.startswith("error: base pipeline cannot be scored:")
    assert not (tmp_path / "o").exists()


def test_cli_an_overflowing_mean_nll_exits_two_with_a_typed_error(tmp_path, capsys):
    """Finite logits whose mean NLL overflows exp give an infinite perplexity, not a
    warning, which the perplexity command and a suite's base row both reject."""
    model = init_model(ModelConfig(2, 4, 64, 256), seed=0)
    model.weights.ln_f_g[:] = 1e30
    saved = tmp_path / "lnf.lmz"
    save_model(model, saved)
    rc, printed, err = perplexity_main(capsys, tmp_path, model={"path": str(saved)},
                                       corpus=TOY_CORPUS)
    assert rc == 2 and printed == ""
    assert err == "error: perplexity must be a finite number, got inf\n"
    rc, printed, err = run_suite_doc(capsys, tmp_path,
                                     small_suite_doc(tmp_path, model={"path": str(saved)}))
    assert rc == 2 and printed == ""
    assert err.startswith("error: base pipeline cannot be scored:")
    assert not (tmp_path / "o").exists()


def test_cli_distill_a_seqkd_teacher_whose_forward_overflows_exits_two(
        tmp_path, capsys, monkeypatch):
    """Its nan logits would decode to zero bytes; generate rejects the step instead."""
    trained = []
    monkeypatch.setattr(cli, "train_student", lambda *args, **kw: trained.append(args))
    out_path = tmp_path / "student.lmz"
    rc, printed, err = distill_main(capsys, tmp_path, SEQKD_STUDENT, "--out", str(out_path),
                                    model={"path": _saved_overflowing_model(tmp_path)},
                                    corpus=TOY_CORPUS)
    assert rc == 2 and printed == ""
    assert err == "error: student 's': generate: the logits of step 1 are not finite\n"
    assert trained == [] and not out_path.exists()


def test_run_rejects_a_seqkd_student_of_a_base_whose_forward_overflows(
        tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "train_student", lambda *args, **kw: trained.append(args))
    doc = small_suite_doc(tmp_path, model={"path": _saved_overflowing_model(tmp_path)},
                          students={"sk": SEQKD_STUDENT})
    doc["pipelines"].append({"name": "sk", "passes": [{"op": "distill", "student": "sk"}]})
    rc, printed, err = run_suite_doc(capsys, tmp_path, doc)
    assert rc == 2 and printed == ""
    assert err == "error: student 'sk': generate: the logits of step 1 are not finite\n"
    assert trained == []
    assert not (tmp_path / "o").exists()


def test_cli_distill_checks_a_seqkd_students_window_range_before_decoding(
        tmp_path, capsys, monkeypatch):
    """As in a suite's pre-flight, a window that fits neither context costs no decode."""
    decoded = []
    monkeypatch.setattr(cli, "seqkd_corpus", lambda *a, **k: decoded.append(a))
    out_path = tmp_path / "student.lmz"
    rc, printed, err = distill_main(capsys, tmp_path, dict(SEQKD_STUDENT, window=100),
                                    "--out", str(out_path), corpus=TOY_CORPUS,
                                    model={"config": SEQKD_STUDENT["config"], "seed": 0})
    assert rc == 2 and printed == ""
    assert err == "error: student 's': window must lie in [1, 64]\n"
    assert decoded == [] and not out_path.exists()


def test_cli_run_nan_student_exits_two(tmp_path, capsys, monkeypatch):
    """A pipeline whose result cannot be scored, here a NaN perplexity from a NaN
    weight, ends the run: no non-finite score reaches a report or a ranking.
    A saved NaN weight is rejected on load, so the scoring check gets its NaN
    model in memory."""
    nan_model = init_model(ModelConfig(1, 2, 32, 128), seed=1)
    nan_model.weights.ln_f_g[0] = np.nan
    saved = tmp_path / "nan.lmz"
    save_model(nan_model, saved)
    doc = small_suite_doc(tmp_path, students={"nan": {"path": str(saved)}})
    doc["pipelines"].append({"name": "nan", "passes": [{"op": "distill", "student": "nan"}]})
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rc, out, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 2 and out == ""
    assert err.startswith("error: student 'nan': ln_f.g entries must be finite (byte ")
    assert not out_dir.exists()

    monkeypatch.setattr(suite, "load_model", lambda path: nan_model)
    rc, out, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(out_dir))
    assert rc == 2 and out == ""
    assert err.startswith("error: nan pipeline cannot be scored:")
    assert not out_dir.exists()

    # the base model gets the same wording
    cfg_path.write_text(json.dumps(dict(doc, model={"path": str(saved)})))
    rc, _, err = run_main(capsys, "run", "--config", str(cfg_path),
                          "--out", str(tmp_path / "out2"))
    assert rc == 2 and err.startswith("error: base pipeline cannot be scored:")
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("case, extra", [
    ("perplexity", {"corpus": TOY_CORPUS}),
    ("quantize", {"passes": [Q8]}),
    ("prune-24", {"passes": [{"op": "prune_2_4"}]}),
    ("prune-heads", {"corpus": TOY_CORPUS,
                     "passes": [{"op": "prune_heads", "threshold": 0.5}]}),
])
def test_cli_negative_seed_exits_two(tmp_path, capsys, case, extra):
    """A model's seed is checked by the model spec parser that a suite's goes through."""
    model = dict(FRESH, seed=-1)
    if "passes" in extra:
        rc, _, err = compress_main(capsys, tmp_path, "--out", str(tmp_path / "m.lmz"),
                                   model=model, **extra)
    else:
        rc, _, err = perplexity_main(capsys, tmp_path, model=model, **extra)
    assert rc == 2
    assert err == "error: model.seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "m.lmz").exists()


# ---------------------------------------------------------------------------
# config objects check their own fields, and parsing builds them all

@pytest.mark.parametrize("build", [
    lambda: Quantize(8.0),
    lambda: PruneHeads("0.9"),
    lambda: DistillRef(3),
    lambda: DistillConfig("forward_kld", steps="5"),
    lambda: DistillConfig("forward_kld", steps=2.5),
    lambda: DistillConfig("forward_kld", seed=-1),
    lambda: WeightProfile("p", "0.5", 0.5),
    lambda: PowerModel("3"),
    lambda: CounterFile(5, 1000),
    lambda: CounterFile("uj", 1000.0),
    lambda: SyntheticClock(5),
], ids=["bits", "threshold", "student", "steps-str", "steps-float", "seed", "alpha",
        "watts", "counter-path", "wrap", "deltas"])
def test_constructors_reject_wrong_types(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("changes", [
    {"energy_source": {"kind": "power", "watts": -1}},
    {"energy_source": {"kind": "synthetic", "energy_deltas_j": []}},
    {"energy_source": {"kind": "synthetic", "time_deltas_s": [-1]}},
    {"energy_source": {"kind": "counter", "path": "uj", "wrap_max_microjoules": 0}},
    {"energy_source": {"kind": "power", "watts": 3, "clock": 1}},
    {"carbon_intensity_g_per_kwh": -1},
    {"perplexity": {"window": 1}},
    {"students": {"sk": {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
                         "distill": {"method": "seqkd"}, "seqkd": {"prompts": 2.0}}}},
    {"quality_exponent": -1.5},
    {"quality_exponent": 0},
], ids=["watts", "no-energy-deltas", "time-delta", "wrap", "clock", "carbon", "window",
        "seqkd-prompts", "exponent-negative", "exponent-zero"])
def test_parse_rejects_bad_values_before_any_model_is_built(tmp_path, monkeypatch, changes):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built while parsing")

    monkeypatch.setattr(suite, "init_model", no_model)
    monkeypatch.setattr(suite, "load_model", no_model)
    with pytest.raises(DomainError, match=next(iter(changes))):
        parse_suite_config(small_suite_doc(tmp_path, **changes))


def test_parse_builds_the_objects_a_run_uses(tmp_path):
    student = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
               "distill": {"method": "seqkd", "steps": 3}, "seqkd": {"length": 10}}
    doc = small_suite_doc(tmp_path, students={"sk": student,
                                              "saved": {"path": "s.lmz"}},
                          profiles=["energy", {"name": "p", "alpha": 1, "beta": 0}])
    cfg = parse_suite_config(doc)
    assert cfg.model.config == ModelConfig(1, 2, 32, 128) and cfg.model.seed == 5
    sk = cfg.students["sk"]
    assert sk.distill == DistillConfig("seqkd", steps=3)
    assert (sk.seqkd.prompts, sk.seqkd.prompt_len, sk.seqkd.length) == (12, 8, 10)
    assert sk.window is None
    assert cfg.students["saved"].path == "s.lmz"
    assert [p.passes for p in cfg.pipelines] == [[], [Quantize(8)], [Prune24()]]
    assert [p.name for p in cfg.profiles] == ["energy", "p"]
    # every call makes a fresh source, at the start of its script
    first, second = cfg.energy_source(), cfg.energy_source()
    assert first is not second
    assert first.stop() == second.stop() == (0.5, 2.0)


def test_run_suite_twice_on_one_config_gives_identical_reports(tmp_path):
    """The energy source is built per run: a synthetic script restarts each time."""
    # 3 pipelines x 2 repetitions = 6 cycles, not a multiple of the scripts'
    # length, so a source shared between runs would shift the second report
    cfg = parse_suite_config(small_suite_doc(
        tmp_path, energy_source={"kind": "synthetic", "energy_deltas_j": [2.0, 1.0, 4.0, 3.0],
                                 "time_deltas_s": [0.5, 0.25, 1.0, 0.75]}))
    assert run_suite(cfg).json() == run_suite(cfg).json()


def test_cli_distill_rejects_a_key_given_twice(tmp_path, capsys):
    """A training window beside the student's, at the top of the config, is an unknown key."""
    rc, _, err = distill_main(capsys, tmp_path, dict(TRAINED, window=16),
                              "--out", str(tmp_path / "s.lmz"), window=32,
                              model={"config": TRAINED["config"]}, corpus=TOY_CORPUS)
    assert rc == 2 and err == "error: compress config: unknown keys ['window']\n"
    assert not (tmp_path / "s.lmz").exists()


def test_cli_distill_reads_window_only_inside_student(tmp_path, capsys):
    rc, _, err = distill_main(capsys, tmp_path, TRAINED, "--out", str(tmp_path / "s.lmz"),
                              window=16, model={"config": TRAINED["config"]}, corpus=TOY_CORPUS)
    assert rc == 2 and err == "error: compress config: unknown keys ['window']\n"
    assert not (tmp_path / "s.lmz").exists()


def test_seqkd_prompts_are_cut_from_a_corpus_of_at_least_prompt_len_tokens():
    prompts = SeqkdPrompts(prompts=2, prompt_len=8, length=8)
    with pytest.raises(DomainError, match="corpus too short to cut seqkd prompts from"):
        prompts.cut(np.arange(7), 64)
    assert [p.tolist() for p in prompts.cut(np.arange(8), 64)] == [list(range(8))] * 2


@pytest.mark.parametrize("method", ["forward_kld", "reverse_kld"])
def test_parse_rejects_a_seqkd_block_no_student_reads(tmp_path, method):
    student = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
               "distill": {"method": method}, "seqkd": {"length": 10}}
    with pytest.raises(DomainError, match="seqkd"):
        parse_suite_config(small_suite_doc(tmp_path, students={"kd": student}))


def test_cli_distill_seed_is_checked_by_distill_config(tmp_path, capsys):
    rc, _, err = distill_main(
        capsys, tmp_path, dict(TRAINED, distill={"method": "forward_kld", "steps": 1, "seed": -1}),
        "--out", str(tmp_path / "s.lmz"), model={"config": TRAINED["config"]}, corpus=TOY_CORPUS)
    assert rc == 2 and err == "error: students['s'].distill: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "s.lmz").exists()


# ---------------------------------------------------------------------------
# scores that cannot be formed, and inputs that cannot be read

OVERFLOW_TABLES = {
    # the perplexity ratio is finite, its power under the quality exponent is not
    "quality-overflow": "m,perplexity,lower,,1e-200,1e100\nm,time_s,lower,,1,2\n"
                        "m,energy_kwh,lower,,1,2\n",
    # quality and cost are finite, their product is not
    "opt-overflow": "m,perplexity,lower,,1e-100,1e100\nm,time_s,lower,,1e-150,1e150\n"
                    "m,energy_kwh,lower,,1,2\n",
}


@pytest.mark.parametrize("table", sorted(OVERFLOW_TABLES))
@SCORE_FILES
def test_cli_unscoreable_table_exits_two(tmp_path, capsys, table, files):
    metrics = write_csv(tmp_path, OVERFLOW_TABLES[table])
    args, paths = score_files(tmp_path, files)
    rc, stdout, err = run_main(capsys, "score", "--metrics", str(metrics), *args)
    assert rc == 2
    assert err.startswith("error:") and "inf" not in stdout
    assert "m under profile balanced:" in err  # the group and profile to fix
    assert not any(path.exists() for path in paths)


@pytest.mark.parametrize("text", [
    '{"repetitions": ' + "9" * 5000 + "}",  # beyond Python's int-string digit limit
    "[" * 100_000,  # deeper than the JSON decoder's recursion limit
    "[]",  # JSON, but not an object
], ids=["huge-integer", "deep-nesting", "not-an-object"])
def test_cli_run_unreadable_json_exits_two(tmp_path, capsys, text):
    config = tmp_path / "suite.json"
    config.write_text(text)
    rc, _, err = run_main(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert rc == 2 and err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_cli_quantize_unsupported_bits_exits_two(tmp_path, capsys):
    out = tmp_path / "q5.lmz"
    rc, _, err = compress_main(capsys, tmp_path, "--out", str(out), model=FRESH,
                               passes=[Q8, {"op": "quantize", "bits": 5}])
    assert rc == 2
    assert err == "error: passes[1]: bits must be one of (4, 8), got 5\n"
    assert not out.exists()


def test_package_import_leaves_the_cli_to_its_entry_point():
    """The library does not import its front end, so running it as a module does not warn."""
    env = dict(os.environ, PYTHONPATH=str(Path(shrinklab.__file__).parents[1]))
    probe = "import sys, shrinklab; sys.exit('shrinklab.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "shrinklab.cli",
                          "--help"], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and not run.stderr


def test_cli_runs_as_a_module_with_warnings_as_errors(tmp_path):
    """python -W error -m shrinklab.cli reaches main(): a command that succeeds exits 0 with
    no warning, and one that fails exits 2 with an error: line."""
    env = dict(os.environ, PYTHONPATH=str(Path(shrinklab.__file__).parents[1]))
    score = [sys.executable, "-W", "error", "-m", "shrinklab.cli", "score", "--metrics"]
    run = subprocess.run(score + [str(bundled.path("gpt2_standalone.csv"))], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0 and not run.stderr
    assert "[balanced]" in run.stdout.splitlines()
    run = subprocess.run(score + [str(tmp_path / "absent.csv")], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 2 and run.stdout == "" and run.stderr.startswith("error:")


def test_tables_and_suite_import_no_module_above_them():
    """tables imports neither suite nor cli, and suite does not import cli."""
    env = dict(os.environ, PYTHONPATH=str(Path(shrinklab.__file__).parents[1]))
    probe = ("import sys\n"
             "import shrinklab.tables\n"
             "assert 'shrinklab.suite' not in sys.modules, 'tables loaded suite'\n"
             "assert 'shrinklab.cli' not in sys.modules, 'tables loaded cli'\n"
             "import shrinklab.suite\n"
             "assert 'shrinklab.cli' not in sys.modules, 'suite loaded cli'\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_cli_reexports_the_moved_names_it_calls():
    assert cli.ingest_metrics is tables.ingest_metrics
    assert cli.parse_suite_config is suite.parse_suite_config
    assert cli.config_digest is suite.config_digest


def test_cli_perplexity_window_one_exits_two(tmp_path, capsys):
    rc, _, err = perplexity_main(capsys, tmp_path, model=FRESH, corpus=TOY_CORPUS,
                                 perplexity={"window": 1})
    assert rc == 2 and err == "error: perplexity.window must be an integer >= 2, got 1\n"


@pytest.mark.parametrize("block, stride, scored", [
    ({}, 64, 4691),  # 75 chunks of 64 tokens, each chunk's first token unscored
    ({"window": 64, "stride": 8}, 8, 4765),  # every token but the corpus's first
], ids=["chunks", "stride-8"])
def test_cli_perplexity_prints_the_tokens_it_scored(tmp_path, capsys, block, stride, scored):
    corpus = tokenize(bundled.path("toy_corpus.txt").read_bytes())
    assert corpus.size == 4766
    ppl = perplexity(init_model(ModelConfig(2, 4, 64, 256), seed=0), corpus,
                     window=64, stride=stride)
    rc, printed, _ = perplexity_main(capsys, tmp_path, corpus=TOY_CORPUS, perplexity=block,
                                     model={"config": {"n_layers": 2, "n_heads": 4,
                                                       "d_model": 64, "d_ff": 256}, "seed": 0})
    assert rc == 0
    assert printed == f"perplexity {ppl!r} over {scored} tokens\n"


def test_non_utf8_inputs_are_parse_errors(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    metrics.write_bytes((HEADER + "\nm,perplexity,lower,,10,12\n").encode() + b"m,t\xffime\n")
    with pytest.raises(ParseError) as exc:
        ingest_metrics(metrics)
    assert exc.value.line == 3
    config = tmp_path / "suite.json"
    config.write_bytes(b'{"corpus":\n "\xfe"}')
    with pytest.raises(ParseError) as exc:
        parse_suite_config(_load_json(config))
    assert exc.value.line == 2
    rc, _, err = run_main(capsys, "score", "--metrics", str(metrics))
    assert rc == 2 and err.startswith("error:")


def test_cli_writes_its_text_files_as_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale run writes a pipeline name that is not ASCII into metrics.csv
    and plot.csv as UTF-8, the encoding score reads: its plot.csv is run's, byte for byte."""
    doc = small_suite_doc(tmp_path)
    doc["pipelines"][1]["name"] = "q8-\u00fc"
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(shrinklab.__file__).parents[1]), LC_ALL="C",
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8")
    out_dir, again = tmp_path / "o", tmp_path / "again.csv"
    for argv in (["run", "--config", str(cfg_path), "--out", str(out_dir)],
                 ["score", "--metrics", str(out_dir / "metrics.csv"), "--plot", str(again)]):
        done = subprocess.run([sys.executable, "-m", "shrinklab.cli", *argv], env=env,
                              capture_output=True)
        assert done.returncode == 0, done.stderr
    assert "q8-\u00fc,perplexity".encode() in (out_dir / "metrics.csv").read_bytes()
    assert again.read_bytes() == (out_dir / "plot.csv").read_bytes()


# ---------------------------------------------------------------------------
# property tests: parsing ends in a value or a typed error, nothing else

def _value_paths(obj, path=()):
    """Key paths to every value below the root of a JSON document, leaves and containers."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


def _property_doc(source):
    student = {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
               "distill": {"method": "seqkd", "steps": 3, "seed": 1},
               "window": 16, "seqkd": {"prompts": 2, "prompt_len": 4, "length": 8}}
    return {
        "model": {"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128},
                  "seed": 5},
        "corpus": "corpus.txt",
        "students": {"kd": student, "saved": {"path": "kd.lmz"}},
        "pipelines": [
            {"name": "base", "passes": []},
            {"name": "q", "passes": [{"op": "distill", "student": "kd"},
                                     {"op": "quantize", "bits": 8},
                                     {"op": "prune_heads", "threshold": 0.9},
                                     {"op": "prune_2_4"}]},
        ],
        "repetitions": 2,
        "energy_source": source,
        "profiles": ["energy", {"name": "p", "alpha": 0.25, "beta": 0.75}],
        "perplexity": {"window": 32, "stride": 16},
        "calibration": {"sequences": 2, "length": 16},
        "carbon_intensity_g_per_kwh": 300.0,
        "quality_exponent": 1.5,
    }


_SOURCES = [{"kind": "synthetic", "energy_deltas_j": [2.0, 1.0], "time_deltas_s": [0.5]},
            {"kind": "power", "watts": 3.5},
            {"kind": "counter", "path": "uj", "wrap_max_microjoules": 1000}]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["base", "kd", "quantize", "distill", "power", "counter", "energy"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=5)


@given(source=st.sampled_from(_SOURCES), pick=st.integers(min_value=0), value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_parse_with_one_value_replaced_returns_or_raises_typed_error(source, pick, value):
    doc = _property_doc(dict(source))
    paths = list(_value_paths(doc))
    *parents, last = paths[pick % len(paths)]
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    try:
        parse_suite_config(doc)
    except (DomainError, ParseError):
        pass


def _run_doc(corpus):
    """A suite that runs in milliseconds: every pass, a seqkd student, one repetition."""
    tiny = {"n_layers": 1, "n_heads": 2, "d_model": 8, "d_ff": 16, "context_len": 16}
    return {
        "model": {"config": dict(tiny), "seed": 1},
        "corpus": str(corpus),
        "students": {"kd": {"config": dict(tiny), "distill": {"method": "seqkd", "steps": 2},
                            "window": 8, "seqkd": {"prompts": 2, "prompt_len": 4, "length": 4}},
                     "saved": {"path": "kd.lmz"}},
        "pipelines": [
            {"name": "base", "passes": []},
            {"name": "q", "passes": [{"op": "distill", "student": "kd"},
                                     {"op": "quantize", "bits": 8},
                                     {"op": "prune_heads", "threshold": 0.9},
                                     {"op": "prune_2_4"}]},
        ],
        "repetitions": 1,
        "energy_source": {"kind": "synthetic", "energy_deltas_j": [2.0, 1.0],
                          "time_deltas_s": [0.5]},
        "profiles": ["energy", {"name": "p", "alpha": 0.25, "beta": 0.75}],
        "perplexity": {"window": 16, "stride": 8},
        "calibration": {"sequences": 2, "length": 8},
        "carbon_intensity_g_per_kwh": 300.0,
        "quality_exponent": 1.5,
    }


# bounded, so that a replaced steps, repetitions or model size stays cheap; a
# plain small integer, the likeliest value to pass parsing, is drawn most often
_RUN_VALUES = st.integers(-2, 8) | st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-2, 8) | st.text(max_size=4)
    | st.sampled_from(["base", "kd", "seqkd", "quantize", "synthetic", "energy"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4)


def _command_doc(command, corpus):
    """_run_doc, or the keys of it that compress (pipeline q's passes) or perplexity reads."""
    doc = _run_doc(corpus)
    if command == "compress":
        return {"model": doc["model"], "corpus": doc["corpus"], "students": doc["students"],
                "passes": doc["pipelines"][1]["passes"], "calibration": doc["calibration"]}
    if command == "perplexity":
        return {key: doc[key] for key in ("model", "corpus", "perplexity")}
    return doc


# each command's output options, as file names under the test's directory
_OUTPUTS = {"run": {"--out": "o"}, "compress": {"--out": "m.lmz", "--report": "r.json"},
            "perplexity": {}}


@given(command=st.sampled_from(sorted(_OUTPUTS)), pick=st.integers(min_value=0),
       value=_RUN_VALUES)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_with_one_value_replaced_exits_zero_or_two(tmp_path, capsys, command, pick, value):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(bundled.path("toy_corpus.txt").read_bytes()[:400])
    doc = _command_doc(command, corpus)
    paths = list(_value_paths(doc))
    *parents, last = paths[pick % len(paths)]
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = [arg for flag, name in _OUTPUTS[command].items() for arg in (flag, tmp_path / name)]
    rc, _, err = run_main(capsys, command, "--config", str(cfg_path), *map(str, outputs))
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error:")


def _set_path(doc, key, path):
    """doc with the config path under key replaced by path."""
    if key == "corpus":
        doc["corpus"] = path
    elif key == "energy_source":
        doc["energy_source"] = {"kind": "counter", "path": path, "wrap_max_microjoules": 10}
    else:  # "model" or a student id
        (doc if key == "model" else doc["students"])[key] = {"path": path}
    return doc


@pytest.mark.parametrize("path", ["a\0b", "\ud800"], ids=["nul", "lone-surrogate"])
@pytest.mark.parametrize("command, key, named", [
    ("run", "corpus", "corpus"),
    ("run", "model", "model.path"),
    ("run", "saved", "students['saved'].path"),
    ("run", "energy_source", "energy_source: path"),
    ("compress", "corpus", "corpus"),
    ("compress", "model", "model.path"),
    ("compress", "saved", "students['saved'].path"),
    ("perplexity", "corpus", "corpus"),
    ("perplexity", "model", "model.path"),
])
def test_a_config_path_no_file_can_have_exits_two_naming_its_key(tmp_path, capsys, command,
                                                                 key, named, path):
    """A path that the OS cannot take is a config error, raised while the config is parsed,
    not a ValueError or UnicodeEncodeError from where the file is opened."""
    doc = _set_path(_command_doc(command, tmp_path / "corpus.txt"), key, path)
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = [arg for flag, name in _OUTPUTS[command].items() for arg in (flag, tmp_path / name)]
    rc, printed, err = run_main(capsys, command, "--config", str(cfg_path), *map(str, outputs))
    assert rc == 2 and printed == ""
    assert err == f"error: {named} must be a path with no NUL or unencodable character, " \
                  f"got {path!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.json"]


# mostly positive numbers, pairs of them 1e300 apart, and a little junk
_CSV_VALUES = st.sampled_from(["0.5", "1", "2", "1e-200", "1e100", "1e300", "nan", ""])


@st.composite
def _metrics_bytes(draw):
    """Arbitrary bytes, or groups of rows shaped like the schema's (so that some
    reach the scorer) with drawn values, a junk row and a stray byte."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    rows = [HEADER]
    for group in draw(st.lists(st.sampled_from("mn"), min_size=1, max_size=3)):
        quality = draw(st.sampled_from(["perplexity,lower,", "acc,higher,0.25"]))
        for metric in (quality, "time_s,lower,", "energy_kwh,lower,"):
            rows.append(f"{group},{metric},{draw(_CSV_VALUES)},{draw(_CSV_VALUES)}")
    rows += draw(st.lists(st.text(max_size=8) | st.sampled_from(['"', "\r", "\x00"]),
                          max_size=1))
    return "\n".join(rows).encode() + draw(st.sampled_from([b"", b"\n", b"\xff", b"\x00"]))


@given(data=_metrics_bytes(), files=st.sets(st.sampled_from(["--out", "--plot"])))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_score_on_arbitrary_bytes_exits_zero_or_two(tmp_path, capsys, data, files):
    metrics = tmp_path / "fuzz.csv"
    metrics.write_bytes(data)
    args, paths = score_files(tmp_path, sorted(files))
    for path in paths:
        path.unlink(missing_ok=True)
    rc, out, _ = run_main(capsys, "score", "--metrics", str(metrics), *args)
    assert rc in (0, 2)
    written = [path.read_text() for path in paths if path.exists()]
    assert len(written) == (len(files) if rc == 0 else 0)
    if rc == 0:  # and a printed or written score is always a finite number
        for text in (out, *written):
            assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", text)
