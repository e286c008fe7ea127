"""The three benchmark workloads.

Each workload builds its inputs from a variant number (the workload seed
modulo VARIANTS), warms up on a tiny copy of its operation, and then runs
operations.  An operation returns one Item per checked output: the output
itself (compared exactly with the first operation of the run), an optional
float (compared with the stored reference), the seconds the benchmark timed
around the call, and the units of work done in them.

Calls go through module attributes (`cli.run_suite`, `model.perplexity`, ...)
so that the tracer's patches are seen.
"""
from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from shrinklab import cli, compress, data, distill, model

VARIANTS = 16

TEACHER = model.ModelConfig(n_layers=2, n_heads=4, d_model=64, d_ff=256)
STUDENT = model.ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=128)
STUDENT_SEED_OFFSET = 3  # criterion 10 pairs model seed 0 with student seed 3
PPL_WINDOW = 64
SWEEP_STRIDE = 8
TRAIN_WINDOW = 32
# calibration of the eval-sweep's masked model: run_suite's defaults
CALIBRATION_SEQUENCES = 8
CALIBRATION_LENGTH = 32
MASK_THRESHOLD = 0.9

# tiny sizes, used for the warm-up and by --quick
TINY_CORPUS_TOKENS = 320  # run_suite needs 8 x 32 calibration tokens
TINY_STEPS = 3
TINY_PROMPTS = 3
TINY_GEN = 4


@dataclass
class Item:
    output: object = None
    value: float | None = None
    seconds: float = 0.0
    work: float = 0.0
    error: str | None = None


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _corpus() -> np.ndarray:
    return model.tokenize(data.path("toy_corpus.txt").read_bytes())


class Workload:
    name = ""
    items: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool, out_dir: Path):
        self.variant = seed % VARIANTS
        self.model_seed = self.variant
        self.student_seed = self.variant + STUDENT_SEED_OFFSET
        self.quick = quick
        self.out_dir = out_dir

    def setup(self) -> None:
        """Build the inputs, then warm up on the tiny operation."""
        self.build()
        self.run(tiny=True)

    def build(self) -> None:
        raise NotImplementedError

    def run(self, tiny: bool = False) -> dict[str, Item]:
        """One operation; tiny (or --quick) runs the small copy."""
        raise NotImplementedError

    def derived(self, ops: list[dict[str, Item]]) -> dict[str, float]:
        """Workload-level rates from untraced operations."""
        return {}

    def close(self) -> None:
        pass


def _rate(ops, names) -> float:
    """Median over operations of work per second summed over the named items."""
    rates = []
    for items in ops:
        secs = sum(items[n].seconds for n in names)
        if secs > 0:
            rates.append(sum(items[n].work for n in names) / secs)
    return statistics.median(rates) if rates else 0.0


# ---------------------------------------------------------------------------

SUITE_PIPELINES = [
    ("base", []),
    ("kd+90ah", ["kd", "ah90"]),
    ("kd+80ah", ["kd", "ah80"]),
    ("kd+8b", ["kd", "q8"]),
    ("kd+4b", ["kd", "q4"]),
    ("8b+90ah", ["ah90", "q8"]),
    ("8b+80ah", ["ah80", "q8"]),
    ("4b+90ah", ["ah90", "q4"]),
    ("4b+80ah", ["ah80", "q4"]),
    ("kd+8b+90ah", ["kd", "ah90", "q8"]),
    ("kd+8b+80ah", ["kd", "ah80", "q8"]),
    ("kd+4b+90ah", ["kd", "ah90", "q4"]),
    ("kd+4b+80ah", ["kd", "ah80", "q4"]),
]
SUITE_PASSES = {
    "kd": {"op": "distill", "student": "kd"},
    "q8": {"op": "quantize", "bits": 8},
    "q4": {"op": "quantize", "bits": 4},
    "ah90": {"op": "prune_heads", "threshold": 0.9},
    "ah80": {"op": "prune_heads", "threshold": 0.8},
}


class SuiteMatrix(Workload):
    """cli.run_suite on the criterion-10 combination matrix."""

    name = "suite-matrix"
    items = tuple(name for name, _ in SUITE_PIPELINES) + ("report",)

    def _doc(self, corpus_path: Path, steps: int) -> dict:
        return {
            "model": {"config": {"n_layers": TEACHER.n_layers, "n_heads": TEACHER.n_heads,
                                 "d_model": TEACHER.d_model, "d_ff": TEACHER.d_ff},
                      "seed": self.model_seed},
            "corpus": str(corpus_path),
            "students": {"kd": {
                "config": {"n_layers": STUDENT.n_layers, "n_heads": STUDENT.n_heads,
                           "d_model": STUDENT.d_model, "d_ff": STUDENT.d_ff},
                "distill": {"method": "forward_kld", "temperature": 2.0,
                            "steps": steps, "learning_rate": 1e-3,
                            "seed": self.student_seed},
                "window": TRAIN_WINDOW,
            }},
            "pipelines": [{"name": name, "passes": [SUITE_PASSES[p] for p in passes]}
                          for name, passes in SUITE_PIPELINES],
            "repetitions": 2,
            "energy_source": {"kind": "synthetic",
                              "energy_deltas_j": [3.0, 2.0, 2.5],
                              "time_deltas_s": [1.0, 1.25]},
            "perplexity": {"window": PPL_WINDOW},
        }

    def build(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tiny_corpus = self.out_dir / f"tiny-corpus-{os.getpid()}.txt"
        self.tiny_corpus.write_bytes(data.path("toy_corpus.txt").read_bytes()[:TINY_CORPUS_TOKENS])
        self.full_doc = self._doc(data.path("toy_corpus.txt"), steps=60)
        self.tiny_doc = self._doc(self.tiny_corpus, steps=TINY_STEPS)

    def run(self, tiny: bool = False) -> dict[str, Item]:
        doc = self.tiny_doc if tiny or self.quick else self.full_doc
        try:
            config = cli.parse_suite_config(doc)
            report, secs = _timed(cli.run_suite, config)
            text = report.json()
        except Exception as exc:  # every row of a failed suite fails
            return {n: Item(error=repr(exc)) for n in self.items}
        rows = {row["pipeline"]: row for row in report.rows}
        items = {"report": Item(output=text, seconds=secs, work=1)}
        for name, _ in SUITE_PIPELINES:
            row = rows.get(name)
            if row is None or "error" in row:
                items[name] = Item(error=str(row and row.get("error")))
            else:
                items[name] = Item(output=repr(sorted(row.items())), value=row["perplexity"])
        return items

    def derived(self, ops):
        return {"suite_s": statistics.median(items["report"].seconds for items in ops)}

    def close(self) -> None:
        tiny = getattr(self, "tiny_corpus", None)
        if tiny is not None:
            tiny.unlink(missing_ok=True)


# ---------------------------------------------------------------------------

class EvalSweep(Workload):
    """model.perplexity at window 64, stride 8, on five prebuilt models."""

    name = "eval-sweep"
    items = ("fp32", "q8", "q4", "sp24", "masked")

    def build(self) -> None:
        self.corpus = _corpus()
        base = model.init_model(TEACHER, seed=self.model_seed)
        calibration = [self.corpus[i * CALIBRATION_LENGTH:(i + 1) * CALIBRATION_LENGTH]
                       for i in range(CALIBRATION_SEQUENCES)]
        report = compress.head_concentration(base, calibration)
        self.models = {
            "fp32": base,
            "q8": compress.quantize_model(base, 8),
            "q4": compress.quantize_model(base, 4),
            "sp24": compress.prune_model_2_4(base),
            "masked": compress.prune_heads(base, report, MASK_THRESHOLD),
        }

    def run(self, tiny: bool = False) -> dict[str, Item]:
        corpus = self.corpus[:TINY_CORPUS_TOKENS] if tiny or self.quick else self.corpus
        items = {}
        for name, m in self.models.items():
            try:
                ppl, secs = _timed(model.perplexity, m, corpus,
                                   window=PPL_WINDOW, stride=SWEEP_STRIDE)
            except Exception as exc:
                items[name] = Item(error=repr(exc))
                continue
            items[name] = Item(output=ppl, value=ppl, seconds=secs, work=corpus.size - 1)
        return items

    def derived(self, ops):
        return {f"eval_tokens_per_s.{name}": _rate(ops, [name]) for name in self.items}


# ---------------------------------------------------------------------------

class DistillTrain(Workload):
    """seqkd_corpus plus three train_student calls against one teacher."""

    name = "distill-train"
    items = ("seqkd_corpus", "forward_kld", "reverse_kld", "seqkd")
    trainings = ("forward_kld", "reverse_kld", "seqkd")

    def build(self) -> None:
        self.corpus = _corpus()
        self.teacher = model.init_model(TEACHER, seed=self.model_seed)

    def _configs(self, steps: int) -> dict[str, distill.DistillConfig]:
        seed = self.student_seed
        return {
            "forward_kld": distill.DistillConfig("forward_kld", temperature=2.0,
                                                 steps=steps, seed=seed),
            "reverse_kld": distill.DistillConfig("reverse_kld", ce_mix_lambda=0.5,
                                                 steps=steps, seed=seed),
            "seqkd": distill.DistillConfig("seqkd", steps=steps, seed=seed),
        }

    def run(self, tiny: bool = False) -> dict[str, Item]:
        tiny = tiny or self.quick
        n_prompts, prompt_len, gen_len = (TINY_PROMPTS, 8, TINY_GEN) if tiny else (12, 8, 24)
        # evenly spaced prompts, as cli.build_student cuts them
        span = self.corpus.size - prompt_len
        prompts = [self.corpus[s:s + prompt_len]
                   for s in ((i * span) // (n_prompts - 1) for i in range(n_prompts))]
        items = {}
        try:
            seq, secs = _timed(distill.seqkd_corpus, self.teacher, prompts, gen_len,
                               mode="greedy", seed=self.student_seed)
            items["seqkd_corpus"] = Item(output=seq.tobytes(), seconds=secs,
                                         work=n_prompts * gen_len)
        except Exception as exc:
            items["seqkd_corpus"] = Item(error=repr(exc))
            seq = None
        for name, dconf in self._configs(TINY_STEPS if tiny else 60).items():
            corpus = seq if name == "seqkd" else self.corpus
            if corpus is None:
                items[name] = Item(error="no seqkd corpus")
                continue
            try:
                res, secs = _timed(distill.train_student, self.teacher, STUDENT, corpus,
                                   dconf, window=TRAIN_WINDOW)
            except Exception as exc:
                items[name] = Item(error=repr(exc))
                continue
            items[name] = Item(output=tuple(res.losses), value=res.losses[-1],
                               seconds=secs, work=dconf.steps)
        return items

    def derived(self, ops):
        return {"distill_steps_per_s": _rate(ops, self.trainings),
                "gen_tokens_per_s": _rate(ops, ["seqkd_corpus"])}


WORKLOADS = {w.name: w for w in (SuiteMatrix, EvalSweep, DistillTrain)}
