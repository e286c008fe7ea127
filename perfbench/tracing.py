"""Spans around shrinklab's public functions, recorded from outside the package.

Each function is replaced, for the length of one traced operation, under the
name its caller looks it up by: `cli.perplexity` for run_suite,
`distill.forward` for train_student's teacher pass, the `dense` method of
`compress.QuantizedTensor` for every dequantization, and so on.  Nothing
under src/ changes.  Spans stay in memory as
[name, start_ns, end_ns, parent_index, attribute] and are summarised per
operation and written out when the run ends.
"""
from __future__ import annotations

import functools
import hashlib
import time
from contextlib import contextmanager

import numpy as np
from shrinklab import cli, compress, distill, model
from shrinklab.compress import DistillRef, QuantizedTensor

NS = 1e-9


class Tracer:
    """In-memory span recorder; one per run, cleared between operations."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def clear(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, attr=None):
        """fn with a span named name around every call.

        attr, if given, maps the call's arguments to the span's attribute:
        a number is summed per span name, any other value is collected as a
        distinct input.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   attr(*args, **kwargs) if attr else None]
            spans = self.spans
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced


def _dequant_bytes(q: QuantizedTensor, dtype=np.float32) -> int:
    """Bytes one dequantization touches, computed from shapes: int8 codes and
    float64 row scales read, the dense result written."""
    return q.codes.size * (1 + np.dtype(dtype).itemsize) + q.scales.size * 8


def _model_input_key(m, calibration) -> str:
    """Content digest of a (model, calibration) pair."""
    h = hashlib.sha1()
    for _, t in model.param_tensors(m):
        if isinstance(t, QuantizedTensor):
            h.update(t.codes.tobytes())
            h.update(t.scales.tobytes())
        else:
            h.update(np.ascontiguousarray(t).tobytes())
    h.update(m.head_mask.tobytes())
    for s in calibration:
        h.update(np.asarray(s).tobytes())
    return h.hexdigest()


def _students_referenced(passes, *args, **kwargs) -> frozenset:
    return frozenset(p.student for p in passes if isinstance(p, DistillRef))


def _forward_tokens(m, tokens, *args, **kwargs) -> int:
    return int(tokens.size)


def _scored_tokens(m, corpus, *args, **kwargs) -> int:
    # perplexity scores every corpus token except the first, exactly once
    return int(np.asarray(corpus).size) - 1


def _generated_tokens(m, prompt, steps, *args, **kwargs) -> int:
    return int(steps)


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""

    def measure_with_work_span(measure):
        def measure_traced(source, work, *args, **kwargs):
            return measure(source, tracer.wrap(work, "meter.work"), *args, **kwargs)
        return measure_traced

    patches = [
        # (owner, attribute, span name, attribute function, pre-wrapper)
        (cli, "parse_suite_config", "cli.parse_suite_config", None, None),
        (cli, "run_suite", "cli.run_suite", None, None),
        (cli, "build_student", "cli.build_student", None, None),
        (cli, "compose", "compress.compose", _students_referenced, None),
        (cli, "measure", "meter.measure", None, measure_with_work_span),
        (cli, "perplexity", "model.perplexity", _scored_tokens, None),
        (cli, "opt_score", "scoring.opt_score", None, None),
        (cli, "train_student", "distill.train_student", None, None),
        (cli, "seqkd_corpus", "distill.seqkd_corpus", None, None),
        (compress, "quantize_model", "compress.quantize_model", None, None),
        (compress, "prune_model_2_4", "compress.prune_model_2_4", None, None),
        (compress, "head_concentration", "compress.head_concentration",
         _model_input_key, None),
        (QuantizedTensor, "dense", "compress.dequant", _dequant_bytes, None),
        (model, "_forward_full", "model.forward", _forward_tokens, None),
        (model, "perplexity", "model.perplexity", _scored_tokens, None),
        (distill, "_forward_full", "model.forward", _forward_tokens, None),
        (distill, "generate", "model.generate", _generated_tokens, None),
        (distill, "forward", "distill.teacher_forward", None, None),
        (distill, "backward", "distill.backward", None, None),
        (distill, "train_student", "distill.train_student", None, None),
        (distill, "seqkd_corpus", "distill.seqkd_corpus", None, None),
    ]
    saved = []
    try:
        for owner, attr, name, attr_fn, pre in patches:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(pre(orig) if pre else orig, name, attr_fn))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class _Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "work", "distinct")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0
        self.distinct: set = set()


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers: dict[str, _Layer] = {}
    top_ns = 0
    for (name, start, end, parent, attr), inner in zip(spans, child_ns):
        layer = layers.get(name)
        if layer is None:
            layer = layers[name] = _Layer()
        layer.calls += 1
        layer.total_ns += end - start
        layer.self_ns += end - start - inner
        if isinstance(attr, (int, float)):
            layer.work += attr
        elif isinstance(attr, frozenset):
            layer.distinct |= attr
        elif attr is not None:
            layer.distinct.add(attr)
        if parent < 0:
            top_ns += end - start

    empty = _Layer()

    def get(name: str) -> _Layer:
        return layers.get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fwd, ppl, gen = get("model.forward"), get("model.perplexity"), get("model.generate")
    deq, hc = get("compress.dequant"), get("compress.head_concentration")
    bwd, built = get("distill.backward"), get("cli.build_student")
    opt = get("scoring.opt_score")
    return {
        "model.forward.calls": fwd.calls,
        "model.forward.tokens": fwd.work,
        "model.forward.self_s": fwd.self_ns * NS,
        "model.perplexity.s": ppl.total_ns * NS,
        "model.perplexity.calls": ppl.calls,
        "model.perplexity.tokens": ppl.work,
        "model.generate.s": gen.total_ns * NS,
        "model.generate.tokens": gen.work,
        "compress.dequant.calls": deq.calls,
        "compress.dequant.s": deq.total_ns * NS,
        "compress.dequant.bytes": deq.work,
        "compress.head_concentration.s": hc.total_ns * NS,
        "compress.head_concentration.calls": hc.calls,
        "compress.head_concentration.unique_ratio": ratio(len(hc.distinct), hc.calls),
        "compress.quantize_model.s": get("compress.quantize_model").total_ns * NS,
        "compress.prune_model_2_4.s": get("compress.prune_model_2_4").total_ns * NS,
        "distill.backward.s": bwd.total_ns * NS,
        "distill.backward.calls": bwd.calls,
        "distill.teacher_forward.s": get("distill.teacher_forward").total_ns * NS,
        "distill.train_student.self_s": get("distill.train_student").self_ns * NS,
        "distill.seqkd_corpus.s": get("distill.seqkd_corpus").total_ns * NS,
        "cli.run_suite.self_s": get("cli.run_suite").self_ns * NS,
        "cli.build_student.s": built.total_ns * NS,
        "cli.parse_suite_config.s": get("cli.parse_suite_config").total_ns * NS,
        "cli.students.used_ratio": ratio(len(get("compress.compose").distinct), built.calls),
        "meter.measure.overhead_s": get("meter.measure").self_ns * NS,
        "scoring.opt_score.calls": opt.calls,
        "scoring.opt_score.s": opt.total_ns * NS,
        "trace.spans": len(spans),
        "trace.top_level_coverage": ratio(top_ns * NS, wall_s),
    }
