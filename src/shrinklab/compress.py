"""Compression passes: weight quantization, 2:4 sparsity, attention-head pruning.

Every pass maps a model to a new model and leaves the input untouched, so
passes compose freely.  compose() runs a list of pass descriptions on a model and
returns a PassReport of what each pass did; start_student() holds the rules such
a list keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ShapeError, check_integer, check_number, check_string
from .model import LINEAR_NAMES, TinyLM, _map_params, dense_weight, forward

SUPPORTED_BITS = (4, 8)

# calibration sequences shorter than this carry no eligible query positions
MIN_CALIBRATION_LEN = 5
# a query row enters the concentration statistic only with this many
# strictly earlier positions to attend to
MIN_PRIOR_KEYS = 4


def _check_bits(bits) -> None:
    if check_integer(bits, "bits") not in SUPPORTED_BITS:
        raise DomainError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")


def _check_threshold(threshold) -> None:
    if not 0.0 < check_number(threshold, "threshold") <= 1.0:
        raise DomainError(f"threshold must lie in (0, 1], got {threshold}")


def _projections(model: TinyLM) -> list:
    """The six linear projections of every block, in storage order."""
    return [getattr(layer, name) for layer in model.weights.layers for name in LINEAR_NAMES]


def _is_projection(name: str, tensor) -> bool:
    """Whether a param_tensors name is one of a block's six linear projections."""
    return name.rsplit(".", 1)[-1] in LINEAR_NAMES


# ---------------------------------------------------------------------------
# quantization

@dataclass(frozen=True)
class QuantizedTensor:
    """Per-row absmax symmetric quantization: value ~ code x row scale.

    codes are int8 in [-qmax, qmax]; scales are float64, one per row.  An
    all-zero row gets scale 1.0 so reconstruction stays exact.
    """

    bits: int
    scales: np.ndarray
    codes: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def dense(self, dtype=np.float32) -> np.ndarray:
        return dequantize(self).astype(dtype)


def quantize_tensor(matrix, bits: int) -> QuantizedTensor:
    """Quantize a 2-D matrix row by row.

    Each row is scaled by max|row| / qmax and rounded half away from zero,
    so the largest-magnitude entry maps exactly to +-qmax.
    """
    _check_bits(bits)
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"quantize_tensor expects a 2-D matrix, got {m.ndim}-D")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    qmax = (1 << (bits - 1)) - 1
    absmax = np.abs(m).max(axis=1)
    scales = np.where(absmax > 0, absmax / qmax, 1.0)
    # normalize by the row max before applying qmax: one fewer rounding, so
    # quotients that are exactly representable (0.2/0.4 = 0.5) hit their
    # half-way codes instead of drifting an ulp below
    scaled = m / np.where(absmax > 0, absmax, 1.0)[:, None] * qmax
    codes = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    np.clip(codes, -qmax, qmax, out=codes)
    return QuantizedTensor(bits=bits, scales=scales, codes=codes.astype(np.int8))


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstructed float64 matrix; exact code x scale products."""
    return q.codes.astype(np.float64) * q.scales[:, None]


def quantize_model(model: TinyLM, bits: int) -> TinyLM:
    """Model whose six linear projections per block hold quantized views.

    Embeddings, norm parameters, and the tied output head stay in full
    precision.  The views are expanded to dense on use, emulating
    dequantize-on-use inference.
    """
    return _map_params(model, lambda t: quantize_tensor(dense_weight(t, np.float64), bits),
                       _is_projection)


# ---------------------------------------------------------------------------
# 2:4 sparsity

def prune_2_4(matrix) -> np.ndarray:
    """Zero the two smallest-magnitude entries in every aligned group of four.

    Groups are contiguous runs of 4 along each row.  Magnitude ties keep the
    lower index.  Rows whose length is not a multiple of 4 cannot be grouped
    and raise ShapeError.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ShapeError(f"prune_2_4 expects a 2-D matrix, got {m.ndim}-D")
    rows, cols = m.shape
    if cols % 4 != 0:
        raise ShapeError(f"row length {cols} is not a multiple of 4")
    g = m.reshape(rows, cols // 4, 4)
    # stable sort on descending magnitude: equal magnitudes keep file order,
    # so the lower index survives a tie
    order = np.argsort(-np.abs(g), axis=2, kind="stable")
    keep = np.zeros(g.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :, :2], True, axis=2)
    return np.where(keep, g, np.zeros_like(g)).reshape(rows, cols)


def prune_model_2_4(model: TinyLM) -> TinyLM:
    """Apply the 2:4 rule to every linear projection.

    Weights are stored as (in, out) with x @ W, so grouping runs along the
    input (reduction) dimension: transpose, prune rows, transpose back.  A
    quantized projection stays quantized: its codes are zeroed where the
    pruned dense is 0, so its dense view is the pruned dense.
    """
    def prune(t):
        pruned = np.ascontiguousarray(prune_2_4(dense_weight(t).T).T)
        if isinstance(t, np.ndarray):
            return pruned
        return QuantizedTensor(t.bits, t.scales, np.where(pruned == 0, 0, t.codes).astype(np.int8))

    return _map_params(model, prune, _is_projection)


# ---------------------------------------------------------------------------
# head pruning

@dataclass(frozen=True)
class HeadConcentrationReport:
    """Concentration score per (layer, head) over a calibration set.

    scores[l, h] is the mean, over all calibration sequences and eligible
    query positions, of the largest attention weight in that head's row.
    n_positions counts the (sequence, position) pairs that entered the mean.
    """

    scores: np.ndarray
    n_positions: int

    def __post_init__(self):
        # a NaN score compares False against any threshold, so it would mask its head
        bad = np.argwhere(~np.isfinite(self.scores))
        if bad.size:
            layer, head = bad[0]
            raise DomainError(f"head concentration of layer {layer}, head {head} is not "
                              f"finite: {float(self.scores[layer, head])}")

    def as_dict(self) -> dict:
        n_layers, n_heads = self.scores.shape
        return {
            "n_positions": self.n_positions,
            "scores": [
                {"layer": l, "head": h, "score": float(self.scores[l, h])}
                for l in range(n_layers) for h in range(n_heads)
            ],
        }


@dataclass(frozen=True)
class Calibration:
    """Head-concentration probes: the corpus's first sequences x length tokens."""

    sequences: int = 8
    length: int = 32

    def __post_init__(self):
        check_integer(self.sequences, "sequences")
        check_integer(self.length, "length", minimum=MIN_CALIBRATION_LEN)

    def cut(self, corpus: np.ndarray, context_len: int) -> list[np.ndarray]:
        """The calibration sequences, for a model of context_len tokens."""
        if self.length > context_len:
            raise DomainError(f"calibration length {self.length} exceeds "
                              f"context length {context_len}")
        need = self.sequences * self.length
        if corpus.size < need:
            raise DomainError(
                f"corpus of {corpus.size} tokens cannot supply {need} calibration tokens")
        return [corpus[i * self.length:(i + 1) * self.length] for i in range(self.sequences)]


def head_concentration(model: TinyLM, calibration: Sequence) -> HeadConcentrationReport:
    """Score how sharply each head's attention concentrates on single keys.

    A query position enters the statistic only when at least MIN_PRIOR_KEYS
    strictly earlier positions are attendable; early rows are excluded
    because a position with almost nothing to attend to is trivially peaked.
    Sequences shorter than MIN_CALIBRATION_LEN contribute no eligible rows
    and are skipped.
    """
    usable = [s for s in calibration if np.asarray(s).size >= MIN_CALIBRATION_LEN]
    if not usable:
        raise DomainError(
            f"calibration has no sequence of length >= {MIN_CALIBRATION_LEN}"
        )
    cfg = model.config
    totals = np.zeros((cfg.n_layers, cfg.n_heads), dtype=np.float64)
    n_positions = 0
    for s in usable:
        _, probs = forward(model, s)
        eligible = probs[:, :, MIN_PRIOR_KEYS:, :].astype(np.float64)
        totals += eligible.max(axis=3).sum(axis=2)
        n_positions += eligible.shape[2]
    return HeadConcentrationReport(scores=totals / n_positions, n_positions=n_positions)


def prune_heads(model: TinyLM, report: HeadConcentrationReport,
                threshold: float) -> TinyLM:
    """Mask every head whose concentration score reaches threshold.

    Masking multiplies into the existing head mask, so repeated pruning is
    cumulative and never resurrects a head.  Surviving attention rows are
    not renormalized.
    """
    _check_threshold(threshold)
    if report.scores.shape != model.head_mask.shape:
        raise DomainError(
            f"report covers {report.scores.shape} heads, model has "
            f"{model.head_mask.shape}"
        )
    keep = (report.scores < threshold).astype(model.head_mask.dtype)
    return TinyLM(model.config, model.weights, model.head_mask * keep)


# ---------------------------------------------------------------------------
# pass composition

@dataclass(frozen=True)
class Quantize:
    bits: int

    def __post_init__(self):
        _check_bits(self.bits)


@dataclass(frozen=True)
class PruneHeads:
    threshold: float

    def __post_init__(self):
        _check_threshold(self.threshold)


@dataclass(frozen=True)
class Prune24:
    pass


@dataclass(frozen=True)
class DistillRef:
    """Swap the model for a separately trained student, looked up by id."""

    student: str

    def __post_init__(self):
        check_string(self.student, "student")


CompressionPass = Quantize | PruneHeads | Prune24 | DistillRef


@dataclass(frozen=True)
class PassReport:
    """What one pass did: its input and output models, and for a PruneHeads
    pass the concentration scores it masked by.

    The numbers that compare input and output are computed when read, so a
    caller that only wants the output model pays nothing for them.  They do
    not apply to a pass that changes the model's config (a distill pass may).
    """

    before: TinyLM
    after: TinyLM
    concentration: HeadConcentrationReport | None = None

    def _compared(self, what: str) -> None:
        if self.before.config != self.after.config:
            raise DomainError(f"{what} does not apply: the pass changed the model's config")

    @property
    def heads_masked(self) -> int:
        """Live heads before the pass minus live heads after it."""
        self._compared("heads_masked")
        return int(self.before.head_mask.sum() - self.after.head_mask.sum())

    @property
    def max_error(self) -> float:
        """Largest float64 |before - after| entry over every block's projections."""
        self._compared("max_error")
        return max(float(np.abs(dense_weight(a, np.float64) - dense_weight(b, np.float64)).max())
                   for a, b in zip(_projections(self.before), _projections(self.after)))

    @property
    def sparsity(self) -> float:
        """Share of zero entries in the output model's projections."""
        arrays = [dense_weight(t) for t in _projections(self.after)]
        return sum(int((a == 0).sum()) for a in arrays) / sum(a.size for a in arrays)


def start_student(passes: Sequence, students: Mapping | None) -> str | None:
    """The id of the student passes start from, or None.  Every item must be a pass,
    and a DistillRef, which replaces the model and so would discard the passes before
    it, may only come first and must name a student that students defines."""
    for i, p in enumerate(passes):
        if not isinstance(p, CompressionPass):
            raise DomainError(f"unknown compression pass {p!r}")
        if i and isinstance(p, DistillRef):
            raise DomainError(f"distill pass {p.student!r} must come first: it "
                              "replaces the model, discarding the passes before it")
    sid = passes[0].student if passes and isinstance(passes[0], DistillRef) else None
    if sid is not None and sid not in (students or {}):
        raise DomainError(f"student {sid!r} is not defined in students")
    return sid


def compose(passes: Sequence[CompressionPass], model: TinyLM,
            calibration: Sequence | None = None,
            students: Mapping[str, TinyLM] | None = None) -> list[PassReport]:
    """Run passes on model left to right and report what each did, once the whole list
    is checked: each report's before is the previous report's after, and no passes
    give no reports.

    Order matters: pruning heads on a quantized model measures quantized attention.
    """
    start_student(passes, students)
    if calibration is None and any(isinstance(p, PruneHeads) for p in passes):
        raise DomainError("a PruneHeads pass requires calibration sequences")
    reports = []
    for p in passes:
        concentration = None
        if isinstance(p, Quantize):
            after = quantize_model(model, p.bits)
        elif isinstance(p, Prune24):
            after = prune_model_2_4(model)
        elif isinstance(p, PruneHeads):
            concentration = head_concentration(model, calibration)
            after = prune_heads(model, concentration, p.threshold)
        else:
            after = students[p.student]
        reports.append(PassReport(model, after, concentration))
        model = after
    return reports
