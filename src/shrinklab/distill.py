"""Knowledge distillation: KL objectives, reverse-mode gradients, training.

The student is trained with hand-derived gradients (no autograd dependency)
and a small Adam loop.  All gradient math runs in float64; a finished
student is returned in float32.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_integer, check_number
from .model import (ModelConfig, TinyLM, _check_tokens, _forward_full, _nll_rows, astype,
                    copy_model, gelu_grad, generate,
                    init_model, log_softmax_rows, param_tensors)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

METHOD_FORWARD_KLD = "forward_kld"
METHOD_REVERSE_KLD = "reverse_kld"
METHOD_SEQKD = "seqkd"


# ---------------------------------------------------------------------------
# loss specifications

@dataclass(frozen=True)
class CrossEntropy:
    """Plain next-token cross-entropy against fixed targets."""

    targets: np.ndarray


@dataclass(frozen=True)
class ForwardKLD:
    """KL(teacher || student) at a softmax temperature; mass-covering."""

    teacher_logits: np.ndarray
    temperature: float = 1.0


@dataclass(frozen=True)
class ReverseKLD:
    """KL(student || teacher) at a softmax temperature; mode-seeking."""

    teacher_logits: np.ndarray
    temperature: float = 1.0


LossSpec = CrossEntropy | ForwardKLD | ReverseKLD

_KL_LOSSES = {METHOD_FORWARD_KLD: ForwardKLD, METHOD_REVERSE_KLD: ReverseKLD}
METHODS = (*_KL_LOSSES, METHOD_SEQKD)


def _as_logit_rows(z, what: str) -> np.ndarray:
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DomainError(f"{what} must be 1-D or 2-D logits")
    if arr.shape[1] < 2:
        raise DomainError(f"{what} needs at least 2 classes")
    return arr


def _loss_and_dlogits(logits: np.ndarray, spec: LossSpec) -> tuple[float, np.ndarray]:
    """Loss value and its gradient with respect to the student logits."""
    n = len(logits)
    if isinstance(spec, CrossEntropy):
        ls, t = _nll_rows(logits, spec.targets)
        loss = float(-ls[np.arange(n), t].mean())
        d = np.exp(ls)
        d[np.arange(n), t] -= 1.0
        return loss, d / n

    if isinstance(spec, (ForwardKLD, ReverseKLD)):
        temp = spec.temperature
        if temp <= 0:
            raise DomainError("temperature must be positive")
        zt = _as_logit_rows(spec.teacher_logits, "teacher_logits")
        if zt.shape != logits.shape:
            raise DomainError(
                f"teacher logits shape {zt.shape} does not match student {logits.shape}"
            )
        lt = log_softmax_rows(zt / temp)
        ls = log_softmax_rows(logits / temp)
        p = np.exp(lt)
        q = np.exp(ls)
        if isinstance(spec, ForwardKLD):
            loss = float(temp * temp * (p * (lt - ls)).sum(axis=1).mean())
            d = temp * (q - p) / n
        else:
            r = ls - lt
            loss = float(temp * temp * (q * r).sum(axis=1).mean())
            d = temp * q * (r - (q * r).sum(axis=1, keepdims=True)) / n
        return loss, d

    raise DomainError(f"unknown loss spec {spec!r}")


def forward_kld_loss(teacher_logits, student_logits, temperature: float = 1.0) -> float:
    """Mean over positions of T^2 x KL(teacher || student) at temperature T.

    Both logit sets are softmaxed at the same temperature; the T^2 factor
    keeps gradient magnitudes comparable across temperatures.
    """
    zs = _as_logit_rows(student_logits, "student_logits")
    return _loss_and_dlogits(zs, ForwardKLD(teacher_logits, temperature))[0]


def reverse_kld_loss(teacher_logits, student_logits, temperature: float = 1.0) -> float:
    """Mean over positions of T^2 x KL(student || teacher) at temperature T."""
    zs = _as_logit_rows(student_logits, "student_logits")
    return _loss_and_dlogits(zs, ReverseKLD(teacher_logits, temperature))[0]


# ---------------------------------------------------------------------------
# reverse-mode gradients

def _ln_backward(dy, xhat, inv_std, g):
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxh = dy * g
    d = dy.shape[-1]  # add.reduce / d rounds like .mean(), as in ln_detail
    dx = inv_std * (dxh - np.add.reduce(dxh, axis=-1, keepdims=True) / d
                    - xhat * (np.add.reduce(dxh * xhat, axis=-1, keepdims=True) / d))
    return dx, dg, db


def backward(model: TinyLM, tokens, spec: LossSpec,
             ce_mix: tuple[float, np.ndarray] | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and its gradient for every trainable tensor.

    The model is run in float64 regardless of its stored dtype, so gradients
    are suitable for finite-difference verification.  Keys of the returned
    dict match param_tensors names.  Quantized weights cannot be trained and
    raise DomainError.

    ce_mix, a pair (lam, targets), makes the loss and each gradient (1 - lam)
    times spec's plus lam times cross-entropy's, swept back from one forward.
    """
    for name, t in param_tensors(model):
        if not isinstance(t, np.ndarray):
            raise DomainError(f"backward needs dense weights, {name} is quantized")
    m64 = astype(model, np.float64)
    toks = _check_tokens(tokens, m64.config)
    logits, cache = _forward_full(m64, toks, want_cache=True)
    loss, dlogits = _loss_and_dlogits(logits, spec)
    grads = _sweep(m64, toks, cache, dlogits)
    if ce_mix is not None:
        lam, targets = ce_mix
        ce_loss, ce_dlogits = _loss_and_dlogits(logits, CrossEntropy(targets))
        ce_grads = _sweep(m64, toks, cache, ce_dlogits)
        loss = (1.0 - lam) * loss + lam * ce_loss
        grads = {k: (1.0 - lam) * grads[k] + lam * ce_grads[k] for k in grads}
    return loss, grads


def _sweep(m64: TinyLM, toks, cache: dict, dlogits) -> dict[str, np.ndarray]:
    """Gradient of every trainable tensor, swept back from dlogits through the forward's cache."""
    cfg = m64.config
    W = m64.weights
    n = toks.size
    n_heads, h_dim = cfg.n_heads, cfg.d_head
    grads = {name: np.zeros_like(t) for name, t in param_tensors(m64)}

    xf = cache["xf"]
    grads["tok_emb"] += dlogits.T @ xf
    dxf = dlogits @ W.tok_emb
    dx, dg, db = _ln_backward(dxf, cache["xhatf"], cache["invf"], W.ln_f_g)
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    scale = 1.0 / math.sqrt(h_dim)
    for li in reversed(range(cfg.n_layers)):
        c = cache["layers"][li]
        lw = W.layers[li]
        pre = f"layers.{li}."

        # feed-forward half: x_out = x_mid + gelu(ln2(x_mid) @ w_in) @ w_out
        grads[pre + "w_out"] += c["act"].T @ dx
        dact = dx @ lw.w_out.T
        du = dact * gelu_grad(c["u"])
        grads[pre + "w_in"] += c["h"].T @ du
        dh = du @ lw.w_in.T
        dmid_ln, dg2, db2 = _ln_backward(dh, c["xhat2"], c["inv2"], lw.ln2_g)
        grads[pre + "ln2_g"] += dg2
        grads[pre + "ln2_b"] += db2
        dx_mid = dx + dmid_ln

        # attention half: x_mid = x_in + (heads(ln1(x_in)) merged) @ wo
        grads[pre + "wo"] += c["merged"].T @ dx_mid
        dmerged = dx_mid @ lw.wo.T
        dctx_m = dmerged.reshape(n, n_heads, h_dim).transpose(1, 0, 2)
        head_keep = m64.head_mask[li].astype(np.float64)[:, None, None]
        dctx = dctx_m * head_keep
        probs = c["probs"]
        dprobs = dctx @ c["vh"].transpose(0, 2, 1)
        dvh = probs.transpose(0, 2, 1) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=2, keepdims=True))
        dqh = dscores @ c["kh"] * scale
        dkh = dscores.transpose(0, 2, 1) @ c["qh"] * scale
        dq = dqh.transpose(1, 0, 2).reshape(n, cfg.d_model)
        dk = dkh.transpose(1, 0, 2).reshape(n, cfg.d_model)
        dv = dvh.transpose(1, 0, 2).reshape(n, cfg.d_model)
        a = c["a"]
        grads[pre + "wq"] += a.T @ dq
        grads[pre + "wk"] += a.T @ dk
        grads[pre + "wv"] += a.T @ dv
        da = dq @ lw.wq.T + dk @ lw.wk.T + dv @ lw.wv.T
        din_ln, dg1, db1 = _ln_backward(da, c["xhat1"], c["inv1"], lw.ln1_g)
        grads[pre + "ln1_g"] += dg1
        grads[pre + "ln1_b"] += db1
        dx = dx_mid + din_ln

    np.add.at(grads["tok_emb"], toks, dx)
    grads["pos_emb"][:n] += dx
    return grads


def loss_value(model: TinyLM, tokens, spec: LossSpec) -> float:
    """Loss alone, without gradients."""
    m64 = astype(model, np.float64)
    toks = _check_tokens(tokens, m64.config)
    logits, _ = _forward_full(m64, toks, want_cache=False)
    return _loss_and_dlogits(logits, spec)[0]


# ---------------------------------------------------------------------------
# gradient checking

@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    epsilon: float
    worst_param: str


def grad_check(model: TinyLM, tokens, spec: LossSpec, epsilon: float = 1e-4,
               sample_size: int = 64, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients with central differences at sampled entries.

    The relative error is |analytic - numeric| / max(1, |analytic|, |numeric|).
    Entries are drawn without replacement across all trainable tensors.
    """
    if check_number(epsilon, "epsilon") <= 0:
        raise DomainError("epsilon must be positive")
    check_integer(sample_size, "sample_size")
    check_integer(seed, "seed", minimum=0)
    m64 = astype(copy_model(model), np.float64)
    toks = _check_tokens(tokens, m64.config)
    _, grads = backward(m64, toks, spec)

    tensors = param_tensors(m64)
    sizes = np.array([t.size for _, t in tensors])
    bounds = np.cumsum(sizes)
    total = int(bounds[-1])
    k = min(sample_size, total)
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(total, size=k, replace=False))

    max_rel = 0.0
    worst = tensors[0][0]
    for fi in flat:
        ti = int(np.searchsorted(bounds, fi, side="right"))
        name, arr = tensors[ti]
        idx = int(fi - (bounds[ti - 1] if ti else 0))
        orig = arr.flat[idx]
        arr.flat[idx] = orig + epsilon
        lp = loss_value(m64, toks, spec)
        arr.flat[idx] = orig - epsilon
        lm = loss_value(m64, toks, spec)
        arr.flat[idx] = orig
        numeric = (lp - lm) / (2.0 * epsilon)
        analytic = grads[name].flat[idx]
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        if rel > max_rel:
            max_rel = rel
            worst = name
    return GradCheckReport(max_rel_error=float(max_rel), n_checked=k,
                           epsilon=epsilon, worst_param=worst)


# ---------------------------------------------------------------------------
# sequence-level data generation

def seqkd_corpus(teacher: TinyLM, prompts, length: int, mode: str = "greedy",
                 seed: int = 0) -> np.ndarray:
    """Teacher continuations of each prompt, decoded greedily, concatenated into one corpus.

    Each run of consecutive prompts of one length is decoded as one batch.
    mode accepts only "greedy", and seed is checked but never read: both stay
    only for perfbench's call, and a change to the benchmark drops them.
    """
    if mode != "greedy":
        raise DomainError(f"mode must be 'greedy', got {mode!r}")
    check_integer(seed, "seed", minimum=0)
    check_integer(length, "length")
    pieces = [generate(teacher, np.stack(list(run)), length).ravel()
              for _, run in itertools.groupby(map(np.asarray, prompts), key=np.shape)]
    if not pieces:
        raise DomainError("seqkd_corpus needs at least one prompt")
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class DistillConfig:
    method: str
    temperature: float = 1.0
    ce_mix_lambda: float = 0.0
    steps: int = 200
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}, got {self.method!r}")
        if check_number(self.temperature, "temperature") <= 0:
            raise DomainError("temperature must be positive")
        if not 0.0 <= check_number(self.ce_mix_lambda, "ce_mix_lambda") <= 1.0:
            raise DomainError("ce_mix_lambda must lie in [0, 1]")
        if self.method == METHOD_SEQKD and (self.ce_mix_lambda > 0 or self.temperature != 1.0):
            raise DomainError("temperature and ce_mix_lambda shape a KL loss; method 'seqkd' "
                              "decodes greedily and trains on cross-entropy alone")
        if check_number(self.learning_rate, "learning_rate") <= 0:
            raise DomainError("learning_rate must be positive")
        check_integer(self.steps, "steps", minimum=0)
        check_integer(self.seed, "seed", minimum=0)


@dataclass
class TrainResult:
    student: TinyLM
    losses: list[float] = field(default_factory=list)


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for k, p in params.items():
            g = grads[k]
            m, v = self.m[k], self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def forward(teacher: TinyLM, tokens) -> np.ndarray:
    """The teacher's logits on one training window, without a backprop cache."""
    logits, _ = _forward_full(teacher, _check_tokens(tokens, teacher.config), want_cache=False)
    return logits


def check_shared_vocabulary(teacher_config: ModelConfig, student_config: ModelConfig) -> None:
    """A student is distilled from, and compared with, a teacher over one vocabulary."""
    if student_config.vocab_size != teacher_config.vocab_size:
        raise DomainError("student and teacher must share a vocabulary")


def training_window(teacher_config: ModelConfig, student_config: ModelConfig,
                    corpus_tokens: int, window: int | None = None) -> int:
    """The window train_student samples, checked against both models and the corpus size.

    The models must share a vocabulary, the window must fit both contexts (by
    default the shorter context, capped at 32), and the corpus must hold one
    window plus a target.
    """
    check_shared_vocabulary(teacher_config, student_config)
    limit = min(student_config.context_len, teacher_config.context_len)
    wnd = min(limit, 32) if window is None else check_integer(window, "window")
    if wnd > limit:
        raise DomainError(f"window must lie in [1, {limit}]")
    if corpus_tokens < wnd + 1:
        raise DomainError(f"corpus of {corpus_tokens} tokens is shorter than one "
                          f"window of {wnd} plus a target")
    return wnd


def train_student(teacher: TinyLM, student_config: ModelConfig, corpus,
                  config: DistillConfig, window: int | None = None) -> TrainResult:
    """Distill the teacher into a freshly initialized student.

    Each step samples one window and takes one Adam step on one loss: the
    method's KL against the teacher's logits on that window, mixed with
    ce_mix_lambda of data cross-entropy, or for seqkd, whose corpus the
    teacher generated, plain cross-entropy.  Training state lives in float64
    throughout; with a fixed seed the run is reproducible to the bit.
    """
    toks = _check_tokens(corpus, teacher.config)
    wnd = training_window(teacher.config, student_config, toks.size, window)

    rng = np.random.default_rng(config.seed)
    student = astype(init_model(student_config, seed=config.seed), np.float64)
    teacher64 = astype(teacher, np.float64)
    params = dict(param_tensors(student))
    opt = _Adam(params, config.learning_rate)
    losses: list[float] = []
    kl = _KL_LOSSES.get(config.method)
    lam = config.ce_mix_lambda

    for _ in range(config.steps):
        start = int(rng.integers(0, toks.size - wnd))
        inp = toks[start:start + wnd]
        tgt = toks[start + 1:start + wnd + 1]
        spec = CrossEntropy(tgt) if kl is None else kl(forward(teacher64, inp), config.temperature)
        loss, grads = backward(student, inp, spec, ce_mix=(lam, tgt) if lam > 0 else None)
        opt.step(params, grads)
        losses.append(float(loss))

    return TrainResult(student=astype(student, np.float32), losses=losses)
