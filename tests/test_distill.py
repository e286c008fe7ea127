"""Distillation tests: KLD losses, analytic gradients, training loop."""
import math

import numpy as np
import pytest

from shrinklab.distill import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CrossEntropy,
    DistillConfig,
    ForwardKLD,
    ReverseKLD,
    backward,
    forward_kld_loss,
    grad_check,
    loss_value,
    reverse_kld_loss,
    seqkd_corpus,
    train_student,
)
from shrinklab.compress import quantize_model
from shrinklab.errors import DomainError
from shrinklab.model import (ModelConfig, astype, forward, generate, init_model, param_tensors,
                             tokenize)

from conftest import SMALL


def _logits(*probs):
    return np.log(np.array([probs], dtype=np.float64))


# ---------------------------------------------------------------------------
# losses

def test_forward_kld_hand_value():
    """Teacher (0.9, 0.1) against a uniform student, in nats."""
    p, q = (0.9, 0.1), (0.5, 0.5)
    expect = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
    got = forward_kld_loss(_logits(*p), _logits(*q))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.36806420716849697, abs=1e-12)


def test_reverse_kld_hand_value():
    p, q = (0.9, 0.1), (0.5, 0.5)
    expect = sum(qi * math.log(qi / pi) for pi, qi in zip(p, q))
    got = reverse_kld_loss(_logits(*p), _logits(*q))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.5108256237659905, abs=1e-12)


def test_kld_zero_for_identical_distributions():
    z = np.array([[0.3, -1.2, 2.0, 0.0]])
    assert forward_kld_loss(z, z) == pytest.approx(0.0, abs=1e-15)
    assert reverse_kld_loss(z, z) == pytest.approx(0.0, abs=1e-15)


def test_kld_asymmetry():
    p = _logits(0.9, 0.1)
    q = _logits(0.5, 0.5)
    assert forward_kld_loss(p, q) != pytest.approx(reverse_kld_loss(p, q), abs=1e-3)


def test_kld_logit_shift_invariance():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 8))
    s = rng.normal(size=(3, 8))
    assert forward_kld_loss(t, s) == pytest.approx(
        forward_kld_loss(t + 5.0, s - 3.0), abs=1e-12)
    assert reverse_kld_loss(t, s) == pytest.approx(
        reverse_kld_loss(t - 2.0, s + 9.0), abs=1e-12)


def test_kld_temperature_scales_loss():
    t = _logits(0.8, 0.15, 0.05)
    s = _logits(0.2, 0.2, 0.6)
    # T thimbles the distributions toward uniform but multiplies by T^2
    hot = forward_kld_loss(t, s, temperature=2.0)
    p = np.exp(t / 2.0) / np.exp(t / 2.0).sum()
    q = np.exp(s / 2.0) / np.exp(s / 2.0).sum()
    expect = 4.0 * float((p * np.log(p / q)).sum())
    assert hot == pytest.approx(expect, abs=1e-12)


def test_kld_mean_over_positions():
    t = np.vstack([_logits(0.9, 0.1), _logits(0.5, 0.5)])
    s = np.vstack([_logits(0.5, 0.5), _logits(0.5, 0.5)])
    single = forward_kld_loss(_logits(0.9, 0.1), _logits(0.5, 0.5))
    assert forward_kld_loss(t, s) == pytest.approx(single / 2.0, abs=1e-12)


def test_kld_validation():
    t = _logits(0.9, 0.1)
    with pytest.raises(DomainError):
        forward_kld_loss(t, _logits(0.5, 0.3, 0.2))
    with pytest.raises(DomainError):
        forward_kld_loss(t, t, temperature=0.0)
    with pytest.raises(DomainError):
        reverse_kld_loss(t, t, temperature=-1.0)
    with pytest.raises(DomainError, match="1-D or 2-D"):
        forward_kld_loss(t[None], t[None])
    with pytest.raises(DomainError, match="at least 2 classes"):
        forward_kld_loss([[0.0]], [[0.0]])


def test_kld_reads_1d_logits_as_one_row():
    t, s = np.array([0.3, -1.2, 2.0]), np.array([1.0, 0.5, -0.5])
    assert forward_kld_loss(t, s) == forward_kld_loss(t[None], s[None])
    assert reverse_kld_loss(t, s) == reverse_kld_loss(t[None], s[None])


def test_mode_seeking_against_mass_covering():
    """Reverse KLD prefers committing to one teacher mode; forward prefers cover."""
    teacher = _logits(0.499, 0.499, 0.001, 0.001)
    committed = _logits(0.98, 0.0067, 0.0067, 0.0066)
    covering = _logits(0.25, 0.25, 0.25, 0.25)
    assert reverse_kld_loss(teacher, committed) < reverse_kld_loss(teacher, covering)
    assert forward_kld_loss(teacher, committed) > forward_kld_loss(teacher, covering)


# ---------------------------------------------------------------------------
# gradients

def test_cross_entropy_linear_closed_form():
    """d/dW of CE after x @ W is x.T @ (softmax - onehot) / n, to 1e-8."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 5))
    targets = np.array([1, 4, 0])

    def loss(wm):
        z = x @ wm
        zs = z - z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(zs).sum(axis=1)) + z.max(axis=1)
        return float((lse - z[np.arange(3), targets]).mean())

    probs = np.exp(x @ w)
    probs /= probs.sum(axis=1, keepdims=True)
    onehot = np.zeros((3, 5))
    onehot[np.arange(3), targets] = 1.0
    analytic = x.T @ (probs - onehot) / 3.0

    eps = 1e-6
    for i in range(4):
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            numeric = (loss(wp) - loss(wm)) / (2 * eps)
            assert abs(numeric - analytic[i, j]) < 1e-8


def test_grad_check_all_loss_families(small_model, corpus):
    tokens = corpus[:20]
    m64 = astype(small_model, np.float64)
    teacher_logits, _ = forward(m64, tokens)
    specs = [
        CrossEntropy(corpus[1:21].copy()),
        ForwardKLD(teacher_logits + 0.3, temperature=2.0),
        ReverseKLD(teacher_logits + 0.3, temperature=2.0),
    ]
    for spec in specs:
        report = grad_check(small_model, tokens, spec, sample_size=48, seed=1)
        assert report.max_rel_error < 1e-4, (spec, report)
        assert report.n_checked == 48


def test_backward_zero_gradient_at_optimum(small_model, corpus):
    """Distilling a model into itself: loss 0 and exactly zero gradients."""
    tokens = corpus[:16]
    m64 = astype(small_model, np.float64)
    logits, _ = forward(m64, tokens)
    spec = ForwardKLD(logits)
    loss, grads = backward(m64, tokens, spec)
    assert loss == pytest.approx(0.0, abs=1e-15)
    for name, g in grads.items():
        assert np.max(np.abs(g)) <= 1e-12, name


def test_backward_loss_matches_loss_value(small_model, corpus):
    tokens = corpus[:16]
    spec = CrossEntropy(corpus[1:17].copy())
    loss, _ = backward(small_model, tokens, spec)
    assert loss == pytest.approx(loss_value(small_model, tokens, spec), abs=1e-12)


def test_grad_check_validation(small_model, corpus):
    tokens = corpus[:12]
    spec = CrossEntropy(corpus[1:13].copy())
    with pytest.raises(DomainError):
        grad_check(small_model, tokens, spec, epsilon=0.0)
    with pytest.raises(DomainError):
        grad_check(small_model, tokens, spec, sample_size=0)
    for kwargs, named in [({"epsilon": "a"}, "epsilon"), ({"epsilon": True}, "epsilon"),
                          ({"sample_size": 2.5}, "sample_size"), ({"seed": -1}, "seed"),
                          ({"seed": 1.5}, "seed")]:
        with pytest.raises(DomainError, match=named):
            grad_check(small_model, tokens, spec, **kwargs)
    with pytest.raises(DomainError):
        grad_check(quantize_model(small_model, 8), tokens, spec)
    with pytest.raises(DomainError, match="integers"):
        grad_check(small_model, tokens + 0.25, spec)
    with pytest.raises(DomainError, match="unknown loss spec"):
        loss_value(small_model, tokens, "spec")


def test_backward_rejects_quantized_weights(small_model, corpus):
    spec = CrossEntropy(corpus[1:13].copy())
    with pytest.raises(DomainError, match="quantized"):
        backward(quantize_model(small_model, 8), corpus[:12], spec)


def test_backward_rejects_bad_tokens(small_model):
    spec = CrossEntropy(np.array([1, 2]))
    with pytest.raises(DomainError):
        backward(small_model, np.zeros(SMALL.context_len + 1, dtype=np.int64), spec)
    with pytest.raises(DomainError):
        backward(small_model, np.array([0, 300, 1]), spec)


# ---------------------------------------------------------------------------
# sequence-level corpus generation

def test_seqkd_corpus_shape_and_determinism(small_model):
    prompts = [tokenize("ab"), tokenize("cd"), tokenize("ef")]
    a = seqkd_corpus(small_model, prompts, length=10)
    b = seqkd_corpus(small_model, prompts, length=10)
    assert a.size == 3 * (2 + 10)  # each block is prompt plus continuation
    assert np.array_equal(a, b)
    assert a[:2].tolist() == prompts[0].tolist()
    assert a[12:14].tolist() == prompts[1].tolist()


def test_seqkd_corpus_validation(small_model):
    with pytest.raises(DomainError):
        seqkd_corpus(small_model, [], length=8)
    with pytest.raises(DomainError):
        seqkd_corpus(small_model, [tokenize("ab")], length=0)
    # prompt plus continuation must still fit the context window
    with pytest.raises(DomainError):
        seqkd_corpus(small_model, [tokenize("ab")], length=SMALL.context_len - 1)
    with pytest.raises(DomainError):
        seqkd_corpus(small_model, [tokenize("ab")], length=4, seed=-1)


def test_seqkd_corpus_takes_perfbenchs_keywords_and_rejects_other_modes(small_model, corpus):
    """perfbench passes mode="greedy" and a seed; the corpus is the greedy one all the same,
    and any other mode is rejected by name."""
    prompts = [corpus[s:s + 8] for s in (0, 100, 200)]
    want = seqkd_corpus(small_model, prompts, 12)
    assert np.array_equal(seqkd_corpus(small_model, prompts, 12, mode="greedy", seed=3), want)
    with pytest.raises(DomainError, match="mode"):
        seqkd_corpus(small_model, prompts, 12, mode="sample")


def test_seqkd_corpus_decodes_each_run_of_equal_length_prompts_as_one_batch(
        small_model, corpus, monkeypatch):
    """The corpus is the per-prompt generate calls, made with one forward per
    new token for each run of equal-length prompts."""
    import shrinklab.model as model_mod
    prompts = [corpus[0:2], corpus[10:12], corpus[20:23], corpus[30:32]]
    want = np.concatenate([generate(small_model, p, 9) for p in prompts])
    batches = []
    real_forward_full = model_mod._forward_full

    def spy(m, tokens, *args, **kwargs):
        batches.append(tokens.shape[0])
        return real_forward_full(m, tokens, *args, **kwargs)

    monkeypatch.setattr(model_mod, "_forward_full", spy)
    got = seqkd_corpus(small_model, prompts, 9)
    assert got.tolist() == want.tolist()
    # the runs are prompts 0-1 (length 2), prompt 2 (length 3) and prompt 3 (length 2)
    assert batches == [2] * 9 + [1] * 9 + [1] * 9


# ---------------------------------------------------------------------------
# training

def test_distill_config_validation():
    DistillConfig(method="forward_kld")
    for bad in (
        dict(method="backward_kld"),
        dict(method="forward_kld", temperature=0.0),
        dict(method="forward_kld", ce_mix_lambda=1.5),
        dict(method="forward_kld", steps=-1),
        dict(method="forward_kld", learning_rate=0.0),
    ):
        with pytest.raises(DomainError):
            DistillConfig(**bad)


def test_distill_config_rejects_ce_mix_on_seqkd():
    """seqkd trains on cross-entropy alone, so a mixing weight would be ignored."""
    DistillConfig(method="seqkd", ce_mix_lambda=0.0)
    with pytest.raises(DomainError, match="ce_mix_lambda"):
        DistillConfig(method="seqkd", ce_mix_lambda=0.5)


def test_distill_config_rejects_a_temperature_on_seqkd():
    """seqkd decodes greedily and trains on cross-entropy, so a softening
    temperature would be ignored."""
    DistillConfig(method="seqkd", temperature=1.0)
    with pytest.raises(DomainError, match="temperature"):
        DistillConfig(method="seqkd", temperature=5.0)


@pytest.mark.parametrize("method, calls", [("forward_kld", 5), ("reverse_kld", 5),
                                           ("seqkd", 0)])
def test_train_student_runs_the_teacher_through_distill_forward(
        small_model, corpus, monkeypatch, method, calls):
    """The teacher pass is distill.forward, once a step, so it can be timed on its
    own; seqkd reads no teacher logits."""
    import shrinklab.distill as distill
    seen = []
    real_forward = distill.forward

    def spy(teacher, tokens):
        seen.append(len(tokens))
        return real_forward(teacher, tokens)

    monkeypatch.setattr(distill, "forward", spy)
    cfg = DistillConfig(method=method, steps=5, seed=1)
    result = train_student(small_model, SMALL, corpus[:300], cfg, window=16)
    assert seen == [16] * calls
    assert len(result.losses) == 5


def test_train_student_zero_steps_returns_init(small_model, corpus):
    cfg = DistillConfig(method="forward_kld", steps=0, seed=9)
    result = train_student(small_model, SMALL, corpus[:200], cfg)
    assert result.losses == []
    fresh = init_model(SMALL, seed=9)
    assert np.array_equal(result.student.weights.tok_emb, fresh.weights.tok_emb)
    assert result.student.weights.tok_emb.dtype == np.float32


def test_train_student_decreases_loss_and_reproduces(small_model, corpus):
    cfg = DistillConfig(method="forward_kld", temperature=2.0, steps=80,
                        learning_rate=1e-3, seed=2)
    r1 = train_student(small_model, SMALL, corpus[:400], cfg)
    r2 = train_student(small_model, SMALL, corpus[:400], cfg)
    assert r1.losses == r2.losses
    assert np.array_equal(r1.student.weights.tok_emb, r2.student.weights.tok_emb)
    assert np.array_equal(r1.student.weights.layers[0].w_out,
                          r2.student.weights.layers[0].w_out)
    head = float(np.mean(r1.losses[:20]))
    tail = float(np.mean(r1.losses[-20:]))
    assert tail < head
    assert all(math.isfinite(v) for v in r1.losses)


def test_train_student_ce_mix_changes_trajectory(small_model, corpus):
    pure = DistillConfig(method="forward_kld", steps=12, seed=3)
    mixed = DistillConfig(method="forward_kld", steps=12, seed=3, ce_mix_lambda=0.5)
    a = train_student(small_model, SMALL, corpus[:300], pure)
    b = train_student(small_model, SMALL, corpus[:300], mixed)
    assert a.losses != b.losses


def test_train_student_reverse_and_seqkd_methods(small_model, corpus):
    rev = DistillConfig(method="reverse_kld", steps=10, seed=4)
    train_student(small_model, SMALL, corpus[:300], rev)
    generated = seqkd_corpus(small_model, [tokenize("th"), tokenize("e ")], length=24)
    kd = DistillConfig(method="seqkd", steps=10, seed=4)
    result = train_student(small_model, SMALL, generated, kd)
    assert len(result.losses) == 10


def test_train_student_validation(small_model, corpus):
    cfg = DistillConfig(method="forward_kld", steps=5)
    other_vocab = ModelConfig(1, 2, 32, 128, vocab_size=128)
    with pytest.raises(DomainError):
        train_student(small_model, other_vocab, corpus[:100], cfg)
    with pytest.raises(DomainError):
        train_student(small_model, SMALL, corpus[:1], cfg)
    with pytest.raises(DomainError):
        train_student(small_model, SMALL, corpus[:100], cfg,
                      window=SMALL.context_len + 1)
    for window in (0, 2.5, True):
        with pytest.raises(DomainError, match="window must be an integer >= 1"):
            train_student(small_model, SMALL, corpus[:100], cfg, window=window)
    # float token ids would be truncated, not rejected, by an int cast
    with pytest.raises(DomainError, match="integer"):
        train_student(small_model, SMALL, np.linspace(0.2, 200.7, 100), cfg)


class _ReferenceAdam:
    """Adam with a new array for every moment update, the arithmetic the
    trainer's in-place updates must match bit for bit."""

    def __init__(self, params, lr):
        self.lr, self.t = lr, 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, params, grads):
        self.t += 1
        bc1, bc2 = 1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t
        for k, p in params.items():
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)


def _train_by_two_backwards(teacher, student_config, corpus, config, window):
    """Reference training loop: the teacher's logits from distill.forward, one
    backward call per loss, the cross-entropy mixed in tensor by tensor, and
    one reference Adam step."""
    import shrinklab.distill as distill
    rng = np.random.default_rng(config.seed)
    student = astype(init_model(student_config, seed=config.seed), np.float64)
    teacher64 = astype(teacher, np.float64)
    params = dict(param_tensors(student))
    opt = _ReferenceAdam(params, config.learning_rate)
    lam = config.ce_mix_lambda
    losses = []
    for _ in range(config.steps):
        start = int(rng.integers(0, corpus.size - window))
        inp, tgt = corpus[start:start + window], corpus[start + 1:start + window + 1]
        if config.method == "seqkd":
            spec = CrossEntropy(tgt)
        else:
            kind = ForwardKLD if config.method == "forward_kld" else ReverseKLD
            spec = kind(distill.forward(teacher64, inp), config.temperature)
        loss, grads = backward(student, inp, spec)
        if lam > 0:
            ce_loss, ce_grads = backward(student, inp, CrossEntropy(tgt))
            loss = (1.0 - lam) * loss + lam * ce_loss
            grads = {k: (1.0 - lam) * grads[k] + lam * ce_grads[k] for k in grads}
        opt.step(params, grads)
        losses.append(float(loss))
    return losses, astype(student, np.float32)


@pytest.mark.parametrize("config", [
    DistillConfig("forward_kld", temperature=2.0, steps=6, seed=1),
    DistillConfig("reverse_kld", ce_mix_lambda=0.5, steps=6, seed=2),
    DistillConfig("seqkd", steps=6, seed=3),
], ids=["forward_kld", "reverse_kld-ce_mix", "seqkd"])
def test_train_student_keeps_the_bits_of_the_reference_loop(small_model, corpus, config):
    """One student forward per step, swept back once per loss, gives the loss
    stream and final weights of a forward and backward per loss."""
    data = corpus[:300]
    if config.method == "seqkd":
        data = seqkd_corpus(small_model, [corpus[i * 40:i * 40 + 6] for i in range(4)], 20)
    result = train_student(small_model, SMALL, data, config, window=16)
    losses, student = _train_by_two_backwards(small_model, SMALL, data, config, 16)
    assert result.losses == losses
    for (name, got), (_, want) in zip(param_tensors(result.student), param_tensors(student)):
        assert np.array_equal(got, want), name
