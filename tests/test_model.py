"""Transformer tests: forward oracle, likelihoods, generation, persistence."""
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklab.errors import DomainError, FormatError
from shrinklab.model import (
    GELU_C,
    GELU_K,
    LN_EPS,
    PPL_BATCH,
    ModelConfig,
    _forward_full,
    astype,
    copy_model,
    detokenize,
    forward,
    gelu,
    gelu_grad,
    generate,
    init_model,
    ln_detail,
    load_model,
    log_softmax_rows,
    param_tensors,
    perplexity,
    save_model,
    softmax_rows,
    tokenize,
    zero_model,
)

from conftest import SMALL, TOY, overflowing_model


# ---------------------------------------------------------------------------
# tokens and config

def test_tokenize_ascii():
    assert tokenize("hi").tolist() == [104, 105]
    assert tokenize(b"\x00\xff").tolist() == [0, 255]


def test_tokenize_round_trips_utf8():
    for text in ("plain ascii", "héllo Δ→∞", "", "tabs\tand\nnewlines"):
        assert detokenize(tokenize(text)) == text


def test_detokenize_replaces_invalid_runs():
    # a lone continuation byte is not decodable; must not raise
    out = detokenize(np.array([104, 0x80, 105]))
    assert out[0] == "h" and out[-1] == "i"
    with pytest.raises(DomainError):
        detokenize(np.array([0, 300]))


def test_config_validation():
    ModelConfig(1, 2, 32, 128)
    for bad in (
        dict(n_layers=0, n_heads=2, d_model=32, d_ff=128),
        dict(n_layers=1, n_heads=3, d_model=32, d_ff=128),   # 32 % 3 != 0
        dict(n_layers=1, n_heads=2, d_model=30, d_ff=128),   # d_model % 4
        dict(n_layers=1, n_heads=2, d_model=32, d_ff=126),   # d_ff % 4
        dict(n_layers=1, n_heads=2, d_model=32, d_ff=128, vocab_size=1),
        dict(n_layers=1, n_heads=2, d_model=32, d_ff=128, context_len=0),
    ):
        with pytest.raises(DomainError):
            ModelConfig(**bad)


def test_forward_token_validation(small_model):
    with pytest.raises(DomainError):
        forward(small_model, [])
    with pytest.raises(DomainError, match="sequence length 65 exceeds context length 64"):
        forward(small_model, np.zeros(SMALL.context_len + 1, dtype=np.int64))
    with pytest.raises(DomainError):
        forward(small_model, [0, 256])
    with pytest.raises(DomainError):
        forward(small_model, [0.5, 1.5])


# ---------------------------------------------------------------------------
# forward pass against an independent reimplementation

def _naive_forward(model, tokens):
    """Straight-line float64 reimplementation with per-position loops."""
    cfg = model.config
    w = model.weights

    def dense(t):
        return np.asarray(t.dense(np.float64) if hasattr(t, "dense") else t,
                          dtype=np.float64)

    def ln(mat, g, b):
        out = np.empty_like(mat)
        for i, row in enumerate(mat):
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[i] = (row - mu) / np.sqrt(var + LN_EPS) * dense(g) + dense(b)
        return out

    n = len(tokens)
    dh = cfg.d_model // cfg.n_heads
    x = dense(w.tok_emb)[tokens] + dense(w.pos_emb)[:n]
    for li, layer in enumerate(w.layers):
        a = ln(x, layer.ln1_g, layer.ln1_b)
        q = a @ dense(layer.wq)
        k = a @ dense(layer.wk)
        v = a @ dense(layer.wv)
        merged = np.zeros((n, cfg.d_model))
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            ctx = np.zeros((n, dh))
            for i in range(n):
                scores = np.array([q[i, sl] @ k[j, sl] for j in range(i + 1)])
                scores /= np.sqrt(dh)
                p = np.exp(scores - scores.max())
                p /= p.sum()
                for j in range(i + 1):
                    ctx[i] += p[j] * v[j, sl]
            merged[:, sl] = ctx * model.head_mask[li, h]
        x = x + merged @ dense(layer.wo)
        hmid = ln(x, layer.ln2_g, layer.ln2_b)
        u = hmid @ dense(layer.w_in)
        act = 0.5 * u * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * u ** 3)))
        x = x + act @ dense(layer.w_out)
    xf = ln(x, w.ln_f_g, w.ln_f_b)
    return xf @ dense(w.tok_emb).T


def test_forward_matches_naive_oracle(toy_model, corpus):
    tokens = corpus[:24]
    m64 = astype(toy_model, np.float64)
    logits, trace = forward(m64, tokens)
    expect = _naive_forward(m64, tokens)
    assert logits.shape == (24, TOY.vocab_size)
    assert np.max(np.abs(logits - expect)) < 1e-9


def test_attention_trace_shape_and_row_sums(toy_model, corpus):
    tokens = corpus[:17]
    _, probs = forward(toy_model, tokens)
    assert probs.shape == (TOY.n_layers, TOY.n_heads, 17, 17)
    sums = probs.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-5)
    # strictly causal: nothing above the diagonal
    upper = np.triu(np.ones((17, 17), dtype=bool), k=1)
    assert np.all(probs[:, :, upper] == 0.0)


def test_forward_prefix_consistency(small_model, corpus):
    """Causality: logits at position i ignore every later token."""
    tokens = corpus[:12]
    full, _ = forward(small_model, tokens)
    prefix, _ = forward(small_model, tokens[:7])
    assert np.max(np.abs(full[:7] - prefix)) < 1e-4


def test_forward_trace_is_the_stacked_cache_probs(toy_model, corpus):
    tokens = corpus[:20]
    logits, probs = forward(toy_model, tokens)
    bare, no_cache = _forward_full(toy_model, tokens, want_cache=False)
    assert no_cache is None
    assert np.array_equal(bare, logits)
    cached, cache = _forward_full(toy_model, tokens, want_cache=True)
    assert np.array_equal(cached, logits)
    # the maps forward() returns are the probs the cache keeps for backprop
    stacked = np.stack([layer["probs"] for layer in cache["layers"]])
    assert isinstance(probs, np.ndarray)
    assert probs.dtype == stacked.dtype == toy_model.weights.tok_emb.dtype
    assert np.array_equal(probs, stacked)


@pytest.mark.parametrize("kind", ["fp32", "q4", "float64"])
@pytest.mark.parametrize("config", [TOY, SMALL], ids=["toy", "small"])
def test_forward_first_row_equals_the_full_forwards_rows(config, kind):
    """The row cut perplexity uses changes no bit of the rows it keeps.

    TOY is also the benchmark's teacher shape.  Windows of 4 or fewer
    tokens are left out: there the full product takes another BLAS kernel.
    """
    from shrinklab.compress import quantize_model
    base = init_model(config, seed=5)
    m = {"fp32": base, "q4": quantize_model(base, 4), "float64": astype(base, np.float64)}[kind]
    rng = np.random.default_rng(0)
    for n in range(5, config.context_len + 1):
        toks = rng.integers(0, config.vocab_size, size=n)
        full, _ = _forward_full(m, toks, False)
        for k in range(n - 1):
            assert np.array_equal(_forward_full(m, toks, False, first_row=k)[0], full[k:]), (n, k)
    with pytest.raises(DomainError):
        _forward_full(m, toks, True, first_row=1)
    with pytest.raises(DomainError):
        _forward_full(m, toks, True, past=[])


@pytest.mark.parametrize("kind, rtol", [("fp32", 1e-4), ("q4", 1e-4), ("float64", 1e-10)])
def test_forward_with_past_gives_the_full_forwards_rows(corpus, kind, rtol):
    """Rows decoded against cached keys and values match the whole sequence's
    forward to the dtype's rounding, for a single sequence and a batch."""
    from shrinklab.compress import quantize_model
    base = init_model(TOY, seed=5)
    m = {"fp32": base, "q4": quantize_model(base, 4), "float64": astype(base, np.float64)}[kind]
    for toks in (corpus[:20], np.stack([corpus[:20], corpus[100:120], corpus[7:27]])):
        full, _ = _forward_full(m, toks, False)
        got, past = _forward_full(m, toks[..., :9], False, past=[])
        rows = [got]
        for split in ((9, 10), (10, 16), (16, 20)):
            got, past = _forward_full(m, toks[..., slice(*split)], False, past=past)
            rows.append(got)
        assert [k.shape[-2] for k, _ in past] == [20] * TOY.n_layers
        np.testing.assert_allclose(np.concatenate(rows, axis=-2), full, rtol=rtol, atol=rtol)


# ---------------------------------------------------------------------------
# core math against the plain formulas

def _softmax_reference(x):
    """Out-of-place float64 softmax, the formula softmax_rows must equal."""
    x64 = np.asarray(x, dtype=np.float64)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.asarray(x).dtype)


def _log_softmax_reference(x):
    x64 = np.asarray(x, dtype=np.float64)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _masked_scores(dtype):
    """Attention-shaped scores with the causal -inf mask the forward pass applies."""
    scores = np.random.default_rng(3).normal(0.0, 4.0, size=(3, 9, 9)).astype(dtype)
    return np.where(np.tril(np.ones((9, 9), dtype=bool)), scores, -np.inf)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_rows_equal_out_of_place_formula(dtype):
    for x in (_masked_scores(dtype),
              np.random.default_rng(4).normal(0.0, 30.0, size=(5, 256)).astype(dtype)):
        p = softmax_rows(x, where=np.isfinite(x))
        assert p.dtype == dtype
        assert np.array_equal(p, _softmax_reference(x))
        ls = log_softmax_rows(x)
        assert ls.dtype == np.float64
        assert np.array_equal(ls, _log_softmax_reference(x))


def test_softmax_rows_leave_float64_input_untouched():
    x = _masked_scores(np.float64)
    before = x.copy()
    softmax_rows(x, where=np.isfinite(x))
    log_softmax_rows(x)
    assert np.array_equal(x, before)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_softmax_equals_the_softmax_of_minus_inf_masked_scores(dtype):
    """The engine's mask keeps every bit of the -inf formulation, and no -inf
    or masked value, however large, reaches exp."""
    n = 12
    causal = np.tri(n, dtype=bool)
    rng = np.random.default_rng(8)
    big = np.finfo(dtype).max / 4
    cases = [rng.normal(0.0, 4.0, size=(2, 3, n, n)),
             rng.normal(0.0, 1e4, size=(3, n, n)),
             # huge masked entries over huge negative live ones
             np.where(causal, -big, big) + rng.normal(0.0, 1.0, size=(n, n))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scores in (c.astype(dtype) for c in cases):
            for r in (0, 1, n // 2, n - 1):  # row r keeps r + 1 live entries
                live = causal[r:]
                x = np.ascontiguousarray(scores[..., r:, :])
                want = _softmax_reference(np.where(live, x, -np.inf))
                assert _same_bits(softmax_rows(x, where=live), want), (dtype, r)
                assert _same_bits(softmax_rows(x, where=live, out=x), want), (dtype, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_equals_its_out_of_place_expression(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.concatenate([np.linspace(-10.0, 10.0, 4001),
                        np.random.default_rng(9).normal(0.0, 3.0, 20000),
                        [0.0, -0.0, 1e-30, -1e-30, 1e12, -1e12]]).astype(dtype)
    x = np.concatenate([x, np.array([tiny, -tiny, 7 * tiny], dtype=dtype)])
    want = 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_K * (x * x * x))))
    assert _same_bits(gelu(x), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_equals_two_pass_formula(dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(0.3, 2.0, size=(7, 32)).astype(dtype)
    g = rng.normal(1.0, 0.1, size=32).astype(dtype)
    b = rng.normal(0.0, 0.1, size=32).astype(dtype)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    expect = (x - mu) * (1.0 / np.sqrt(var + LN_EPS)) * g + b
    assert np.array_equal(ln_detail(x, g, b)[0], expect)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_and_grad_match_float64_power_reference(dtype):
    x = np.concatenate([np.linspace(-8.0, 8.0, 4001),
                        np.random.default_rng(6).uniform(-8.0, 8.0, 20000)]).astype(dtype)
    x64 = x.astype(np.float64)
    t = np.tanh(GELU_C * (x64 + GELU_K * x64 ** 3))
    ref = 0.5 * x64 * (1.0 + t)
    ref_grad = 0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t ** 2) * GELU_C * (1.0 + 3.0 * GELU_K * x64 ** 2)
    # about ten roundings of the input dtype, each at most eps/2 of an
    # intermediate no larger than 1 + |x|; observed worst is under 2 eps (1 + |x|)
    tol = 8.0 * np.finfo(dtype).eps * (1.0 + np.abs(x64))
    got, got_grad = gelu(x), gelu_grad(x)
    assert got.dtype == dtype and got_grad.dtype == dtype
    assert np.all(np.abs(got - ref) <= tol)
    assert np.all(np.abs(got_grad - ref_grad) <= tol)


# ---------------------------------------------------------------------------
# likelihoods

def _nll(logits, targets) -> float:
    """Mean NLL of targets, read from log_softmax_rows as perplexity and cross-entropy do."""
    return float(-log_softmax_rows(logits)[np.arange(len(targets)), targets].mean())


def test_log_softmax_rows_nll_hand_value():
    # log(e^1 + e^2 + e^3) = 3 + log(1 + 1/e + 1/e^2)
    lse = 3.0 + np.log1p(np.exp(-1.0) + np.exp(-2.0))
    got = _nll(np.array([[1.0, 2.0, 3.0]]), np.array([2]))
    assert got == pytest.approx(float(lse - 3.0), abs=1e-12)
    assert got == pytest.approx(0.40760596444438013, abs=1e-12)
    worse = _nll(np.array([[1.0, 2.0, 3.0]]), np.array([1]))
    assert worse == pytest.approx(float(lse - 2.0), abs=1e-12)


def test_log_softmax_rows_nll_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    a = _nll(logits, targets)
    b = _nll(logits + 123.456, targets)
    assert a == pytest.approx(b, abs=1e-12)


def test_log_softmax_rows_nll_extreme_logits_stay_finite():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    assert _nll(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-12)
    assert _nll(logits, np.array([1, 0])) == pytest.approx(1000.0, rel=1e-12)


def test_uniform_model_perplexity_is_vocab_size(corpus):
    ppl = perplexity(zero_model(TOY), corpus[:400])
    assert ppl == pytest.approx(256.0, rel=1e-6)
    tiny = ModelConfig(1, 2, 16, 16, vocab_size=16, context_len=8)
    ppl16 = perplexity(zero_model(tiny), np.arange(40) % 16)
    assert ppl16 == pytest.approx(16.0, rel=1e-6)


def test_an_overflowing_mean_nll_gives_an_infinite_perplexity_without_a_warning(corpus):
    """Finite logits whose mean NLL passes exp's range: inf, for the callers to reject."""
    model = init_model(TOY, seed=0)
    model.weights.ln_f_g[:] = 1e30
    assert perplexity(model, corpus) == np.inf


def test_memorizer_drives_perplexity_to_one():
    m = zero_model(TOY)
    m.weights.ln_f_b[0] = 20.0
    m.weights.tok_emb[65, 0] = 20.0
    ppl = perplexity(m, tokenize("A" * 50))
    assert 1.0 <= ppl < 1.0 + 1e-9


def test_perplexity_chunked_equals_manual(small_model, corpus):
    toks = corpus[:11]
    got = perplexity(small_model, toks, window=4, stride=4)
    total, count = 0.0, 0
    for start in (0, 4, 8):
        chunk = toks[start:start + 4]
        logits, _ = forward(small_model, chunk)
        for i in range(1, len(chunk)):
            total += -log_softmax_rows(logits[i - 1:i])[0, chunk[i]]
            count += 1
    assert count == 8  # positions 4 and 8 start fresh chunks, never scored
    assert got == pytest.approx(float(np.exp(total / count)), rel=1e-12)


def test_perplexity_sliding_scores_each_token_once(small_model, corpus):
    """Closed-form window assignment oracle for overlapping windows."""
    toks = corpus[:57]
    n = toks.size
    for window, stride in ((8, 4), (8, 2), (6, 5), (8, 8)):
        got = perplexity(small_model, toks, window=window, stride=stride)
        total, seen = 0.0, []
        for t in range(1, n):
            # first window reaching t: smallest k with k*stride + window > t
            k = max(0, -((-(t - window + 1)) // stride))
            start = k * stride
            if start > t - 1:
                continue  # t opens its window with no predecessor inside
            chunk = toks[start:min(start + window, n)]
            logits, _ = forward(small_model, chunk)
            total += -log_softmax_rows(logits[t - 1 - start:t - start])[0, toks[t]]
            seen.append(t)
        if stride < window:
            assert seen == list(range(1, n))
        else:
            assert seen == [t for t in range(1, n) if t % stride != 0]
        assert got == pytest.approx(float(np.exp(total / len(seen))), rel=1e-10)


def _windows(n, window, stride):
    """(start, end, first) of every window that scores tokens first..end-1."""
    out, start, scored_upto = [], 0, 1
    while scored_upto < n:
        end = min(start + window, n)
        first = max(scored_upto, start + 1)
        if first < end:
            out.append((start, end, first))
        scored_upto = end
        start += stride
    return out


def _perplexity_by_window(model, toks, window, stride):
    """Oracle: each window alone through the 1-D forward, then its log-softmax rows."""
    total, count = 0.0, 0
    for start, end, first in _windows(toks.size, window, stride):
        logits, _ = _forward_full(model, toks[start:end], False, first_row=first - 1 - start)
        ls = log_softmax_rows(logits[:-1])
        total += float(-ls[np.arange(end - first), toks[first:end]].mean()) * (end - first)
        count += end - first
    return float(np.exp(total / count))


def _ppl_models(config):
    from shrinklab.compress import prune_model_2_4, quantize_model
    base = init_model(config, seed=2)
    masked = init_model(config, seed=2)
    masked.head_mask[-1, 1] = 0.0
    return {"fp32": base, "q4": quantize_model(base, 4), "2:4": prune_model_2_4(base),
            "masked": masked}


@pytest.mark.parametrize("config", [TOY, SMALL], ids=["toy", "small"])
def test_perplexity_batches_equal_a_window_by_window_oracle(config, corpus, monkeypatch):
    import shrinklab.model as model_mod
    batches = []

    def spy(model, tokens, *args, **kwargs):
        batches.append(tokens.shape)
        return _forward_full(model, tokens, *args, **kwargs)

    monkeypatch.setattr(model_mod, "_forward_full", spy)
    for kind, m in _ppl_models(config).items():
        for window, stride in ((5, 1), (5, 5), (17, 1), (17, 5), (17, 8),
                               (64, 1), (64, 5), (64, 8), (64, 63), (64, 64)):
            toks = corpus[:100 if stride == 1 else 148]
            got = perplexity(m, toks, window=window, stride=stride)
            assert got == _perplexity_by_window(m, toks, window, stride), (kind, window, stride)
    # partial last batches, single-window batches and short tails all ran
    assert {b for b, _ in batches} == set(range(1, PPL_BATCH + 1))
    assert any(length < 5 for _, length in batches)

    # a (B, n) stack gives the stacked 1-D results, with and without a row cut; the
    # float64 model is the one distillation's teacher pass runs
    rng = np.random.default_rng(1)
    models = _ppl_models(config)
    models["fp64"] = astype(models["fp32"], np.float64)
    for kind, m in models.items():
        for n in (17, 64):
            stack = rng.integers(0, config.vocab_size, size=(PPL_BATCH, n))
            for k in (0, n - 9):
                want = np.stack([_forward_full(m, t, False, first_row=k)[0] for t in stack])
                got = _forward_full(m, stack, False, first_row=k)[0]
                assert _same_bits(got, want), (kind, n, k)


def test_perplexity_expands_each_quantized_projection_once_per_window(corpus, monkeypatch):
    """Batching must not amortize q4's dequantization: the measured cost of a
    quantized model stays what running its windows one by one pays."""
    from shrinklab.compress import QuantizedTensor, quantize_model
    m = quantize_model(init_model(TOY, seed=4), 4)
    calls = []
    real_dense = QuantizedTensor.dense

    def counting_dense(self, *args, **kwargs):
        calls.append(self)
        return real_dense(self, *args, **kwargs)

    monkeypatch.setattr(QuantizedTensor, "dense", counting_dense)
    for window, stride in ((64, 8), (64, 64), (17, 5)):
        calls.clear()
        perplexity(m, corpus[:500], window=window, stride=stride)
        assert len(calls) == 6 * TOY.n_layers * len(_windows(500, window, stride))


def test_perplexity_checks_its_corpus_once(small_model, corpus, monkeypatch):
    """The whole corpus is checked against the vocabulary in one call; each window's
    length is left to the forward it runs through."""
    import shrinklab.model as model_mod
    seen = []
    real_check = model_mod._check_tokens

    def spy(tokens, config, *args):
        seen.append(len(tokens))
        return real_check(tokens, config, *args)

    monkeypatch.setattr(model_mod, "_check_tokens", spy)
    perplexity(small_model, corpus[:200], window=16, stride=8)
    assert seen == [200]
    with pytest.raises(DomainError, match=r"token ids must lie in \[0, 256\)"):
        perplexity(small_model, np.append(corpus[:200], 256))


def test_perplexity_validation(small_model):
    toks = np.arange(10)
    with pytest.raises(DomainError):
        perplexity(small_model, toks, window=SMALL.context_len + 1)
    with pytest.raises(DomainError):
        perplexity(small_model, toks, window=4, stride=5)
    with pytest.raises(DomainError):
        perplexity(small_model, toks, window=0)
    with pytest.raises(DomainError):
        perplexity(small_model, np.array([7]))


@pytest.mark.parametrize("kwargs", [{"window": 1}, {"window": 1, "stride": 1},
                                    {"window": 32.0}, {"window": 32, "stride": 8.5},
                                    {"window": True}, {"window": "32"}])
def test_perplexity_rejects_unusable_windows(small_model, kwargs):
    """A one-token window scores nothing; a non-integer window or stride is no window."""
    with pytest.raises(DomainError):
        perplexity(small_model, np.arange(10), **kwargs)


# ---------------------------------------------------------------------------
# generation

def test_generate_greedy_is_deterministic(small_model):
    prompt = tokenize("the ")
    a = generate(small_model, prompt, steps=6)
    b = generate(small_model, prompt, steps=6)
    assert a.tolist() == b.tolist()
    assert a.size == prompt.size + 6
    assert a[:prompt.size].tolist() == prompt.tolist()


def test_generate_bounds_and_modes(small_model):
    prompt = np.zeros(10, dtype=np.int64)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=SMALL.context_len - 9)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=-1)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=2.5)
    with pytest.raises(DomainError):
        generate(small_model, np.zeros((0, 3), dtype=np.int64), steps=1)
    with pytest.raises(DomainError):
        generate(small_model, np.zeros((1, 2, 3), dtype=np.int64), steps=1)
    same = generate(small_model, prompt, steps=0)
    assert same.tolist() == prompt.tolist()


def _full_forward_continuation(model, prompt, steps):
    """generate's contract: each token is the argmax of the full forward's last row."""
    seq = list(prompt)
    for _ in range(steps):
        logits, _ = _forward_full(model, np.asarray(seq), want_cache=False)
        seq.append(int(np.argmax(logits[-1].astype(np.float64))))
    return seq


def test_generate_rejects_a_step_whose_logits_are_not_finite(corpus):
    """An argmax over nan logits would pick byte 0 at every step."""
    with pytest.raises(DomainError, match="logits of step 1 are not finite"):
        generate(overflowing_model(), corpus[:8], steps=4)
    with pytest.raises(DomainError, match="logits of step 1 are not finite"):
        generate(overflowing_model(), np.stack([corpus[:8], corpus[8:16]]), steps=4)


@pytest.mark.parametrize("config", [TOY, SMALL], ids=["toy", "small"])
def test_generate_picks_what_the_full_forwards_last_row_picks(config, corpus):
    """generate computes only its last 2 rows; the tokens are those of the full forward."""
    model = init_model(config, seed=3)
    for length in range(1, 9):
        prompt = corpus[40 * length:41 * length]
        got = generate(model, prompt, steps=12)
        assert got.tolist() == _full_forward_continuation(model, prompt, 12)


def test_generate_on_a_batch_equals_one_call_per_row(toy_model, corpus):
    """Row i of a (B, n) batch is decoded as a single call on prompt i."""
    prompts = np.stack([corpus[s:s + 6] for s in (0, 50, 90, 300)])
    got = generate(toy_model, prompts, steps=10)
    assert got.shape == (4, 16)
    for i, prompt in enumerate(prompts):
        assert got[i].tolist() == generate(toy_model, prompt, 10).tolist()


# ---------------------------------------------------------------------------
# persistence

def test_save_load_round_trip_bitwise(toy_model, corpus, tmp_path):
    path = tmp_path / "toy.lmz"
    save_model(toy_model, path)
    back = load_model(path)
    a, _ = forward(toy_model, corpus[:20])
    b, _ = forward(back, corpus[:20])
    assert np.array_equal(a, b)
    assert np.array_equal(toy_model.head_mask, back.head_mask)


def test_save_is_byte_stable(small_model, tmp_path):
    p1, p2 = tmp_path / "a.lmz", tmp_path / "b.lmz"
    save_model(small_model, p1)
    save_model(small_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_preserves_head_mask(small_model, corpus, tmp_path):
    from shrinklab.compress import head_concentration, prune_heads
    calib = [corpus[:20], corpus[20:40]]
    pruned = prune_heads(small_model, head_concentration(small_model, calib),
                         threshold=0.05)
    assert pruned.head_mask.sum() < small_model.head_mask.sum()
    path = tmp_path / "pruned.lmz"
    save_model(pruned, path)
    back = load_model(path)
    assert np.array_equal(back.head_mask, pruned.head_mask)
    a, _ = forward(pruned, corpus[:16])
    b, _ = forward(back, corpus[:16])
    assert np.array_equal(a, b)


def _saved(tmp_path, model):
    path = tmp_path / "m.lmz"
    save_model(model, path)
    return path


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.lmz"
    path.write_bytes(b"")
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert exc.value.offset == 0


def test_load_rejects_non_json_header(tmp_path):
    path = tmp_path / "bad.lmz"
    path.write_bytes(b"not json at all\nxxxx")
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert isinstance(exc.value.offset, int)


@pytest.mark.parametrize("header", [
    b'{"config": ' + b"9" * 5000 + b"}",  # beyond Python's int-string digit limit
    b"[" * 100_000,  # deeper than the JSON decoder's recursion limit
], ids=["huge-integer", "deep-nesting"])
def test_load_rejects_unreadable_json_header(tmp_path, header):
    path = tmp_path / "bad.lmz"
    path.write_bytes(header + b"\nxxxx")
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("header, named", [
    (b"{}", "header must carry 'config' and 'tensors'"),
    (b'{"config": {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 128}, "tensors": {}}',
     "'tensors' must be a list"),
], ids=["empty", "tensors-object"])
def test_load_rejects_a_header_without_a_tensor_list(tmp_path, header, named):
    path = tmp_path / "bad.lmz"
    path.write_bytes(header + b"\nxxxx")
    with pytest.raises(FormatError, match=named) as exc:
        load_model(path)
    assert exc.value.offset == 0


@pytest.mark.parametrize("entry", [0.5, np.nan], ids=["half", "nan"])
def test_load_rejects_a_head_mask_entry_other_than_0_or_1(small_model, tmp_path, entry):
    mask = small_model.head_mask.copy()
    mask[0, 1] = entry
    path = _saved(tmp_path, dataclasses.replace(small_model, head_mask=mask))
    with pytest.raises(FormatError, match="head_mask entries must be 0 or 1") as exc:
        load_model(path)
    # the mask is the last tensor in the file
    assert exc.value.offset == path.stat().st_size - mask.size * 4


@pytest.mark.parametrize("name, index, value", [
    ("layers.0.wq", (0, 0), np.nan), ("layers.0.wq", (3, 5), np.inf),
    ("tok_emb", (5, 5), np.inf), ("tok_emb", (7, 2), np.nan),
], ids=["projection-nan", "projection-inf", "embedding-inf", "embedding-nan"])
def test_load_rejects_a_non_finite_weight_at_its_byte(small_model, tmp_path, name, index, value):
    model = copy_model(small_model)
    dict(param_tensors(model))[name][index] = value
    path = _saved(tmp_path, model)
    with pytest.raises(FormatError, match=f"{name} entries must be finite") as exc:
        load_model(path)
    data = path.read_bytes()
    newline = data.index(b"\n")
    entry = next(e for e in json.loads(data[:newline])["tensors"] if e["name"] == name)
    at = newline + 1 + entry["offset"] + 4 * int(np.ravel_multi_index(index, entry["shape"]))
    assert exc.value.offset == at
    assert not np.isfinite(np.frombuffer(data[at:at + 4], dtype="<f4")[0])


def test_load_rejects_truncated_payload(small_model, tmp_path):
    path = _saved(tmp_path, small_model)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="truncated") as exc:
        load_model(path)
    assert exc.value.offset == len(data) - 5


def test_load_rejects_trailing_bytes(small_model, tmp_path):
    path = _saved(tmp_path, small_model)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_model(path)


def test_load_rejects_tampered_shape(small_model, tmp_path):
    path = _saved(tmp_path, small_model)
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = json.loads(data[:newline])
    header["tensors"][0]["shape"][0] += 1
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    with pytest.raises(FormatError, match="shape"):
        load_model(path)


def test_load_rejects_bad_config(small_model, tmp_path):
    path = _saved(tmp_path, small_model)
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = json.loads(data[:newline])
    header["config"]["d_model"] = 30  # not divisible by 4
    path.write_bytes(json.dumps(header).encode() + data[newline:])
    with pytest.raises(FormatError, match="config"):
        load_model(path)


def _with_header(path, edit):
    """Rewrite a saved model's header through edit(header), keeping the payload."""
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = json.loads(data[:newline])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + data[newline:])


@pytest.mark.parametrize("shape", [5, None, "32"])
def test_load_rejects_non_list_shape(small_model, tmp_path, shape):
    path = _saved(tmp_path, small_model)
    _with_header(path, lambda h: h["tensors"][0].update(shape=shape))
    with pytest.raises(FormatError, match="shape"):
        load_model(path)


def test_load_rejects_boolean_config_field(small_model, tmp_path):
    path = _saved(tmp_path, small_model)
    _with_header(path, lambda h: h["config"].update(n_layers=True))
    with pytest.raises(FormatError, match="n_layers"):
        load_model(path)
    with pytest.raises(DomainError):
        ModelConfig(n_layers=1, n_heads=True, d_model=32, d_ff=128)


def test_load_checks_tensor_count_before_building_the_layout(tmp_path):
    """A short header claiming 100,000 layers is rejected in bounded memory."""
    import tracemalloc
    path = tmp_path / "huge.lmz"
    path.write_bytes(json.dumps({
        "config": {"n_layers": 100_000, "n_heads": 1, "d_model": 4, "d_ff": 4},
        "tensors": []}).encode() + b"\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="tensors"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_rejects_shapes_whose_byte_size_overflows_int64(small_model, tmp_path):
    """Embeddings of 2**62 rows would wrap to 0 bytes in int64 arithmetic."""
    path = _saved(tmp_path, small_model)
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = json.loads(data[:newline])
    emb_bytes = 4 * (SMALL.vocab_size + SMALL.context_len) * SMALL.d_model
    header["config"].update(vocab_size=2 ** 62, context_len=2 ** 62)
    for entry in header["tensors"]:
        if entry["name"] in ("tok_emb", "pos_emb"):
            entry["shape"][0] = 2 ** 62
        entry["offset"] = max(0, entry["offset"] - emb_bytes)
    path.write_bytes(json.dumps(header).encode() + data[newline:newline + 1]
                     + data[newline + 1 + emb_bytes:])
    with pytest.raises(FormatError):
        load_model(path)


TINY = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8, vocab_size=4, context_len=4)


@pytest.fixture(scope="module")
def tiny_file_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("tiny") / "tiny.lmz"
    save_model(init_model(TINY, seed=3), path)
    return path.read_bytes()


# random bytes, and JSON tokens that keep a mutated header parseable more often
_CHUNKS = st.one_of(st.binary(min_size=1, max_size=3),
                    st.sampled_from([b"true", b"null", b"5", b"-1", b"0", b"1e999", b"[]",
                                     b"{}", b'""', b",", b"]", b"[", b'"x"']))


@given(edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                st.integers(min_value=0), _CHUNKS),
                      min_size=1, max_size=4),
       header_only=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_mutated_file_loads_or_raises_format_error(tiny_file_bytes, tmp_path,
                                                        edits, header_only):
    data = bytearray(tiny_file_bytes)
    # most mutations aim at the header, where the parsing happens
    span = data.index(b"\n") + 1 if header_only else len(data)
    for kind, pos, chunk in edits:
        at = pos % span
        if kind == "replace":
            data[at:at + len(chunk)] = chunk
        elif kind == "insert":
            data[at:at] = chunk
        else:
            del data[at:at + len(chunk)]
    path = tmp_path / "mutated.lmz"
    path.write_bytes(bytes(data))
    try:
        model = load_model(path)
    except FormatError:
        return
    assert isinstance(model.config, ModelConfig)
    assert np.isin(model.head_mask, (0.0, 1.0)).all()
    assert all(np.isfinite(t).all() for _, t in param_tensors(model))


def test_astype_returns_the_model_itself_when_no_dtype_changes(small_model):
    m64 = astype(small_model, np.float64)
    assert m64 is not small_model
    for (name, got), (_, src) in zip(param_tensors(m64), param_tensors(small_model)):
        assert got.dtype == np.float64 and not np.shares_memory(got, src), name
    assert not np.shares_memory(m64.head_mask, small_model.head_mask)
    assert astype(m64, np.float64) is m64
    assert astype(small_model, np.float32) is small_model


def test_init_is_seed_deterministic():
    a = init_model(SMALL, seed=5)
    b = init_model(SMALL, seed=5)
    c = init_model(SMALL, seed=6)
    assert np.array_equal(a.weights.tok_emb, b.weights.tok_emb)
    assert not np.array_equal(a.weights.tok_emb, c.weights.tok_emb)
    assert a.weights.tok_emb.dtype == np.float32
    # init scale: draws come from a 0.02 sigma normal
    assert abs(float(a.weights.tok_emb.std()) - 0.02) < 0.002
    for seed in (-1, 1.5, True, "5"):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            init_model(SMALL, seed=seed)
