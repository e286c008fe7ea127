"""Transformer tests: forward oracle, likelihoods, generation, persistence."""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklab.errors import DomainError, FormatError
from shrinklab.model import (
    GELU_C,
    GELU_K,
    LN_EPS,
    ModelConfig,
    _forward_full,
    astype,
    detokenize,
    forward,
    gelu,
    gelu_grad,
    generate,
    init_model,
    ln_detail,
    load_model,
    log_softmax_rows,
    mean_nll,
    perplexity,
    save_model,
    softmax_rows,
    tokenize,
    zero_model,
)

from conftest import SMALL, TOY


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
    with pytest.raises(DomainError):
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
        p = softmax_rows(x)
        assert p.dtype == dtype
        assert np.array_equal(p, _softmax_reference(x))
        ls = log_softmax_rows(x)
        assert ls.dtype == np.float64
        assert np.array_equal(ls, _log_softmax_reference(x))


def test_softmax_rows_leave_float64_input_untouched():
    x = _masked_scores(np.float64)
    before = x.copy()
    softmax_rows(x)
    log_softmax_rows(x)
    assert np.array_equal(x, before)


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

def test_mean_nll_hand_value():
    # log(e^1 + e^2 + e^3) = 3 + log(1 + 1/e + 1/e^2)
    lse = 3.0 + np.log1p(np.exp(-1.0) + np.exp(-2.0))
    got = mean_nll(np.array([[1.0, 2.0, 3.0]]), np.array([2]))
    assert got == pytest.approx(float(lse - 3.0), abs=1e-12)
    assert got == pytest.approx(0.40760596444438013, abs=1e-12)
    worse = mean_nll(np.array([[1.0, 2.0, 3.0]]), np.array([1]))
    assert worse == pytest.approx(float(lse - 2.0), abs=1e-12)


def test_mean_nll_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    a = mean_nll(logits, targets)
    b = mean_nll(logits + 123.456, targets)
    assert a == pytest.approx(b, abs=1e-12)


def test_mean_nll_extreme_logits_stay_finite():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    assert mean_nll(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-12)
    assert mean_nll(logits, np.array([1, 0])) == pytest.approx(1000.0, rel=1e-12)


def test_mean_nll_validation():
    with pytest.raises(DomainError):
        mean_nll(np.zeros((2, 4)), np.array([0]))
    with pytest.raises(DomainError):
        mean_nll(np.zeros((2, 4)), np.array([0, 4]))
    with pytest.raises(DomainError):
        mean_nll(np.zeros(4), np.array([0]))


def test_uniform_model_perplexity_is_vocab_size(corpus):
    ppl = perplexity(zero_model(TOY), corpus[:400])
    assert ppl == pytest.approx(256.0, rel=1e-6)
    tiny = ModelConfig(1, 2, 16, 16, vocab_size=16, context_len=8)
    ppl16 = perplexity(zero_model(tiny), np.arange(40) % 16)
    assert ppl16 == pytest.approx(16.0, rel=1e-6)


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
            total += mean_nll(logits[i - 1:i], chunk[i:i + 1])
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
            total += mean_nll(logits[t - 1 - start:t - start], toks[t:t + 1])
            seen.append(t)
        if stride < window:
            assert seen == list(range(1, n))
        else:
            assert seen == [t for t in range(1, n) if t % stride != 0]
        assert got == pytest.approx(float(np.exp(total / len(seen))), rel=1e-10)


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


def test_generate_sampling_seeded(small_model):
    prompt = tokenize("ab")
    a = generate(small_model, prompt, steps=8, mode="sample", seed=3)
    b = generate(small_model, prompt, steps=8, mode="sample", seed=3)
    c = generate(small_model, prompt, steps=8, mode="sample", seed=4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()  # 8 draws over 256 symbols colliding is ~0


def test_generate_cold_sampling_matches_greedy(small_model):
    prompt = tokenize("abc")
    greedy = generate(small_model, prompt, steps=5)
    cold = generate(small_model, prompt, steps=5, mode="sample", temperature=1e-6)
    assert greedy.tolist() == cold.tolist()


def test_generate_bounds_and_modes(small_model):
    prompt = np.zeros(10, dtype=np.int64)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=SMALL.context_len - 9)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=-1)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=2.5)
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=1, mode="beam")
    with pytest.raises(DomainError):
        generate(small_model, prompt, steps=1, mode="sample", temperature=0.0)
    same = generate(small_model, prompt, steps=0)
    assert same.tolist() == prompt.tolist()


def _full_forward_continuation(model, prompt, steps, mode, seed):
    """generate's contract: each token from the full forward's last row, drawn as generate draws."""
    rng = np.random.default_rng(seed)
    seq = list(prompt)
    for _ in range(steps):
        logits, _ = _forward_full(model, np.asarray(seq), want_cache=False)
        last = logits[-1].astype(np.float64)
        if mode == "greedy":
            seq.append(int(np.argmax(last)))
        else:
            p = np.exp(last - last.max())
            seq.append(int(rng.choice(p.size, p=p / p.sum())))
    return seq


@pytest.mark.parametrize("mode", ["greedy", "sample"])
@pytest.mark.parametrize("config", [TOY, SMALL], ids=["toy", "small"])
def test_generate_picks_what_the_full_forwards_last_row_picks(config, mode, corpus):
    """generate computes only its last 2 rows; the tokens are those of the full forward."""
    model = init_model(config, seed=3)
    for length in range(1, 9):
        prompt = corpus[40 * length:41 * length]
        got = generate(model, prompt, steps=12, mode=mode, seed=length)
        assert got.tolist() == _full_forward_continuation(model, prompt, 12, mode, length)


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


def test_init_is_seed_deterministic():
    a = init_model(SMALL, seed=5)
    b = init_model(SMALL, seed=5)
    c = init_model(SMALL, seed=6)
    assert np.array_equal(a.weights.tok_emb, b.weights.tok_emb)
    assert not np.array_equal(a.weights.tok_emb, c.weights.tok_emb)
    assert a.weights.tok_emb.dtype == np.float32
    # init scale: draws come from a 0.02 sigma normal
    assert abs(float(a.weights.tok_emb.std()) - 0.02) < 0.002
