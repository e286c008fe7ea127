"""A small decoder-only transformer over byte tokens.

Pre-norm blocks, learned positional embeddings, and an output head tied to
the token embedding.  Weights are plain numpy arrays stored as x @ W with
shape (in, out); linear projections may instead hold quantized views (see
compress), which are expanded to dense on use.  Models are built and saved
in float32; inference runs in the dtype of the stored weights (float64 after
astype), while softmax and log-likelihood sums accumulate in float64.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, check_integer

LN_EPS = 1e-5
INIT_STD = 0.02
BYTE_VOCAB = 256
# a perplexity window scores every token but its first
MIN_PPL_WINDOW = 2
# perplexity windows per forward call; more buys no speed and costs memory
PPL_BATCH = 4

# names of the linear projection attributes on a layer, in storage order
LINEAR_NAMES = ("wq", "wk", "wv", "wo", "w_in", "w_out")
_LAYER_TENSOR_NAMES = LINEAR_NAMES + ("ln1_g", "ln1_b", "ln2_g", "ln2_b")


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int = BYTE_VOCAB
    context_len: int = 64

    def __post_init__(self):
        for f in fields(self):
            check_integer(getattr(self, f.name), f.name)
        if self.d_model % self.n_heads != 0:
            raise DomainError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )
        if self.d_model % 4 != 0 or self.d_ff % 4 != 0:
            raise DomainError("d_model and d_ff must be divisible by 4")
        if self.vocab_size < 2:
            raise DomainError("vocab_size must be at least 2")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class LayerWeights:
    """One transformer block.  Projections are (in, out) matrices without bias."""

    wq: object
    wk: object
    wv: object
    wo: object
    w_in: object
    w_out: object
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class Weights:
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    layers: list[LayerWeights]
    ln_f_g: np.ndarray
    ln_f_b: np.ndarray


@dataclass
class TinyLM:
    """A model instance: config, weights, and a per-head keep mask.

    head_mask has shape (n_layers, n_heads); entries are 1.0 for live heads
    and 0.0 for pruned ones.  Instances are treated as immutable; passes
    that modify a model return a new instance.
    """

    config: ModelConfig
    weights: Weights
    head_mask: np.ndarray


def dense_weight(w, dtype=None):
    """Return a plain array for a weight that may be a quantized view."""
    if isinstance(w, np.ndarray):
        return w if dtype is None else w.astype(dtype, copy=False)
    return w.dense(np.float32 if dtype is None else dtype)


def param_layout(config: ModelConfig):
    """(name, shape) of every trainable parameter, in param_tensors order.

    A generator, so a caller can stop early without paying for every layer.
    """
    d, f = config.d_model, config.d_ff
    layer = tuple(zip(_LAYER_TENSOR_NAMES, [(d, d)] * 4 + [(d, f), (f, d)] + [(d,)] * 4))
    yield "tok_emb", (config.vocab_size, d)
    yield "pos_emb", (config.context_len, d)
    for i in range(config.n_layers):
        for attr, shape in layer:
            yield f"layers.{i}.{attr}", shape
    yield "ln_f.g", (d,)
    yield "ln_f.b", (d,)


def from_tensors(config: ModelConfig, tensors, head_mask: np.ndarray) -> TinyLM:
    """Assemble a model from tensors keyed by their param_layout names."""
    layers = [LayerWeights(**{attr: tensors[f"layers.{i}.{attr}"] for attr in _LAYER_TENSOR_NAMES})
              for i in range(config.n_layers)]
    weights = Weights(tensors["tok_emb"], tensors["pos_emb"], layers,
                      tensors["ln_f.g"], tensors["ln_f.b"])
    return TinyLM(config, weights, head_mask)


def param_tensors(model: TinyLM) -> list[tuple[str, object]]:
    """Canonical (name, tensor) list of trainable parameters, in storage order."""
    out: list[tuple[str, object]] = [
        ("tok_emb", model.weights.tok_emb),
        ("pos_emb", model.weights.pos_emb),
    ]
    for i, lw in enumerate(model.weights.layers):
        for attr in _LAYER_TENSOR_NAMES:
            out.append((f"layers.{i}.{attr}", getattr(lw, attr)))
    out.append(("ln_f.g", model.weights.ln_f_g))
    out.append(("ln_f.b", model.weights.ln_f_b))
    return out


def _map_params(model: TinyLM, fn) -> TinyLM:
    """New model with fn applied to every dense parameter array.

    Quantized views are passed through untouched; fn receives only ndarrays.
    """
    return from_tensors(model.config, {name: fn(t) if isinstance(t, np.ndarray) else t
                                       for name, t in param_tensors(model)},
                        model.head_mask.copy())


def astype(model: TinyLM, dtype) -> TinyLM:
    """Model with all dense parameters cast to dtype; returns the model itself when nothing changes.

    Arrays already in the target dtype are shared, so the result may alias
    the input; use copy_model for an independent model.
    """
    if all(t.dtype == dtype for _, t in param_tensors(model) if isinstance(t, np.ndarray)):
        return model
    return _map_params(model, lambda a: a.astype(dtype, copy=False))


def copy_model(model: TinyLM) -> TinyLM:
    return _map_params(model, np.copy)


def _from_layout(config: ModelConfig, matrix) -> TinyLM:
    """Float32 model whose matrices come from matrix(shape), in layout order.

    Norm gains (the names ending in g) start at 1, biases at 0, and every
    head is live.
    """
    tensors = {name: matrix(shape) if len(shape) == 2
               else (np.ones if name.endswith("g") else np.zeros)(shape, dtype=np.float32)
               for name, shape in param_layout(config)}
    return from_tensors(config, tensors,
                        np.ones((config.n_layers, config.n_heads), dtype=np.float32))


def init_model(config: ModelConfig, seed: int = 0) -> TinyLM:
    """Fresh model with Gaussian weights (std 0.02), deterministic per seed.

    All matrices and embeddings are drawn from one generator in layout
    order; norm gains start at 1 and biases at 0.
    """
    rng = np.random.default_rng(check_integer(seed, "seed", minimum=0))
    return _from_layout(config,
                        lambda shape: rng.normal(0.0, INIT_STD, size=shape).astype(np.float32))


def zero_model(config: ModelConfig) -> TinyLM:
    """Model with every matrix and bias zero and norm gains one.

    Its logits are constant, so next-token distributions are exactly
    uniform; handy as a reference point.
    """
    return _from_layout(config, lambda shape: np.zeros(shape, dtype=np.float32))


# ---------------------------------------------------------------------------
# tokenization

def tokenize(text: str | bytes) -> np.ndarray:
    """UTF-8 bytes of text as token ids in [0, 256)."""
    raw = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def detokenize(tokens) -> str:
    """Inverse of tokenize; invalid UTF-8 byte runs are replaced."""
    toks = np.asarray(tokens)
    if toks.size and (toks.min() < 0 or toks.max() > 255):
        raise DomainError("byte tokens must lie in [0, 256)")
    return bytes(toks.astype(np.uint8).tolist()).decode("utf-8", errors="replace")


def _check_tokens(tokens, config: ModelConfig, ndim: int = 1) -> np.ndarray:
    """Integer ids in config's vocabulary, of any length: _forward_full checks the context."""
    toks = np.asarray(tokens)
    if toks.ndim != ndim or toks.size == 0:
        raise DomainError(f"token ids must form a non-empty {ndim}-D array")
    if not np.issubdtype(toks.dtype, np.integer):
        raise DomainError("token ids must be integers")
    if toks.min() < 0 or toks.max() >= config.vocab_size:
        raise DomainError(f"token ids must lie in [0, {config.vocab_size})")
    return toks.astype(np.int64)


# ---------------------------------------------------------------------------
# core math

GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


# Powers are written as products: numpy's float32 power runs a generic
# pow per element, far slower than two multiplications.

def gelu(x):
    """tanh approximation of GELU, 0.5 x (1 + tanh(C (x + K x^3))).

    Computed in one buffer, step for step in the order of that expression.
    """
    t = x * x
    t *= x
    t *= GELU_K
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5 * x
    return t


def gelu_grad(x):
    x2 = x * x
    t = np.tanh(GELU_C * (x + GELU_K * (x2 * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_K * x2)


def ln_detail(x, g, b):
    """Layer norm over the last axis; also returns the pieces backprop needs."""
    # add.reduce / d rounds like .mean() but skips numpy's Python-level wrapper
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv_std
    return xhat * g + b, xhat, inv_std


def softmax_rows(x, where, out=None):
    """Softmax over the last axis, accumulated in float64, in x's dtype.

    Each row keeps to the entries that where, a boolean array broadcast
    against x with a True entry in every row, marks.  The result equals the
    softmax of np.where(where, x, -inf) bit for bit, but no -inf reaches
    exp: numpy's float64 exp leaves its SIMD fast path on one.  The result
    goes to out, which may be x, or to a new array.
    """
    x = np.asarray(x)
    hidden = ~where
    p = x.astype(np.float64)  # a copy, so the in-place steps never touch x
    p -= np.max(p, axis=-1, keepdims=True, where=where, initial=-np.inf)
    np.copyto(p, 0.0, where=hidden)
    np.exp(p, out=p)
    np.copyto(p, 0.0, where=hidden)
    return np.divide(p, np.add.reduce(p, axis=-1, keepdims=True),
                     out=np.empty_like(x) if out is None else out, casting="same_kind")


def log_softmax_rows(x):
    """Log softmax over the last axis in float64."""
    shifted = np.array(x, dtype=np.float64)
    shifted -= shifted.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


# ---------------------------------------------------------------------------
# forward pass

@np.errstate(over="ignore", invalid="ignore")  # an overflow's nan is its callers' to report
def _forward_full(model: TinyLM, tokens: np.ndarray, want_cache: bool, first_row: int = 0,
                  past: list | None = None):
    """Single forward implementation behind inference, head scoring and backprop.

    tokens is one sequence (n,) or a batch of them (B, n), giving logits
    (n, vocab) or (B, n, vocab).  Each window of a batch is multiplied by
    its own expansion of a quantized projection, so a batch pays the
    dequantizations its windows would pay one by one.

    Returns (logits, cache).  The cache holds just what backprop reads (and
    forward() its attention maps); it is built only with want_cache and is
    None otherwise, and it never changes the logits.

    first_row > 0 returns only the logit rows first_row: (perplexity and
    generate read no others).  Every block below the last still runs on all
    positions, since later rows attend to them; the last block computes keys
    and values for all positions and everything else only for the kept rows.  A row
    subset of a product rounds like the full product's rows when it has at
    least 2 rows and a C-contiguous right operand, so callers keep 2 or more
    rows and the head multiplies by a contiguous copy of the embedding.

    past, a list of each block's (keys, values) over earlier positions (empty
    before the first call), places tokens after those positions, attending
    to them too; the second element returned is then past extended by
    tokens' keys and values, for the next call.  generate decodes this way.
    """
    if want_cache and (first_row > 0 or past is not None):
        raise DomainError("the cache covers whole sequences; first_row must be 0, past None")
    cfg = model.config
    W = model.weights
    batch = tokens.shape[:-1]
    n = tokens.shape[-1]
    h_dim, n_heads = cfg.d_head, cfg.n_heads
    dtype = W.tok_emb.dtype

    def proj(w):
        if isinstance(w, np.ndarray) or not batch:
            return dense_weight(w, dtype)
        return np.stack([w.dense(dtype) for _ in range(batch[0])])

    def split_heads(t):  # (..., rows, d_model) -> (..., heads, rows, d_head)
        return t.reshape(*t.shape[:-1], n_heads, h_dim).swapaxes(-3, -2)

    p0 = past[0][0].shape[-2] if past else 0
    if p0 + n > cfg.context_len:
        raise DomainError(f"sequence length {p0 + n} exceeds context length {cfg.context_len}")
    x = W.tok_emb[tokens] + W.pos_emb[p0:p0 + n]
    causal = np.tri(n, p0 + n, p0, dtype=bool)
    cache: dict | None = {"layers": []} if want_cache else None
    kv = []

    last = len(W.layers) - 1
    for li, lw in enumerate(W.layers):
        r = first_row if li == last else 0
        a, xhat1, inv1 = ln_detail(x, lw.ln1_g, lw.ln1_b)
        qh = split_heads(a[..., r:, :] @ proj(lw.wq))
        kh = split_heads(a @ proj(lw.wk))
        vh = split_heads(a @ proj(lw.wv))
        if past:
            kh, vh = (np.concatenate(pair, axis=-2) for pair in zip(past[li], (kh, vh)))
        if past is not None:
            kv.append((kh, vh))
        scores = qh @ kh.swapaxes(-1, -2)
        scores /= math.sqrt(h_dim)
        probs = softmax_rows(scores, where=causal[r:], out=scores)
        head_keep = model.head_mask[li].astype(dtype)[:, None, None]
        ctx = (probs @ vh) * head_keep
        merged = ctx.swapaxes(-3, -2).reshape(*batch, n - r, cfg.d_model)
        x_mid = x[..., r:, :] + merged @ proj(lw.wo)
        h, xhat2, inv2 = ln_detail(x_mid, lw.ln2_g, lw.ln2_b)
        u = h @ proj(lw.w_in)
        act = gelu(u)
        x = x_mid + act @ proj(lw.w_out)
        if want_cache:
            cache["layers"].append({
                "a": a, "xhat1": xhat1, "inv1": inv1, "qh": qh, "kh": kh, "vh": vh,
                "probs": probs, "merged": merged,
                "h": h, "xhat2": xhat2, "inv2": inv2, "u": u, "act": act,
            })

    xf, xhatf, invf = ln_detail(x, W.ln_f_g, W.ln_f_b)
    head = W.tok_emb.T
    logits = xf @ (np.ascontiguousarray(head) if first_row > 0 else head)
    if want_cache:
        cache.update(xf=xf, xhatf=xhatf, invf=invf)
    return logits, kv if past is not None else cache


def forward(model: TinyLM, tokens) -> tuple[np.ndarray, np.ndarray]:
    """Logits (seq, vocab) and post-softmax attention maps for one sequence.

    The maps have shape (n_layers, n_heads, seq, seq).  They are recorded
    before the head keep-mask is applied, so pruned heads still show what
    they would have attended to.
    """
    toks = _check_tokens(tokens, model.config)
    logits, cache = _forward_full(model, toks, want_cache=True)
    return logits, np.stack([c["probs"] for c in cache["layers"]])


# ---------------------------------------------------------------------------
# likelihoods

def perplexity_window(context_len: int, window=None, stride=None) -> tuple[int, int]:
    """Checked (window, stride) for perplexity on a model of context_len tokens.

    A window scores at least one token, so it spans at least MIN_PPL_WINDOW tokens.
    """
    window = check_integer(context_len if window is None else window, "window",
                           minimum=MIN_PPL_WINDOW)
    stride = check_integer(window if stride is None else stride, "stride")
    if window > context_len:
        raise DomainError(f"perplexity window must lie in [{MIN_PPL_WINDOW}, {context_len}]")
    if stride > window:
        raise DomainError("perplexity stride must lie in [1, window]")
    return window, stride


@np.errstate(over="ignore", invalid="ignore")  # an overflowing NLL's inf is its callers' to report
def perplexity(model: TinyLM, corpus, window: int | None = None,
               stride: int | None = None) -> float:
    """exp(mean NLL per token) of the corpus, scored in windows.

    By default the corpus is cut into independent chunks of context_len
    tokens; inside each chunk every token with a predecessor is scored once,
    so the first token of each chunk is never scored.  A stride smaller than
    the window slides the window instead, giving each newly scored token at
    least window - stride tokens of context; every token is still scored
    exactly once.
    """
    cfg = model.config
    window, stride = perplexity_window(cfg.context_len, window, stride)
    toks = _check_tokens(corpus, cfg)
    if toks.size < 2:
        raise DomainError("perplexity needs a corpus of at least 2 tokens")

    # each window as (start, length, first_row); it scores its rows after first_row
    plan = []
    start = 0
    scored_upto = 1  # corpus position 0 has no predecessor anywhere
    while scored_upto < toks.size:
        end = min(start + window, toks.size)
        first = max(scored_upto, start + 1)
        if first < end:
            # rows first-1-start .. end-1-start: the scored ones plus the last,
            # which keeps every product at 2 or more rows (see _forward_full)
            plan.append((start, end - start, first - 1 - start))
        scored_upto = end
        start += stride

    # consecutive windows of one length and row cut share a forward call
    total = 0.0
    count = 0
    for (n, row), run in itertools.groupby(plan, key=lambda w: w[1:]):
        starts = [s for s, _, _ in run]
        k = n - row - 1  # each window scores rows 0..k-1 of z[:-1] against chunk[row + 1:]
        rows = np.arange(k)
        for b in range(0, len(starts), PPL_BATCH):
            chunks = np.stack([toks[s:s + n] for s in starts[b:b + PPL_BATCH]])
            logits, _ = _forward_full(model, chunks, want_cache=False, first_row=row)
            for chunk, z in zip(chunks, logits):
                total += float(-log_softmax_rows(z[:-1])[rows, chunk[row + 1:]].mean()) * k
                count += k
    return float(np.exp(total / count))


# ---------------------------------------------------------------------------
# generation

def generate(model: TinyLM, prompt, steps: int) -> np.ndarray:
    """Continue prompt greedily by steps tokens; returns prompt plus continuation.

    prompt is one sequence (n,) or a batch of equal-length ones (B, n),
    giving (n + steps,) or (B, n + steps).  Each step takes the argmax of
    the last row's logits; a step whose logits are not finite raises DomainError.

    One forward runs on the prompts, then one per new token against the
    cached keys and values: logits that may differ from the full forward's
    in the last bits, with tokens the tests pin to the full forward's.
    """
    cfg = model.config
    toks = _check_tokens(prompt, cfg, ndim=2 if np.ndim(prompt) == 2 else 1)
    n = toks.shape[-1]
    if n + check_integer(steps, "steps", minimum=0) > cfg.context_len:
        raise DomainError(
            f"prompt of {n} plus {steps} steps exceeds context length {cfg.context_len}"
        )

    seqs = np.pad(np.atleast_2d(toks), ((0, 0), (0, steps)))
    past = []
    # on the prompts, the row before the last keeps the products at 2 rows (see _forward_full)
    fed, cut = 0, max(n - 2, 0)
    for t in range(n, n + steps):
        logits, past = _forward_full(model, seqs[:, fed:t], want_cache=False,
                                     first_row=cut, past=past)
        fed, cut = t, 0
        if not np.isfinite(logits[:, -1]).all():  # an overflowing forward's argmax is byte 0
            raise DomainError(f"generate: the logits of step {t - n + 1} are not finite")
        seqs[:, t] = np.argmax(logits[:, -1], axis=-1)
    return seqs if toks.ndim == 2 else seqs[0]


# ---------------------------------------------------------------------------
# persistence

_HEAD_MASK_NAME = "head_mask"


def save_model(model: TinyLM, path) -> None:
    """Write the model to path.

    The file is one JSON header line (config plus an ordered tensor table of
    name, shape, and byte offset into the payload) followed by the raw
    little-endian float32 tensor payloads in table order.  Quantized views
    are materialized dense, so a reloaded model reproduces the quantized
    forward pass without needing the codes.
    """
    entries = [(name, dense_weight(t)) for name, t in param_tensors(model)]
    entries.append((_HEAD_MASK_NAME, model.head_mask))
    table = []
    payloads = []
    offset = 0
    for name, arr in entries:
        a = np.ascontiguousarray(np.asarray(arr), dtype="<f4")
        table.append({"name": name, "shape": list(a.shape), "offset": offset})
        payloads.append(a.tobytes())
        offset += a.nbytes
    header = {"config": asdict(model.config), "tensors": table}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii"))
        fh.write(b"\n")
        for p in payloads:
            fh.write(p)


def load_model(path) -> TinyLM:
    """Read a model written by save_model; malformed files raise FormatError.

    A non-finite weight is malformed too: the error names its tensor and
    gives the entry's byte offset.
    """
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError("missing header line", offset=0)
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or syntax, huge int, deep nesting
        pos = getattr(exc, "pos", 0)
        raise FormatError(f"header is not valid JSON: {exc}", offset=pos) from exc
    if not isinstance(header, dict) or "config" not in header or "tensors" not in header:
        raise FormatError("header must carry 'config' and 'tensors'", offset=0)
    try:
        cfg = ModelConfig(**header["config"])
    except (TypeError, DomainError) as exc:
        raise FormatError(f"bad config: {exc}", offset=0) from exc

    tensors = header["tensors"]
    if not isinstance(tensors, list):
        raise FormatError("'tensors' must be a list", offset=0)
    # read the layout only one entry past the header's list, so a config
    # claiming huge dimensions costs no more than the header itself
    file_layout = itertools.chain(param_layout(cfg),
                                  [(_HEAD_MASK_NAME, (cfg.n_layers, cfg.n_heads))])
    expected = list(itertools.islice(file_layout, len(tensors) + 1))
    if len(expected) != len(tensors):
        needs = len(expected) if len(expected) < len(tensors) else f"more than {len(tensors)}"
        raise FormatError(
            f"expected {needs} tensors for this config, header lists {len(tensors)}", offset=0)
    payload_start = newline + 1
    offset = 0
    parsed = []
    for entry, (want_name, want_shape) in zip(tensors, expected):
        if not isinstance(entry, dict) or set(entry) != {"name", "shape", "offset"}:
            raise FormatError("tensor table entries need name, shape, offset", offset=0)
        if entry["name"] != want_name:
            raise FormatError(
                f"tensor {entry['name']!r} where {want_name!r} was expected",
                offset=payload_start + offset,
            )
        if entry["shape"] != list(want_shape):
            raise FormatError(
                f"{want_name}: shape {entry['shape']!r} does not match "
                f"config shape {list(want_shape)}",
                offset=payload_start + offset,
            )
        if entry["offset"] != offset:
            raise FormatError(
                f"{want_name}: offset {entry['offset']} is not contiguous "
                f"(expected {offset})",
                offset=payload_start + offset,
            )
        size = math.prod(want_shape) * 4
        parsed.append((want_name, want_shape, offset, size))
        offset += size

    payload = data[payload_start:]
    if len(payload) < offset:
        raise FormatError("payload truncated", offset=payload_start + len(payload))
    if len(payload) > offset:
        raise FormatError("trailing bytes after last tensor", offset=payload_start + offset)

    arrays = {name: np.frombuffer(payload[off:off + size], dtype="<f4").reshape(shape).copy()
              for name, shape, off, size in parsed}
    for name, _, off, _ in parsed[:-1]:  # the head mask, last, has its own rule
        bad = np.flatnonzero(~np.isfinite(arrays[name]))
        if bad.size:
            raise FormatError(f"{name} entries must be finite",
                              offset=payload_start + off + 4 * int(bad[0]))
    mask = arrays[_HEAD_MASK_NAME]
    if not ((mask == 0) | (mask == 1)).all():
        raise FormatError(f"{_HEAD_MASK_NAME} entries must be 0 or 1",
                          offset=payload_start + parsed[-1][2])
    return from_tensors(cfg, arrays, mask)
