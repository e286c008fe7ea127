"""Shared fixtures: seeded models, the bundled corpus, crafted attention fixtures."""
import numpy as np
import pytest

from shrinklab import data as bundled
from shrinklab.model import ModelConfig, TinyLM, init_model, tokenize, zero_model

TOY = ModelConfig(n_layers=2, n_heads=4, d_model=64, d_ff=256)
SMALL = ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=128)


@pytest.fixture(scope="session")
def toy_model() -> TinyLM:
    return init_model(TOY, seed=7)


@pytest.fixture(scope="session")
def small_model() -> TinyLM:
    return init_model(SMALL, seed=11)


@pytest.fixture(scope="session")
def corpus() -> np.ndarray:
    return tokenize(bundled.path("toy_corpus.txt").read_bytes())


@pytest.fixture(scope="session")
def calibration(corpus):
    return [corpus[i * 32:(i + 1) * 32] for i in range(8)]


def concentration_pair_model() -> tuple[TinyLM, np.ndarray]:
    """One-layer, two-head model with one self-locked head and one uniform head.

    Position embeddings are unit vectors and the first head's query/key
    projections are a scaled identity over its half of the model width, so
    every query attends almost entirely to its own position.  The second
    head's projections are zero, leaving its attention exactly uniform over
    the causal prefix.  Returns the model and a length-8 probe sequence on
    which every eligible query position self-attends in head 0.
    """
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=16,
                      vocab_size=16, context_len=12)
    m = zero_model(cfg)
    m.weights.pos_emb[:] = np.eye(cfg.context_len, cfg.d_model, dtype=np.float32)
    block = np.zeros((16, 16), dtype=np.float32)
    block[:8, :8] = 3.0 * np.eye(8, dtype=np.float32)
    m.weights.layers[0].wq = block.copy()
    m.weights.layers[0].wk = block.copy()
    probe = np.arange(8, dtype=np.int64) % cfg.vocab_size
    return m, probe


def overflowing_model() -> TinyLM:
    """Finite weights whose float32 forward overflows: layer 0's wq and wk at 3e38."""
    model = init_model(TOY, seed=0)
    model.weights.layers[0].wq[:] = 3e38
    model.weights.layers[0].wk[:] = 3e38
    return model


def uniform_head_expected(eligible_queries) -> float:
    """Mean max attention of an exactly uniform causal head at those queries."""
    return float(np.mean([1.0 / (q + 1) for q in eligible_queries]))
