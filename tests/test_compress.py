"""Compression pass tests: quantization, 2:4 sparsity, head pruning, composition."""
import numpy as np
import pytest

from shrinklab import compress
from shrinklab.compress import (
    MIN_CALIBRATION_LEN,
    MIN_PRIOR_KEYS,
    SUPPORTED_BITS,
    DistillRef,
    HeadConcentrationReport,
    PassReport,
    Prune24,
    PruneHeads,
    Quantize,
    QuantizedTensor,
    compose,
    dequantize,
    head_concentration,
    prune_2_4,
    prune_heads,
    prune_model_2_4,
    quantize_model,
    quantize_tensor,
)
from shrinklab.errors import DomainError, ShapeError
from shrinklab.model import (LINEAR_NAMES, ModelConfig, astype, copy_model, forward, init_model,
                             perplexity)

from conftest import SMALL, concentration_pair_model, uniform_head_expected


# ---------------------------------------------------------------------------
# quantization

def test_quantize_row_8bit_example():
    q = quantize_tensor(np.array([[0.1, -0.2, 0.4]]), bits=8)
    assert q.bits == 8
    assert q.scales[0] == pytest.approx(0.4 / 127, rel=1e-12)
    assert q.codes.tolist() == [[32, -64, 127]]


def test_quantize_row_4bit_example():
    q = quantize_tensor(np.array([[0.7, -0.7]]), bits=4)
    assert q.scales[0] == pytest.approx(0.1, rel=1e-12)
    assert q.codes.tolist() == [[7, -7]]


def test_quantize_rounds_half_away_from_zero():
    # exact .5 cases must not round to even: 2.5 -> 3, 0.5 -> 1
    q = quantize_tensor(np.array([[7.0, 2.5, -2.5, 0.5]]), bits=4)
    assert q.scales[0] == pytest.approx(1.0, rel=1e-12)
    assert q.codes.tolist() == [[7, 3, -3, 1]]


def test_quantize_zero_row_is_exact():
    q = quantize_tensor(np.zeros((2, 5)), bits=8)
    assert np.all(q.scales == 1.0)
    assert np.all(q.codes == 0)
    assert np.array_equal(dequantize(q), np.zeros((2, 5)))


def test_quantize_exact_grid_round_trips():
    # rows already on the code grid reconstruct bit-exactly
    back4 = dequantize(quantize_tensor(np.array([[7.0, -3.0, 1.0, 0.0]]), 4))
    assert back4.tolist() == [[7.0, -3.0, 1.0, 0.0]]
    back8 = dequantize(quantize_tensor(np.array([[127.0, -54.0, 18.0, 0.0]]), 8))
    assert back8.tolist() == [[127.0, -54.0, 18.0, 0.0]]


def test_quantize_error_bound_is_half_scale():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(16, 33))
    for bits in SUPPORTED_BITS:
        q = quantize_tensor(w, bits)
        err = np.abs(dequantize(q) - w)
        assert np.all(err <= q.scales[:, None] / 2 + 1e-15)


def test_quantize_is_idempotent_on_codes():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 12))
    q1 = quantize_tensor(w, 8)
    q2 = quantize_tensor(dequantize(q1), 8)
    assert np.array_equal(q1.codes, q2.codes)
    assert np.allclose(q1.scales, q2.scales, rtol=1e-12)


def test_quantize_validation():
    with pytest.raises(DomainError):
        quantize_tensor(np.zeros((2, 2)), bits=5)
    with pytest.raises(ShapeError):
        quantize_tensor(np.zeros(4), bits=8)
    with pytest.raises(DomainError):
        quantize_tensor(np.array([[1.0, np.nan]]), bits=8)


def test_quantized_tensor_dense_and_shape():
    q = quantize_tensor(np.array([[0.1, -0.2, 0.4]]), bits=8)
    assert q.shape == (1, 3)
    d32 = q.dense(np.float32)
    assert d32.dtype == np.float32
    assert np.allclose(d32, dequantize(q), atol=1e-7)


def test_quantize_model_touches_only_attention_and_ffn(small_model):
    qm = quantize_model(small_model, bits=8)
    layer = qm.weights.layers[0]
    for name in LINEAR_NAMES:
        assert isinstance(getattr(layer, name), QuantizedTensor)
    # embeddings, norms, and the original model stay dense and untouched
    assert qm.weights.tok_emb is small_model.weights.tok_emb
    assert qm.weights.pos_emb is small_model.weights.pos_emb
    assert isinstance(small_model.weights.layers[0].wq, np.ndarray)
    assert qm.weights.layers[0].ln1_g is small_model.weights.layers[0].ln1_g


def test_quantized_model_stays_close(small_model, corpus):
    base = perplexity(small_model, corpus[:600])
    q8 = perplexity(quantize_model(small_model, 8), corpus[:600])
    q4 = perplexity(quantize_model(small_model, 4), corpus[:600])
    assert abs(q8 - base) / base < 0.05
    assert abs(q4 - base) / base < 0.50


# ---------------------------------------------------------------------------
# 2:4 structured sparsity

def test_prune_2_4_keeps_two_largest():
    got = prune_2_4(np.array([[3.0, -1.0, 0.5, 2.0]]))
    assert got.tolist() == [[3.0, 0.0, 0.0, 2.0]]


def test_prune_2_4_ties_prefer_lower_index():
    got = prune_2_4(np.array([[1.0, -1.0, 1.0, -1.0]]))
    assert got.tolist() == [[1.0, -1.0, 0.0, 0.0]]
    got = prune_2_4(np.zeros((1, 4)))
    assert got.tolist() == [[0.0, 0.0, 0.0, 0.0]]


def test_prune_2_4_groups_are_independent():
    got = prune_2_4(np.array([[9.0, 8.0, 1.0, 2.0, -1.0, -2.0, -9.0, -8.0]]))
    assert got.tolist() == [[9.0, 8.0, 0.0, 0.0, 0.0, 0.0, -9.0, -8.0]]


def test_prune_2_4_brute_force_small():
    """Exhaustive check of the keep-set on random rows, with forced ties."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        row = rng.integers(-3, 4, size=4).astype(np.float64)
        kept = prune_2_4(row[None, :])[0]
        order = sorted(range(4), key=lambda i: (-abs(row[i]), i))
        keep = set(order[:2])
        expect = [row[i] if i in keep else 0.0 for i in range(4)]
        assert kept.tolist() == expect


def test_prune_2_4_idempotent_and_nondestructive():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(6, 16)).astype(np.float32)
    before = w.copy()
    once = prune_2_4(w)
    twice = prune_2_4(once)
    assert np.array_equal(once, twice)
    assert np.array_equal(w, before)
    assert once.dtype == np.float32


def test_prune_2_4_shape_validation():
    with pytest.raises(ShapeError):
        prune_2_4(np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        prune_2_4(np.zeros(8))
    # zero-width rows have no groups: vacuous identity
    assert prune_2_4(np.zeros((2, 0))).shape == (2, 0)


def test_prune_model_2_4_groups_along_input_dim(small_model, corpus):
    pm = prune_model_2_4(small_model)
    w = pm.weights.layers[0].wq  # (d_in, d_out)
    for col in range(w.shape[1]):
        groups = w[:, col].reshape(-1, 4)
        nonzero = (groups != 0).sum(axis=1)
        assert np.all(nonzero <= 2)
    assert (w == 0).mean() == pytest.approx(0.5, abs=1e-6)
    # original untouched, pruned model still runs
    assert not np.any(small_model.weights.layers[0].wq == 0)
    forward(pm, corpus[:10])


@pytest.mark.parametrize("bits", SUPPORTED_BITS)
def test_prune_model_2_4_keeps_a_quantized_model_quantized(small_model, bits):
    """2:4 after quantize zeroes codes: the model still dequantizes on use, and its
    dense view is, to the bit, the 2:4 rule applied to the quantized dense view."""
    quantized = quantize_model(small_model, bits)
    pruned = prune_model_2_4(quantized)
    for before, after in zip(_layer_projections(quantized), _layer_projections(pruned)):
        assert isinstance(after, QuantizedTensor) and after.bits == bits
        assert np.array_equal(after.scales, before.scales)
        groups = after.codes.T.reshape(after.shape[1], -1, 4)  # along the input dim
        assert np.all((groups == 0).sum(axis=2) >= 2)
        want = np.ascontiguousarray(prune_2_4(before.dense().T).T)
        assert after.dense().tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# attention head concentration and pruning

def test_head_concentration_self_locked_head_scores_one():
    model, probe = concentration_pair_model()
    report = head_concentration(model, [probe])
    assert report.scores.shape == (1, 2)
    assert report.scores[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_head_concentration_uniform_head_closed_form():
    model, probe = concentration_pair_model()
    report = head_concentration(model, [probe])
    # eligible queries of a length-8 sequence are positions 4..7
    expect = uniform_head_expected(range(MIN_PRIOR_KEYS, probe.size))
    assert report.scores[0, 1] == pytest.approx(expect, abs=1e-6)
    assert report.n_positions == probe.size - MIN_PRIOR_KEYS


def test_head_concentration_averages_over_sequences():
    model, probe = concentration_pair_model()
    longer = np.arange(10, dtype=np.int64) % 16
    report = head_concentration(model, [probe, longer])
    expect = uniform_head_expected(list(range(4, 8)) + list(range(4, 10)))
    assert report.scores[0, 1] == pytest.approx(expect, abs=1e-6)
    assert report.n_positions == 4 + 6


def test_head_concentration_skips_short_sequences():
    model, probe = concentration_pair_model()
    short = np.arange(MIN_CALIBRATION_LEN - 1, dtype=np.int64)
    with_short = head_concentration(model, [probe, short])
    without = head_concentration(model, [probe])
    assert np.array_equal(with_short.scores, without.scores)


def test_head_concentration_validation(small_model):
    with pytest.raises(DomainError):
        head_concentration(small_model, [])
    only_short = [np.arange(4), np.arange(3)]
    with pytest.raises(DomainError):
        head_concentration(small_model, only_short)


def test_prune_heads_threshold_is_inclusive():
    model, probe = concentration_pair_model()
    report = head_concentration(model, [probe])
    # head 0 scores 1.0: pruned at threshold 1.0 exactly
    at_one = prune_heads(model, report, threshold=1.0)
    assert at_one.head_mask.tolist() == [[0.0, 1.0]]
    uniform_score = float(report.scores[0, 1])
    at_score = prune_heads(model, report, threshold=uniform_score)
    assert at_score.head_mask.tolist() == [[0.0, 0.0]]


def test_prune_heads_nesting_across_thresholds(toy_model, calibration):
    report = head_concentration(toy_model, calibration)
    loose = prune_heads(toy_model, report, threshold=0.9)
    tight = prune_heads(toy_model, report, threshold=0.8)
    removed_loose = loose.head_mask == 0.0
    removed_tight = tight.head_mask == 0.0
    assert np.all(removed_tight[removed_loose])  # 0.9 pruning nests in 0.8


def test_prune_heads_no_hit_is_bit_identical(toy_model, calibration, corpus):
    report = head_concentration(toy_model, calibration)
    assert float(report.scores.max()) < 0.9  # spread attention at init
    pruned = prune_heads(toy_model, report, threshold=0.9)
    assert np.array_equal(pruned.head_mask, toy_model.head_mask)
    a, _ = forward(toy_model, corpus[:20])
    b, _ = forward(pruned, corpus[:20])
    assert np.array_equal(a, b)


def test_prune_heads_masks_compound(toy_model, calibration):
    report = head_concentration(toy_model, calibration)
    once = prune_heads(toy_model, report, threshold=0.12)
    twice = prune_heads(once, head_concentration(once, calibration), threshold=0.9)
    # a head removed in the first round stays removed in the second
    assert np.all(twice.head_mask[once.head_mask == 0.0] == 0.0)


def test_masked_forward_equals_zeroed_projection_rows(corpus):
    """Masking head h must equal zeroing rows h*dh:(h+1)*dh of every wo."""
    model = init_model(SMALL, seed=21)
    dh = SMALL.d_model // SMALL.n_heads
    scores = np.array([[0.95, 0.1]])
    report = HeadConcentrationReport(scores=scores, n_positions=10)
    pruned = prune_heads(model, report, threshold=0.9)
    assert pruned.head_mask.tolist() == [[0.0, 1.0]]

    from shrinklab.model import copy_model
    manual = copy_model(model)
    manual.weights.layers[0].wo[0 * dh:(0 + 1) * dh, :] = 0.0
    a, _ = forward(pruned, corpus[:16])
    b, _ = forward(manual, corpus[:16])
    assert np.max(np.abs(a - b)) <= 1e-6


def test_prune_heads_validation(toy_model, calibration):
    report = head_concentration(toy_model, calibration)
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(DomainError):
            prune_heads(toy_model, report, threshold=bad)
    wrong = HeadConcentrationReport(scores=np.zeros((1, 2)), n_positions=3)
    with pytest.raises(DomainError):
        prune_heads(toy_model, wrong, threshold=0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_concentration_report_rejects_a_non_finite_score(value):
    """A NaN score is below no threshold, so it would mask its head; no report carries one."""
    scores = np.full((1, 2), 0.5)
    scores[0, 1] = value
    with pytest.raises(DomainError, match=f"layer 0, head 1 is not finite: {value}"):
        HeadConcentrationReport(scores=scores, n_positions=3)


def test_head_concentration_of_nan_attention_raises(toy_model, calibration):
    nan_query = copy_model(toy_model)
    nan_query.weights.layers[0].wq[0, 0] = np.nan
    with pytest.raises(DomainError, match="layer 0, head 0 is not finite: nan"):
        head_concentration(nan_query, calibration)


def test_concentration_report_as_dict():
    model, probe = concentration_pair_model()
    report = head_concentration(model, [probe])
    d = report.as_dict()
    assert set(d) == {"scores", "n_positions"}
    assert [(e["layer"], e["head"]) for e in d["scores"]] == [(0, 0), (0, 1)]
    assert d["scores"][1]["score"] == pytest.approx(float(report.scores[0, 1]))


# ---------------------------------------------------------------------------
# pass composition

def test_compose_empty_is_identity(small_model):
    """No passes give no reports: the model is left as it is."""
    assert compose([], small_model) == []


def test_compose_order_sensitivity(small_model):
    """Quantizing then sparsifying differs from sparsifying then quantizing."""
    qp = compose([Quantize(8), Prune24()], small_model)[-1].after
    pq = compose([Prune24(), Quantize(8)], small_model)[-1].after
    wq_qp = qp.weights.layers[0].wq
    wq_pq = pq.weights.layers[0].wq
    a = wq_qp if isinstance(wq_qp, np.ndarray) else dequantize(wq_qp)
    b = wq_pq if isinstance(wq_pq, np.ndarray) else dequantize(wq_pq)
    assert not np.allclose(a, b)


def test_compose_runs_full_stack(small_model, calibration, corpus):
    """One report per pass, each starting from the model the pass before it left."""
    student = init_model(SMALL, seed=99)
    reports = compose([DistillRef("kd"), PruneHeads(0.8), Quantize(4)], small_model,
                      calibration=calibration, students={"kd": student})
    befores = [small_model, student, reports[1].after]
    assert len(reports) == 3 and all(r.before is m for r, m in zip(reports, befores))
    assert reports[0].after is student and reports[1].concentration is not None
    out = reports[-1].after
    assert isinstance(out.weights.layers[0].wq, QuantizedTensor)
    forward(out, corpus[:10])


def test_compose_rejects_unknown_pass(small_model):
    with pytest.raises(DomainError, match="^unknown compression pass 'quantize'$"):
        compose(["quantize"], small_model)
    with pytest.raises(DomainError, match="^unknown compression pass"):
        compose([Quantize(8), object()], small_model)


def test_compose_rejects_distill_after_other_passes(small_model, monkeypatch):
    """A distill pass replaces the model, so passes before it would be lost; and it
    must name a defined student.  The whole list is checked before any pass runs."""
    student = init_model(SMALL, seed=99)
    out = compose([DistillRef("kd"), Quantize(4)], small_model,
                  students={"kd": student})[-1].after
    assert isinstance(out.weights.layers[0].wq, QuantizedTensor)
    quantized = []
    monkeypatch.setattr(compress, "quantize_model", lambda *args: quantized.append(args))
    with pytest.raises(DomainError, match="^distill pass 'kd' must come first: it replaces "
                                          "the model, discarding the passes before it$"):
        compose([Quantize(4), DistillRef("kd")], small_model, students={"kd": student})
    with pytest.raises(DomainError, match="^student 'kd' is not defined in students$"):
        compose([DistillRef("kd"), Quantize(4)], small_model, students={})
    assert quantized == []


def test_pass_parameter_validation():
    with pytest.raises(DomainError):
        Quantize(bits=3)
    with pytest.raises(DomainError):
        PruneHeads(threshold=0.0)
    with pytest.raises(DomainError):
        DistillRef("")


def test_compose_missing_context(small_model):
    with pytest.raises(DomainError, match="^a PruneHeads pass requires calibration sequences$"):
        compose([PruneHeads(0.9)], small_model)  # no calibration given
    with pytest.raises(DomainError, match="^student 'kd' is not defined in students$"):
        compose([DistillRef("kd")], small_model)  # no students given


# ---------------------------------------------------------------------------
# what a pass reports

def _layer_projections(model):
    return [getattr(layer, name) for layer in model.weights.layers for name in LINEAR_NAMES]


@pytest.mark.parametrize("bits", SUPPORTED_BITS)
def test_quantize_pass_reports_its_reconstruction_error(small_model, bits):
    report = compose([Quantize(bits)], small_model)[0]
    assert isinstance(report, PassReport) and report.before is small_model
    expected = quantize_model(small_model, bits)
    worst = 0.0
    for orig, q, want in zip(_layer_projections(small_model), _layer_projections(report.after),
                             _layer_projections(expected)):
        assert isinstance(q, QuantizedTensor) and np.array_equal(q.codes, want.codes)
        worst = max(worst, float(np.abs(orig.astype(np.float64) - dequantize(q)).max()))
    assert worst > 0.0
    assert report.max_error == worst
    assert report.heads_masked == 0 and report.concentration is None


def test_prune24_pass_reports_half_sparsity(small_model):
    report = compose([Prune24()], small_model)[0]
    for got, want in zip(_layer_projections(report.after),
                         _layer_projections(prune_model_2_4(small_model))):
        assert np.array_equal(got, want)
    assert report.sparsity == 0.5
    assert report.max_error == max(float(np.abs(w).max()) for w in (
        orig[pruned == 0] for orig, pruned in zip(_layer_projections(small_model),
                                                  _layer_projections(report.after))))
    assert report.heads_masked == 0


def test_prune_heads_pass_reports_the_heads_it_masked():
    model, probe = concentration_pair_model()
    report = compose([PruneHeads(0.9)], model, calibration=[probe])[0]
    expected = head_concentration(model, [probe])
    assert np.array_equal(report.concentration.scores, expected.scores)
    assert report.concentration.n_positions == expected.n_positions
    assert report.after.head_mask.tolist() == [[0.0, 1.0]]
    assert report.heads_masked == int(model.head_mask.sum() - report.after.head_mask.sum()) == 1
    assert report.max_error == 0.0
    # masking is cumulative, so a second pass masks nothing more
    again = compose([PruneHeads(0.9)], report.after, calibration=[probe])[0]
    assert again.heads_masked == 0


def test_distill_pass_reports_the_student(small_model):
    """A distill pass swaps in another model.  For a student of the model's config the
    report compares the two; for one of another shape it refuses to, where it would
    make up a heads_masked of 1 and could not subtract the weights."""
    student = init_model(SMALL, seed=99)
    report = compose([DistillRef("kd")], small_model, students={"kd": student})[0]
    assert report.after is student and report.before is small_model
    assert report.concentration is None
    assert report.heads_masked == 0 and report.max_error > 0
    other = init_model(ModelConfig(1, 1, 16, 64), seed=99)
    report = compose([DistillRef("kd")], small_model, students={"kd": other})[0]
    assert report.after is other and report.sparsity == 0.0
    for name in ("heads_masked", "max_error"):
        with pytest.raises(DomainError, match=f"^{name} does not apply: the pass changed the "
                                              "model's config$"):
            getattr(report, name)
