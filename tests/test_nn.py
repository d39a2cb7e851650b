import math
import tempfile
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from brdfnqm import nn
from brdfnqm.errors import CheckpointError, PairingError
from brdfnqm.preprocess import WhiteningStats, compute_whitening
from brdfnqm.sampling import SampledBrdf

from conftest import flip_bit, reference_backward, reference_forward, reference_pair_to_input, tiny_direction_set


def _stats():
    return WhiteningStats(mean=np.zeros(3), std=np.ones(3))


def _small_model(seed=0, input_dim=12, hidden=(8, 6, 4), dtype=np.float64, dropout=0.2):
    return nn.init_model(
        seed=seed,
        jod_min=0.0,
        jod_max=10.0,
        whitening=_stats(),
        input_dim=input_dim,
        hidden=hidden,
        dtype=dtype,
        dropout=dropout,
    )


def test_default_architecture_constants():
    assert nn.INPUT_DIM == 3000
    assert nn.HIDDEN_WIDTHS == (1024, 716, 501)


def test_param_count_full_model():
    model = nn.init_model(seed=0, jod_min=0.0, jod_max=10.0, whitening=_stats())
    # per-layer counts: dense W+b plus layer-norm gamma+beta per hidden layer
    dims = [3000, 1024, 716, 501, 1]
    dense = sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))
    ln = 2 * (1024 + 716 + 501)
    assert model.flat.size == dense + ln == 4_171_125


def test_param_count_small_oracle():
    model = _small_model()
    # 12->8->6->4->1: (12*8+8)+(8*6+6)+(6*4+4)+(4*1+1)+2*(8+6+4)
    assert model.flat.size == 104 + 54 + 28 + 5 + 36


def test_init_is_deterministic_and_bounded():
    a = _small_model(seed=3)
    b = _small_model(seed=3)
    c = _small_model(seed=4)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])
    for w in a.weights:
        bound = math.sqrt(1.0 / w.shape[1])
        assert np.all(np.abs(w) <= bound)
    for b_ in a.biases:
        assert np.all(b_ == 0.0)
    for g in a.gammas:
        assert np.all(g == 1.0)


def _gelu(x):
    """The exact GELU as `nn.forward` computes it: x Phi(x)."""
    return np.asarray(x) * nn._ndtr(x)


def test_gelu_reference_values():
    assert _gelu(0.0) == 0.0
    # exact-erf GELU at 1: 1 * Phi(1)
    assert float(_gelu(1.0)) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert float(_gelu(-1.0)) == pytest.approx(-(1 - 0.8413447460685429), abs=1e-12)


def test_gelu_grad_matches_finite_differences():
    x = np.linspace(-4, 4, 101)
    h = 1e-6
    fd = (_gelu(x + h) - _gelu(x - h)) / (2 * h)
    np.testing.assert_allclose(nn._gelu_grad(x, nn._ndtr(x)), fd, atol=1e-9)


def _ndtr_grid():
    """10^6 draws from N(0, 2.5^2) plus an even grid over [-14, 6], in float32."""
    draws = np.random.default_rng(20260).normal(0.0, 2.5, 10**6)
    return np.concatenate([draws, np.linspace(-14.0, 6.0, 100_001)]).astype(np.float32)


def test_ndtr_float32_equals_scipy_bit_for_bit():
    from scipy.special import ndtr

    x = _ndtr_grid()
    phi = nn._ndtr(x)
    assert phi.dtype == np.float32
    np.testing.assert_array_equal(phi.view(np.uint32), ndtr(x).view(np.uint32))


def test_ndtr_float64_relative_error_is_at_most_scipys():
    """Against 0.5 erfc(-x/sqrt 2) from the C library, wherever that is a
    normal float: at most 1e-12 relative, and no more than scipy's own error
    on the same points. It is also within 32 units in the last place (7 on
    numpy 2.4, x86-64); without the exp(-z^2) split, the tail reads 127."""
    from scipy.special import ndtr

    x = _ndtr_grid().astype(np.float64)
    exact = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    normal = exact >= np.finfo(np.float64).tiny
    x, exact = x[normal], exact[normal]
    error = np.abs(nn._ndtr(x) - exact)
    ours = np.max(error / exact)
    theirs = np.max(np.abs(ndtr(x) - exact) / exact)
    assert ours <= 1e-12
    assert ours <= theirs, (ours, theirs)
    assert np.max(error / np.spacing(exact)) <= 32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ndtr_limits_are_exact(dtype):
    phi = nn._ndtr(np.array([np.inf, -np.inf, np.nan, 0.0], dtype=dtype))
    assert phi.dtype == dtype
    assert phi[0] == 1.0 and phi[1] == 0.0 and np.isnan(phi[2]) and phi[3] == 0.5


def test_ndtr_takes_scalars_and_warns_for_no_finite_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(nn._ndtr(1.0)) == pytest.approx(0.8413447460685429, rel=1e-15)
        assert nn._ndtr(np.float32(-1.0)).dtype == np.float32
        assert nn._ndtr(np.array(2.0)).shape == ()
        extremes = np.array([-1e308, -40.0, -5e-324, 5e-324, 40.0, 1e308])
        np.testing.assert_array_equal(nn._ndtr(extremes), [0.0, 0.0, 0.5, 0.5, 1.0, 1.0])
        assert 0.0 < nn._ndtr(-38.0) < 1e-315
        f32 = np.finfo(np.float32)
        np.testing.assert_array_equal(nn._ndtr(np.array([-f32.max, f32.max], dtype=np.float32)), [0.0, 1.0])


def test_train_step_evaluates_phi_once_per_hidden_layer(monkeypatch):
    """forward keeps Phi(y) of each hidden layer; backward reuses it."""
    calls, ndtr = [], nn._ndtr

    def counting(x):
        calls.append(x.shape)
        return ndtr(x)

    monkeypatch.setattr(nn, "_ndtr", counting)
    model = _small_model()
    _train_step_grads(model)
    assert calls == [(5, 8), (5, 6), (5, 4)]


def test_sigmoid_stable_at_extremes():
    x = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
    s = nn._sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert s[2] == 0.5
    assert s[1] == pytest.approx(1 / (1 + math.exp(10)), rel=1e-12)


def test_logcosh_reference_values():
    loss, _ = nn.logcosh_loss(np.zeros((3, 1)), np.zeros((3, 1)))
    assert loss == 0.0
    # large |d|: log cosh d ~= |d| - log 2
    loss, _ = nn.logcosh_loss(np.array([[50.0]]), np.array([[0.0]]))
    assert loss == pytest.approx(50.0 - math.log(2.0), abs=1e-9)
    # small d: ~ d^2 / 2
    loss, _ = nn.logcosh_loss(np.array([[1e-4]]), np.array([[0.0]]))
    assert loss == pytest.approx(0.5e-8, rel=1e-3)


def test_logcosh_grad_is_mean_tanh():
    pred = np.array([[1.0], [-2.0], [0.5]])
    target = np.zeros((3, 1))
    _, grad = nn.logcosh_loss(pred, target)
    np.testing.assert_allclose(grad, np.tanh(pred) / 3, rtol=1e-12)


def test_forward_output_range_and_shapes():
    model = _small_model()
    x = np.random.default_rng(0).normal(size=(5, 12))
    pred, cache = nn.forward(model, x, mode="eval")
    assert pred.shape == (5, 1)
    assert np.all((pred > 0.0) & (pred < 10.0))  # sigmoid rescale keeps range open
    assert cache is None  # an eval pass keeps no activations


def test_forward_validates_inputs():
    model = _small_model()
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((2, 12)), mode="test")
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((2, 12)), mode="train")  # dropout and no rng


def test_dropout_train_vs_eval():
    model = _small_model(dropout=0.5)
    x = np.random.default_rng(1).normal(size=(4, 12))
    e1, _ = nn.forward(model, x, mode="eval")
    e2, _ = nn.forward(model, x, mode="eval")
    np.testing.assert_array_equal(e1, e2)  # eval is deterministic
    t1, c1 = nn.forward(model, x, mode="train", rng=np.random.default_rng(0))
    t2, _ = nn.forward(model, x, mode="train", rng=np.random.default_rng(0))
    t3, _ = nn.forward(model, x, mode="train", rng=np.random.default_rng(9))
    np.testing.assert_array_equal(t1, t2)
    assert not np.array_equal(t1, t3)
    layers, _, _ = c1
    assert [mask.shape for *_, mask in layers] == [(4, 8), (4, 6), (4, 4)]


def _numeric_grads(model, x, y, mask_seed, h_scale=1e-5):
    """Central finite differences over every parameter; every pass draws its dropout masks from one fresh seeded rng."""
    out = {k: [np.zeros_like(a) for a in getattr(model, k)] for k in ("weights", "biases", "gammas", "betas")}

    def loss_at():
        pred, _ = nn.forward(model, x, mode="train", rng=np.random.default_rng(mask_seed))
        loss, _ = nn.logcosh_loss(pred, y)
        return loss

    for key in out:
        arrs = getattr(model, key)
        for i, arr in enumerate(arrs):
            flat = arr.reshape(-1)
            g = out[key][i].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                h = h_scale * max(abs(orig), 1.0)
                flat[j] = orig + h
                lp = loss_at()
                flat[j] = orig - h
                lm = loss_at()
                flat[j] = orig
                g[j] = (lp - lm) / (2 * h)
    return out


def test_backward_matches_finite_differences():
    model = _small_model(seed=1, input_dim=6, hidden=(5, 4, 3), dtype=np.float64)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 6))
    y = rng.uniform(0, 10, size=(3, 1))
    pred, cache = nn.forward(model, x, mode="train", rng=np.random.default_rng(3))
    _, dpred = nn.logcosh_loss(pred, y)
    analytic = nn.backward(model, cache, dpred)
    numeric = _numeric_grads(model, x, y, mask_seed=3)
    for key in ("weights", "biases", "gammas", "betas"):
        for ga, gn in zip(analytic[key], numeric[key]):
            denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
            assert np.max(np.abs(ga - gn) / denom) < 1e-6, key


def test_backward_requires_train_cache():
    model = _small_model()
    x = np.zeros((2, 12))
    pred, cache = nn.forward(model, x, mode="eval")
    assert cache is None
    with pytest.raises(ValueError, match="train-mode"):
        nn.backward(model, cache, np.zeros_like(pred))


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_and_backward_match_the_dict_cache_reference_bit_for_bit(dtype, dropout):
    """The per-layer records give the predictions and every gradient of the
    parallel-list cache with explicit masks, drawn from the same seeded rng."""
    model = _small_model(seed=5, input_dim=20, hidden=(9, 7, 5), dtype=dtype, dropout=dropout)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 20))
    y = rng.uniform(0, 10, size=(6, 1)).astype(dtype)
    pred, cache = nn.forward(model, x, mode="train", rng=np.random.default_rng(11))
    mask_rng = np.random.default_rng(11)
    masks = [mask_rng.random((6, h)) < 1.0 - dropout for h in (9, 7, 5)]
    ref_pred, ref_cache = reference_forward(model, x, "train", masks)
    assert pred.dtype == ref_pred.dtype == dtype
    assert pred.tobytes() == ref_pred.tobytes()
    _, dpred = nn.logcosh_loss(pred, y)
    assert nn.backward(model, cache, dpred).flat.tobytes() == reference_backward(model, ref_cache, dpred).flat.tobytes()
    eval_pred, eval_cache = nn.forward(model, x, mode="eval")
    assert eval_cache is None
    assert eval_pred.tobytes() == reference_forward(model, x, "eval")[0].tobytes()


def test_adam_single_step_matches_hand_computation():
    model = _small_model(dtype=np.float64)
    state = nn.adam_init(model)
    grads = nn.FlatParams(np.ones_like(model.flat), model.input_dim, model.hidden_widths)
    w0 = model.weights[0].copy()
    w1 = model.weights[1].copy()
    nn.adam_step(model, grads, state, lr_input=1e-4, lr_deep=1e-3, weight_decay=0.0)
    # first step with unit gradient: update = lr * g / (|g| + eps) ~= lr
    np.testing.assert_allclose(w0 - model.weights[0], 1e-4 / (1 + 1e-8), rtol=1e-10)
    np.testing.assert_allclose(w1 - model.weights[1], 1e-3 / (1 + 1e-8), rtol=1e-10)
    assert state.step == 1


def test_adam_weight_decay_is_coupled_l2():
    model = _small_model(dtype=np.float64)
    zero_grads = nn.FlatParams(np.zeros_like(model.flat), model.input_dim, model.hidden_widths)
    w1 = model.weights[1].copy()
    nn.adam_step(model, zero_grads, state := nn.adam_init(model), 1e-4, 1e-3, weight_decay=1e-4)
    # with g = wd * p, the first-step update direction is sign(p) * lr
    moved = w1 - model.weights[1]
    nz = np.abs(w1) > 1e-2  # large enough that Adam's eps is negligible
    np.testing.assert_allclose(moved[nz], np.sign(w1[nz]) * 1e-3, rtol=1e-2)


def test_plateau_scheduler_reduces_after_patience():
    s = nn.PlateauScheduler(lr_input=1e-4, lr_deep=1e-3, patience=5)
    s.step(1.0)
    for _ in range(5):
        s.step(1.0)  # not improving
    assert s.lr_deep == 1e-3  # exactly at patience: not yet reduced
    s.step(1.0)
    assert s.lr_deep == pytest.approx(1e-4)
    assert s.lr_input == pytest.approx(1e-5)
    # improvement resets
    s.step(0.5)
    assert s.bad_epochs == 0
    # floor
    for _ in range(100):
        s.step(1.0)
    assert s.lr_deep >= 1e-6 and s.lr_input >= 1e-6


def test_plateau_scheduler_relative_threshold():
    s = nn.PlateauScheduler(lr_input=1e-4, lr_deep=1e-3, patience=0)
    s.step(1.0)
    s.step(1.0 - 1e-5)  # improvement below threshold counts as bad
    assert s.lr_deep == pytest.approx(1e-4)


def test_train_reduces_loss_and_returns_best_val():
    rng = np.random.default_rng(0)
    model = _small_model(seed=5, input_dim=12, hidden=(16, 8, 4), dtype=np.float64, dropout=0.0)
    x = rng.normal(size=(64, 12))
    y = 5.0 + 2.0 * np.tanh(x[:, :1])
    cfg = nn.TrainConfig(epochs=60, batch_size=16, lr_input=1e-3, lr_deep=1e-3, weight_decay=0.0)
    model, history = nn.train(model, x, y, x, y, cfg)
    assert len(history) == 60
    assert history[-1]["val_loss"] < history[0]["val_loss"] * 0.5
    best = min(h["val_loss"] for h in history)
    pred, _ = nn.forward(model, x, mode="eval")
    loss, _ = nn.logcosh_loss(pred, y)
    assert loss == pytest.approx(best, rel=1e-9)  # best-validation weights restored


def test_train_is_deterministic():
    def run():
        rng = np.random.default_rng(1)
        model = _small_model(seed=2, dtype=np.float64)
        x = rng.normal(size=(32, 12))
        y = rng.uniform(0, 10, size=(32, 1))
        cfg = nn.TrainConfig(epochs=5, batch_size=8, shuffle_seed=7)
        model, history = nn.train(model, x, y, x[:8], y[:8], cfg)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    for a, b in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(a, b)
    assert h1 == h2


def _reference_train(model, x_train, y_train, x_val, y_val, cfg):
    """The training loop as it was before the gradient vector and the best-epoch
    snapshot were allocated once: a fresh `backward` result every step and a
    fresh snapshot at every improvement."""
    if len(x_train) == 0:
        raise ValueError("empty training set")
    y_train = np.asarray(y_train, dtype=model.dtype).reshape(-1, 1)
    y_val = np.asarray(y_val, dtype=model.dtype).reshape(-1, 1)
    state = nn.adam_init(model)
    sched = nn.PlateauScheduler(lr_input=cfg.lr_input, lr_deep=cfg.lr_deep, patience=cfg.patience)
    history = []
    best_val = float("inf")
    best_params = None
    n = len(x_train)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.shuffle_seed, epoch])
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            pred, cache = nn.forward(model, x_train[idx], mode="train", rng=rng)
            loss, dpred = nn.logcosh_loss(pred, y_train[idx])
            grads = nn.backward(model, cache, dpred)
            nn.adam_step(model, grads, state, sched.lr_input, sched.lr_deep, cfg.weight_decay)
            epoch_loss += loss * len(idx)
        train_loss = epoch_loss / n
        if len(x_val):
            val_pred, _ = nn.forward(model, x_val, mode="eval")
            val_loss, _ = nn.logcosh_loss(val_pred, y_val)
        else:
            val_loss = train_loss
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.flat.copy()
        sched.step(val_loss)
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "lr_input": sched.lr_input,
                "lr_deep": sched.lr_deep,
            }
        )
    if best_params is not None:
        np.copyto(model.flat, best_params)
    return model, history


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_matches_reference_loop_bit_for_bit(dtype):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(48, 12))
    y = rng.uniform(2, 8, size=48)
    data = (x[:40], y[:40], x[40:], y[40:])  # random labels: validation improves, then worsens
    cfg = nn.TrainConfig(epochs=12, batch_size=8, lr_input=1e-2, lr_deep=1e-2, patience=1, shuffle_seed=3)
    ours, history = nn.train(_small_model(seed=6, dtype=dtype), *data, cfg)
    ref, ref_history = _reference_train(_small_model(seed=6, dtype=dtype), *data, cfg)
    assert ours.flat.tobytes() == ref.flat.tobytes()
    assert history == ref_history
    # the snapshot is overwritten after its first copy, and restoring it matters
    val = [h["val_loss"] for h in history]
    improvements = sum(v < min(val[:i], default=math.inf) for i, v in enumerate(val))
    assert improvements >= 2 and int(np.argmin(val)) < len(val) - 1


def test_backward_writes_into_a_given_gradient_vector():
    model = _small_model(seed=3, dtype=np.float32)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 12))
    pred, cache = nn.forward(model, x, mode="train", rng=rng)
    _, dpred = nn.logcosh_loss(pred, rng.uniform(0, 10, size=(5, 1)))
    fresh = nn.backward(model, cache, dpred)
    buf = nn.FlatParams(np.full_like(model.flat, np.nan), model.input_dim, model.hidden_widths)
    assert nn.backward(model, cache, dpred, out=buf) is buf
    assert buf.flat.tobytes() == fresh.flat.tobytes()


def _traced_peak(fn):
    """Peak bytes numpy and Python allocate while ``fn()`` runs, above what was held before."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_train_holds_four_parameter_sized_vectors_besides_the_parameters():
    # Adam's two moments, one gradient vector and one best-epoch snapshot, plus
    # the batch activations; the default model, so the vectors dominate
    model = nn.init_model(seed=0, jod_min=0.0, jod_max=10.0, whitening=_stats())
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, nn.INPUT_DIM)).astype(np.float32)
    y = rng.uniform(0, 10, size=40)
    cfg = nn.TrainConfig(epochs=4, batch_size=8)
    peak = _traced_peak(lambda: nn.train(model, x[:32], y[:32], x[32:], y[32:], cfg))
    assert peak < 4.25 * model.flat.nbytes


def test_init_model_draws_weights_without_a_matrix_sized_temporary():
    peak = _traced_peak(lambda: nn.init_model(seed=0, jod_min=0.0, jod_max=10.0, whitening=_stats()))
    flat_bytes = 4 * nn._size(nn.INPUT_DIM, nn.HIDDEN_WIDTHS)
    assert peak < 1.25 * flat_bytes


@pytest.mark.parametrize("rows", [1, 3, nn._INIT_ROWS])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_model_equals_one_draw_per_matrix(monkeypatch, rows, dtype):
    monkeypatch.setattr(nn, "_INIT_ROWS", rows)
    hidden = (70, 130, 5)  # not multiples of the default block, nor of 3
    model = _small_model(seed=9, input_dim=12, hidden=hidden, dtype=dtype)
    rng = np.random.default_rng(9)
    for w in model.weights:
        bound = np.sqrt(1.0 / w.shape[1])
        assert w.tobytes() == rng.uniform(-bound, bound, size=w.shape).astype(dtype).tobytes()


def test_pair_to_input_and_predict():
    ds = tiny_direction_set(k=4, seed=0)
    rng = np.random.default_rng(0)
    ref = SampledBrdf(values=rng.uniform(0, 2, (4, 3)), directions=ds)
    dist = SampledBrdf(values=rng.uniform(0, 2, (4, 3)), directions=ds)
    model = _small_model(input_dim=24, hidden=(6, 5, 4))
    x = reference_pair_to_input(ref, dist, model.whitening)
    assert x.shape == (24,)
    # reference channels first, then the distorted member's
    np.testing.assert_allclose(x[:12], np.log1p(np.cbrt(ref.values)).ravel(), rtol=1e-12)
    np.testing.assert_allclose(x[12:], np.log1p(np.cbrt(dist.values)).ravel(), rtol=1e-12)
    assert nn.input_matrix(model, [(ref, dist)]).tobytes() == x.tobytes()
    j = nn.predict_jod(model, ref, dist)
    assert 0.0 <= j <= 10.0
    wrong = _small_model(input_dim=30, hidden=(6, 5, 4))
    with pytest.raises(PairingError):
        nn.predict_jod(wrong, ref, dist)


def test_checkpoint_roundtrip(tmp_path):
    model = nn.init_model(
        seed=9, jod_min=0.5, jod_max=9.5,
        whitening=WhiteningStats(mean=np.array([0.1, 0.2, 0.3]), std=np.array([1.1, 1.2, 1.3])),
        input_dim=24, hidden=(6, 5, 4), dtype=np.float32, dropout=0.2,
    )
    p = tmp_path / "model.ckpt"
    nn.save_checkpoint(model, p)
    loaded = nn.load_checkpoint(p)
    assert loaded.input_dim == 24
    assert loaded.hidden_widths == (6, 5, 4)
    assert (loaded.jod_min, loaded.jod_max) == (0.5, 9.5)
    np.testing.assert_array_equal(loaded.whitening.mean, model.whitening.mean)
    np.testing.assert_array_equal(loaded.whitening.std, model.whitening.std)
    for a, b in zip(model.weights, loaded.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(model.gammas, loaded.gammas):
        np.testing.assert_array_equal(a, b)
    # identical predictions
    x = np.random.default_rng(0).normal(size=(3, 24)).astype(np.float32)
    p1, _ = nn.forward(model, x)
    p2, _ = nn.forward(loaded, x)
    np.testing.assert_array_equal(p1, p2)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = _small_model(dtype=np.float32)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    nn.save_checkpoint(model, a)
    nn.save_checkpoint(nn.load_checkpoint(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_fail_closed(tmp_path):
    model = _small_model(dtype=np.float32)
    p = tmp_path / "m.ckpt"
    nn.save_checkpoint(model, p)
    data = p.read_bytes()

    bad_magic = tmp_path / "bad1.ckpt"
    bad_magic.write_bytes(b"not-a-checkpoint v1\n\n" + data.split(b"\n\n", 1)[1])
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(bad_magic)

    truncated = tmp_path / "bad2.ckpt"
    truncated.write_bytes(data[:-10])
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(truncated)

    no_sep = tmp_path / "bad3.ckpt"
    no_sep.write_bytes(data.replace(b"\n\n", b"\n", 1))
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(no_sep)

    garbled = tmp_path / "bad4.ckpt"
    garbled.write_bytes(data.replace(b"jod_min", b"jod_mix", 1))
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(garbled)


def _checkpoint_seed_file() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "seed.ckpt"
        nn.save_checkpoint(_small_model(input_dim=4, hidden=(3, 2, 2), dtype=np.float32), p)
        return p.read_bytes()


_CKPT_SEED = _checkpoint_seed_file()
_CKPT_PAYLOAD = _CKPT_SEED.index(b"\n\n") + 2
_flip_ckpt = partial(flip_bit, _CKPT_SEED)


# flips that once got past the loader: "jod_max 10.0" -> "00.0" (an empty
# JOD range), "dropout 0.2" -> "1.2", and bit 30 of a LayerNorm gain of 1.0
# (exponent 255: an infinite parameter)
_FIRST_GAIN = int(np.flatnonzero(np.frombuffer(_CKPT_SEED[_CKPT_PAYLOAD:], dtype="<f4") == 1.0)[0])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.integers(0, len(_CKPT_SEED) - 1).map(lambda cut: _CKPT_SEED[:cut]),
    st.binary(min_size=1, max_size=64).map(lambda extra: _CKPT_SEED + extra),
    st.integers(0, 8 * _CKPT_PAYLOAD - 1).map(_flip_ckpt),
    st.integers(8 * _CKPT_PAYLOAD, 8 * len(_CKPT_SEED) - 1).map(_flip_ckpt),
))
@example(data=_flip_ckpt(8 * (_CKPT_SEED.index(b"jod_max 10.0") + 8)))
@example(data=_flip_ckpt(8 * (_CKPT_SEED.index(b"dropout 0.2") + 8)))
@example(data=_flip_ckpt(8 * (_CKPT_PAYLOAD + 4 * _FIRST_GAIN) + 30))
def test_damaged_checkpoint_loads_a_finite_model_or_raises_checkpoint_error(tmp_path, data):
    """Truncated, extended or bit-flipped: either a model whose parameters,
    JOD range, whitening and dropout are usable, or a CheckpointError."""
    p = tmp_path / "fuzz.ckpt"
    p.write_bytes(data)
    try:
        model = nn.load_checkpoint(p)
    except CheckpointError:
        return
    assert np.isfinite(model.flat).all()
    assert math.isfinite(model.jod_min) and math.isfinite(model.jod_max) and model.jod_min < model.jod_max
    assert np.isfinite(model.whitening.mean).all() and np.isfinite(model.whitening.std).all()
    assert 0.0 <= model.dropout < 1.0


def _train_step_grads(model, seed=0, batch=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, model.input_dim))
    y = rng.uniform(0, 10, size=(batch, 1)).astype(model.dtype)
    pred, cache = nn.forward(model, x, mode="train", rng=rng)
    _, dpred = nn.logcosh_loss(pred, y)
    return nn.backward(model, cache, dpred)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_returns_gradients_in_model_dtype(dtype):
    model = _small_model(dtype=dtype)
    grads = _train_step_grads(model)
    for key in ("weights", "biases", "gammas", "betas"):
        for g, p in zip(grads[key], getattr(model, key)):
            assert g.dtype == dtype, key
            assert g.shape == p.shape, key


def test_gelu_grad_keeps_float32():
    x = np.linspace(-3, 3, 7, dtype=np.float32)
    assert nn._gelu_grad(x, nn._ndtr(x)).dtype == np.float32
    assert _gelu(x).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_state_matches_parameter_dtype(dtype):
    model = _small_model(dtype=dtype)
    state = nn.adam_init(model)
    for moments in (state.m, state.v):
        for key in ("weights", "biases", "gammas", "betas"):
            for mom, p in zip(moments[key], getattr(model, key)):
                assert mom.dtype == dtype and mom.shape == p.shape
                assert not mom.any()


def _reference_adam(params, grads, m, v, t, lr_input, lr_deep, weight_decay, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook per-array Adam in float64, updating ``params``, ``m`` and ``v`` in place."""
    for key in ("weights", "biases", "gammas", "betas"):
        for i, p in enumerate(params[key]):
            g = np.asarray(grads[key][i], dtype=np.float64) + weight_decay * p
            m[key][i] = b1 * m[key][i] + (1 - b1) * g
            v[key][i] = b2 * v[key][i] + (1 - b2) * g * g
            lr = lr_input if (key in ("weights", "biases") and i == 0) else lr_deep
            p -= lr * (m[key][i] / (1 - b1**t)) / (np.sqrt(v[key][i] / (1 - b2**t)) + eps)


def test_float32_adam_tracks_float64_reference():
    model = _small_model(seed=4, dtype=np.float32)
    keys = ("weights", "biases", "gammas", "betas")
    ref = {k: [a.astype(np.float64) for a in getattr(model, k)] for k in keys}
    m = {k: [np.zeros_like(a) for a in ref[k]] for k in keys}
    v = {k: [np.zeros_like(a) for a in ref[k]] for k in keys}
    state = nn.adam_init(model)
    for t in range(1, 6):
        grads = _train_step_grads(model, seed=t)
        nn.adam_step(model, grads, state, lr_input=1e-3, lr_deep=1e-2, weight_decay=1e-2)
        _reference_adam(ref, grads, m, v, t, 1e-3, 1e-2, 1e-2)
    for key in keys:
        for p, r in zip(getattr(model, key), ref[key]):
            assert p.dtype == np.float32
            # float32 rounding of the moments and parameters, a few ulps per step
            np.testing.assert_allclose(p, r, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_step_leaves_gradients_unmodified(weight_decay):
    model = _small_model(dtype=np.float32)
    state = nn.adam_init(model)
    grads = _train_step_grads(model)
    before = grads.flat.copy()
    nn.adam_step(model, grads, state, 1e-3, 1e-3, weight_decay=weight_decay)
    np.testing.assert_array_equal(grads.flat, before)


def _unblocked_adam(model, grads, state, lr_input, lr_deep, weight_decay):
    """Adam as one pass of each ufunc over the whole flat vectors: the blocked update's reference."""
    state.step += 1
    t = state.step
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    bc1 = 1.0 - b1**t
    sqrt_bc2 = math.sqrt(1.0 - b2**t)
    p, m, v, g = model.flat, state.m.flat, state.v.flat, grads.flat
    if weight_decay > 0.0:
        g = np.multiply(p, float(weight_decay)) + g
    scratch = np.multiply(g, 1.0 - b1)
    m *= b1
    m += scratch
    np.square(g, out=scratch)
    scratch *= 1.0 - b2
    v *= b2
    v += scratch
    np.sqrt(v, out=scratch)
    scratch += nn.ADAM_EPS * sqrt_bc2
    np.divide(m, scratch, out=scratch)
    n_input = model.weights[0].size + model.biases[0].size
    for group, lr in ((slice(0, n_input), lr_input), (slice(n_input, None), lr_deep)):
        step = scratch[group]
        step *= float(lr) * sqrt_bc2 / bc1
        p[group] -= step


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("block, input_dim, hidden", [(None, 200, (90, 40, 8)), (16, 12, (8, 6, 4))])
def test_blocked_adam_matches_unblocked_bit_for_bit(monkeypatch, weight_decay, block, input_dim, hidden):
    if block is not None:
        monkeypatch.setattr(nn, "_ADAM_BLOCK", block)
    model = _small_model(seed=2, input_dim=input_dim, hidden=hidden, dtype=np.float32)
    n_input = model.weights[0].size + model.biases[0].size
    # the group boundary and the total size both fall inside a block
    assert n_input > nn._ADAM_BLOCK and n_input % nn._ADAM_BLOCK and model.flat.size % nn._ADAM_BLOCK
    ref = _small_model(seed=2, input_dim=input_dim, hidden=hidden, dtype=np.float32)
    state, ref_state = nn.adam_init(model), nn.adam_init(ref)
    for t in range(1, 6):
        grads = _train_step_grads(model, seed=t)
        nn.adam_step(model, grads, state, lr_input=1e-3, lr_deep=1e-2, weight_decay=weight_decay)
        _unblocked_adam(ref, grads, ref_state, 1e-3, 1e-2, weight_decay)
        for ours, theirs in ((model.flat, ref.flat), (state.m.flat, ref_state.m.flat), (state.v.flat, ref_state.v.flat)):
            assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("train_jods, val_jods, jod_range", [
    ([7.0, 7.0, 7.0], [7.0], (6.5, 7.5)),  # all equal: widened by 0.5 each way
    ([3.0, 7.0, 5.0], [8.5], (3.0, 8.5)),  # the val JODs count too
])
def test_fit_takes_whitening_and_output_range_from_the_dataset(train_jods, val_jods, jod_range):
    rng = np.random.default_rng(0)
    sets = {m: tiny_direction_set(k=4, seed=i, material=m) for i, m in enumerate("ab")}

    def pair(m):
        return tuple(SampledBrdf(values=rng.uniform(0.0, 2.0, (4, 3)), directions=sets[m]) for _ in range(2))

    materials = ["a", "b", "a"]
    train_pairs = [pair(m) for m in materials]
    dataset = {"train": (materials, train_pairs, train_jods), "val": (["b"], [pair("b")], val_jods)}
    model, history = nn.fit(dataset, epochs=1, batch_size=2, seed=3)
    assert (model.jod_min, model.jod_max) == jod_range
    # the first reference of each training material, not the third pair's
    want = compute_whitening([train_pairs[0][0], train_pairs[1][0]])
    assert np.array_equal(model.whitening.mean, want.mean) and np.array_equal(model.whitening.std, want.std)
    assert model.input_dim == 24 and model.seed == 3 and len(history) == 1


def test_parameters_are_views_of_the_flat_buffer_after_train():
    rng = np.random.default_rng(3)
    model = _small_model(seed=1, dtype=np.float32)
    x = rng.normal(size=(16, 12))
    y = rng.uniform(0, 10, size=16)
    cfg = nn.TrainConfig(epochs=4, batch_size=8, lr_input=1e-2, lr_deep=1e-2)
    model, _ = nn.train(model, x, y, x[:4], y[:4], cfg)
    for key in ("weights", "biases", "gammas", "betas"):
        for arr in getattr(model, key):
            assert np.shares_memory(arr, model.flat), key
    before = [w.copy() for w in model.weights]
    nn.adam_step(model, _train_step_grads(model), nn.adam_init(model), 1e-2, 1e-2)
    for w, b in zip(model.weights, before):
        assert not np.array_equal(w, b)


def test_loaded_checkpoint_parameters_view_one_float32_buffer(tmp_path):
    p = tmp_path / "m.ckpt"
    nn.save_checkpoint(_small_model(dtype=np.float64), p)
    loaded = nn.load_checkpoint(p)
    assert loaded.dtype == np.float32 and loaded.flat.flags.writeable
    assert loaded.flat.size == nn._size(loaded.input_dim, loaded.hidden_widths)
    for key in ("weights", "biases", "gammas", "betas"):
        for arr in getattr(loaded, key):
            assert np.shares_memory(arr, loaded.flat), key


def test_predict_jods_matches_one_pair_at_a_time():
    ds = tiny_direction_set(k=4, seed=0)
    rng = np.random.default_rng(5)
    pairs = [
        (SampledBrdf(values=rng.uniform(0, 2, (4, 3)), directions=ds),
         SampledBrdf(values=rng.uniform(0, 2, (4, 3)), directions=ds))
        for _ in range(5)
    ]
    model = _small_model(input_dim=24, hidden=(6, 5, 4), dtype=np.float32)
    batch = nn.predict_jods(model, pairs)
    assert batch.shape == (5,)
    single = [nn.predict_jod(model, ref, dist) for ref, dist in pairs]
    np.testing.assert_allclose(batch, single, rtol=1e-6)
    assert nn.predict_jods(model, []).shape == (0,)
    with pytest.raises(PairingError):
        nn.predict_jods(_small_model(input_dim=30, hidden=(6, 5, 4)), pairs)


def test_predict_jods_refuses_scores_that_are_not_finite():
    """One W0 row of 3e38 overflows the first matmul: a CheckpointError,
    and no numpy warning escapes (the suite turns one into a failure)."""
    ds = tiny_direction_set(k=2, seed=0)
    rng = np.random.default_rng(8)
    pairs = [
        (SampledBrdf(values=rng.uniform(0, 2, (2, 3)), directions=ds),
         SampledBrdf(values=rng.uniform(0, 2, (2, 3)), directions=ds))
        for _ in range(3)
    ]
    model = _small_model(dtype=np.float32)
    assert np.isfinite(nn.predict_jods(model, pairs)).all()
    model.weights[0][2] = 3e38
    with pytest.raises(CheckpointError, match="3 of 3 pairs"):
        nn.predict_jods(model, pairs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_input_matrix_rows_are_pair_to_input_in_model_dtype(dtype):
    ds = tiny_direction_set(k=4, seed=0)
    rng = np.random.default_rng(6)
    values = rng.uniform(0, 2, (6, 4, 3))
    values[0, 0] = [-0.25, 0.0, 1.0]  # a negative sample clamps to zero, like a zero
    values[3, 2] = [0.0, -1e-3, 8.0]
    pairs = [(SampledBrdf(values=r, directions=ds), SampledBrdf(values=d, directions=ds)) for r, d in zip(values[::2], values[1::2])]
    whitening = WhiteningStats(mean=np.array([0.1, 0.2, 0.3]), std=np.array([1.1, 1.2, 1.3]))
    model = nn.init_model(seed=0, jod_min=0.0, jod_max=10.0, whitening=whitening, input_dim=24, hidden=(6, 5, 4),
                          dtype=dtype)
    x = nn.input_matrix(model, pairs)
    expected = np.stack([reference_pair_to_input(ref, dist, whitening) for ref, dist in pairs]).astype(dtype)
    assert x.dtype == dtype and x.shape == (3, 24)
    assert x.tobytes() == expected.tobytes()
    empty = nn.input_matrix(model, [])
    assert empty.dtype == dtype and empty.shape == (0, 24)
    other_k = tiny_direction_set(k=5, seed=1)
    odd = SampledBrdf(values=rng.uniform(0, 2, (5, 3)), directions=other_k)
    with pytest.raises(PairingError, match="model expects 24"):
        nn.input_matrix(model, [pairs[0], (odd, odd), pairs[1]])
    unpaired = (pairs[0][0], SampledBrdf(values=pairs[0][1].values, directions=tiny_direction_set(k=4, seed=2)))
    with pytest.raises(PairingError, match="direction set"):
        nn.input_matrix(model, [pairs[0], unpaired, pairs[1]])
