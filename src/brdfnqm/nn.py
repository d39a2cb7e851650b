"""The quality-predictor MLP and its from-scratch training machinery.

Architecture: dense 3000->1024->716->501->1; every hidden dense layer is
followed by layer normalization, exact-erf GELU x Phi(x) (Hendrycks &
Gimpel, "Gaussian Error Linear Units", 2016), and dropout (p = 0.2, train
mode only, inverted scaling). A sigmoid after the last layer
rescales the output into [jod_min, jod_max]. The whitening statistics and
JOD range live inside the model so inference is self-contained: a raw
(reference, distorted) pair of k x 3 samples becomes one input row of
6k values, the whitened perceptual transform of the reference's samples
followed by the distorted member's (`input_matrix`).

Everything runs on plain numpy arrays (float32 by default, float64 for
gradient-check shadow models) and stays in the model's dtype, gradients and
Adam moments included; gradients are hand-derived reverse-mode. Parameters,
gradients and Adam moments each live in one contiguous vector in checkpoint
blob order, cut into per-array views (see `FlatParams`).

The normal CDF Phi is computed here (`_ndtr`) in float64 from W. J. Cody's
rational Chebyshev approximations to erf and erfc ("Rational Chebyshev
approximations for the error function", Math. Comp. 23 (1969) 631-637),
with the coefficients and ranges of his SPECFUN routine CALERF. A
train-mode forward pass keeps Phi of each hidden layer for the backward
pass.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, PairingError
from .preprocess import WhiteningStats, compute_whitening, perceptual_transform
from .sampling import SampledBrdf, check_paired

INPUT_DIM = 3000
HIDDEN_WIDTHS = (1024, 716, 501)
LN_EPS = 1e-5
CHECKPOINT_MAGIC = "brdfnqm-checkpoint"
CHECKPOINT_VERSION = 1
# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# PlateauScheduler's learning-rate cut, its floor, and the relative gain that counts as improvement
PLATEAU_FACTOR = 0.1
PLATEAU_MIN_LR = 1e-6
PLATEAU_REL_THRESHOLD = 1e-4

# a Python float, so that float32 arrays stay float32 (NEP 50 scalar promotion)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# Cody's CALERF coefficients, each tuple in his order (see `_cody_ratio`):
# erf(z) = z A(z^2)/B(z^2) for |z| <= 0.46875,
# erfc(z) = exp(-z^2) C(z)/D(z) for 0.46875 < z <= 4,
# erfc(z) = exp(-z^2)/z (1/sqrt(pi) - P(1/z^2)/Q(1/z^2)/z^2) for z > 4
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_ERF_MAX = 0.46875  # |z| up to which erf itself is evaluated
_ERFC_MID_MAX = 4.0  # z up to which erfc uses C/D, beyond it P/Q
# exp(-z^2) is 0 in float64 beyond this z; larger |z| are evaluated at it,
# where erfc is 0 as well and nothing overflows
_ERFC_ZERO = 27.5
_PARAM_KEYS = ("weights", "biases", "gammas", "betas")
# weight rows `init_model` draws at a time: a 3000-wide block is 1.5 MB of float64
_INIT_ROWS = 64
# elements per Adam block: its six operands (64 KB each in float32) stay in L2 cache
_ADAM_BLOCK = 16384


def _layout(input_dim: int, hidden: tuple[int, ...]):
    """(key, shape) of every parameter array in checkpoint blob order.

    Per hidden layer W, b, gamma, beta; then the final W, b. The input
    layer's W and b therefore come first.
    """
    dims = [input_dim, *hidden, 1]
    for i, h in enumerate(hidden):
        yield from (("weights", (h, dims[i])), ("biases", (h,)), ("gammas", (h,)), ("betas", (h,)))
    yield from (("weights", (1, dims[-2])), ("biases", (1,)))


def _size(input_dim: int, hidden: tuple[int, ...]) -> int:
    return sum(math.prod(shape) for _, shape in _layout(input_dim, hidden))


class FlatParams(dict):
    """Per-key lists of views into one contiguous vector ``flat``.

    The keys are "weights", "biases", "gammas" and "betas", as on the model;
    the views are cut in checkpoint blob order. Write through the views in
    place: rebinding a list entry detaches it from ``flat``.
    """

    def __init__(self, flat: np.ndarray, input_dim: int, hidden: tuple[int, ...]):
        if flat.ndim != 1 or flat.size != _size(input_dim, hidden):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {input_dim}->{hidden}->1")
        super().__init__((k, []) for k in _PARAM_KEYS)
        pos = 0
        for key, shape in _layout(input_dim, hidden):
            size = math.prod(shape)
            self[key].append(flat[pos : pos + size].reshape(shape))
            pos += size
        self.flat = flat


@dataclass(eq=False)
class MlpModel:
    """Network parameters plus the embedded preprocessing.

    Every parameter lives in ``flat``; ``weights`` (per dense layer, shape
    (out, in)), ``biases``, ``gammas`` and ``betas`` (layer norm per hidden
    layer) are lists of views into it, set up from ``flat`` on construction.
    """

    flat: np.ndarray
    input_dim: int
    hidden_widths: tuple[int, ...]
    jod_min: float
    jod_max: float
    whitening: WhiteningStats
    seed: int
    dropout: float

    def __post_init__(self):
        if not self.jod_min < self.jod_max:
            raise ValueError("jod_min must be < jod_max")
        params = FlatParams(self.flat, self.input_dim, self.hidden_widths)
        self.weights, self.biases, self.gammas, self.betas = (params[k] for k in _PARAM_KEYS)

    @property
    def dtype(self):
        return self.flat.dtype


def _flat_like(model: MlpModel, alloc) -> FlatParams:
    """A FlatParams over ``alloc(model.flat)``, e.g. np.zeros_like."""
    return FlatParams(alloc(model.flat), model.input_dim, model.hidden_widths)


def init_model(
    seed: int,
    jod_min: float,
    jod_max: float,
    whitening: WhiteningStats,
    input_dim: int = INPUT_DIM,
    hidden: tuple[int, ...] = HIDDEN_WIDTHS,
    dtype=np.float32,
    dropout: float = 0.2,
) -> MlpModel:
    """Fan-in uniform weights, zero biases, identity layer norms.

    Each weight matrix is drawn `_INIT_ROWS` rows at a time in float64 and
    cast into its float view; the generator yields the same stream in any
    block size, so the values equal one whole-matrix draw.
    """
    rng = np.random.default_rng(seed)
    model = MlpModel(
        flat=np.zeros(_size(input_dim, hidden), dtype=dtype),
        input_dim=input_dim,
        hidden_widths=tuple(hidden),
        jod_min=float(jod_min),
        jod_max=float(jod_max),
        whitening=whitening,
        seed=seed,
        dropout=dropout,
    )
    for w in model.weights:
        bound = np.sqrt(1.0 / w.shape[1])
        for start in range(0, len(w), _INIT_ROWS):
            rows = w[start : start + _INIT_ROWS]
            rows[...] = rng.uniform(-bound, bound, size=rows.shape)
    for g in model.gammas:
        g.fill(1.0)
    return model


def _cody_ratio(t, p, q):
    """Cody's P(t)/Q(t) in his nesting and rounding order.

    P = p[-1] t^n + p[0] t^(n-1) + ... + p[-2]; Q is monic, t^n + q[0]
    t^(n-1) + ... + q[-1], for n = len(q).
    """
    num = p[-1] * t
    num += p[0]
    den = t + q[0]
    for a, b in zip(p[1:-1], q[1:]):
        num *= t
        num += a
        den *= t
        den += b
    num /= den
    return num


def _ndtr(x):
    """Standard normal CDF Phi(x) = erfc(-x/sqrt(2))/2, elementwise.

    Computed in float64 with Cody's erf/erfc and returned in x's float dtype
    (float64 for other input), so float32 stays float32. In float64 it is
    within about 8 ulp of the exact value; a float32 result rounds like one
    from scipy.special.ndtr. Phi(+inf) = 1, Phi(-inf) = 0 and NaN stays NaN.

    The elements are split by integer index into |z| <= 0.46875 and the rest,
    and each part is evaluated only on its own elements: a gather and a
    scatter cost less than a second rational function on every element, or a
    select (`np.where`, boolean masks) that branches on the random signs.
    """
    x = np.asarray(x)
    dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float64)
    z = np.divide(x, _SQRT_2, dtype=np.float64).ravel()
    y = np.abs(z)
    phi = np.empty_like(z)
    in_erf = y <= _ERF_MAX
    # |z| <= _ERF_MAX: Phi = 1/2 + erf(z)/2
    idx = np.flatnonzero(in_erf)
    zs = z[idx]
    part = _cody_ratio(np.square(zs), _ERF_A, _ERF_B)
    part *= zs
    part *= 0.5
    part += 0.5
    phi[idx] = part
    # the rest, NaN included: Phi = erfc(|z|)/2 for z < 0, 1 - erfc(|z|)/2 for z > 0
    idx = np.flatnonzero(~in_erf)
    y = np.minimum(y[idx], _ERFC_ZERO)
    ratio = _cody_ratio(np.minimum(y, _ERFC_MID_MAX), _ERFC_C, _ERFC_D)
    tail = np.flatnonzero(y > _ERFC_MID_MAX)
    if tail.size:
        yt = y[tail]
        t = 1.0 / np.square(yt)
        rt = _cody_ratio(t, _ERFC_P, _ERFC_Q)
        rt *= t
        np.subtract(_INV_SQRT_PI, rt, out=rt)
        rt /= yt
        ratio[tail] = rt
    # exp(-y^2) = exp(-h^2) exp(-(y - h)(y + h)), h = y rounded down to 1/16,
    # so that no rounding of y^2 reaches the exponent
    h = np.multiply(y, 16.0)
    np.floor(h, out=h)
    h *= 0.0625
    d = np.subtract(h, y)
    y += h
    d *= y
    np.exp(d, out=d)
    np.square(h, out=h)
    np.negative(h, out=h)
    np.exp(h, out=h)
    h *= d
    h *= ratio  # erfc(|z|)
    part = np.copysign(0.5, z[idx], out=d)
    h *= part
    part += 0.5  # 1 for z > 0, 0 for z < 0
    part -= h
    phi[idx] = part
    return phi.reshape(x.shape).astype(dtype, copy=False)


def _gelu_grad(x, phi):
    """d/dx of GELU x Phi(x), given phi = Phi(x) from the forward pass."""
    return phi + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def forward(model: MlpModel, batch: np.ndarray, mode: str = "eval", rng=None):
    """Run the network; returns (predictions (B, 1), cache for backward).

    A train-mode cache holds one record (input, xhat, inv_std, y, phi, mask)
    per hidden layer, then the last layer's input and its sigmoid; mask is
    None without dropout, else drawn from ``rng``, which train mode with
    dropout needs. An eval pass keeps no activations: its cache is None.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(batch, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape} incompatible with input dim {model.input_dim}")
    train = mode == "train"
    drop = train and model.dropout > 0.0
    if drop and rng is None:
        raise ValueError("train mode with dropout requires an rng")
    keep = 1.0 - model.dropout
    layers = []
    a = x
    for w, b, gamma, beta in zip(model.weights, model.biases, model.gammas, model.betas):  # hidden layers only
        z = a @ w.T + b
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (z - mu) * inv_std
        y = gamma * xhat + beta
        phi = _ndtr(y)
        mask = rng.random(y.shape) < keep if drop else None
        if train:
            layers.append((a, xhat, inv_std, y, phi, mask))
        a = y * phi
        if drop:
            a = a * mask / keep
    s = _sigmoid(a @ model.weights[-1].T + model.biases[-1])
    pred = model.jod_min + s * (model.jod_max - model.jod_min)
    return pred, ((layers, a, s) if train else None)


def logcosh_loss(pred: np.ndarray, target: np.ndarray):
    """Mean log(cosh(pred - target)) in overflow-safe form, plus d/dpred."""
    pred = np.asarray(pred)
    target = np.asarray(target).reshape(pred.shape)
    d = pred - target
    ad = np.abs(d)
    loss = float(np.mean(ad + np.log1p(np.exp(-2.0 * ad)) - np.log(2.0)))
    grad = np.tanh(d) / d.shape[0]
    return loss, grad


def backward(model: MlpModel, cache, loss_grad: np.ndarray, out: FlatParams | None = None) -> FlatParams:
    """Gradients of the loss w.r.t. every parameter, mirroring the model.

    ``cache`` is what a train-mode `forward` returned. The gradients come
    back in the model's dtype, as views into one flat gradient vector laid
    out like ``model.flat``: ``out`` when given (every element is
    overwritten), else a new one.
    """
    if cache is None:
        raise ValueError("backward requires a cache from a train-mode forward pass")
    layers, a_last, s = cache
    keep = 1.0 - model.dropout
    dzf = loss_grad * (model.jod_max - model.jod_min) * s * (1.0 - s)
    grads = _flat_like(model, np.empty_like) if out is None else out
    np.matmul(dzf.T, a_last, out=grads["weights"][-1])
    dzf.sum(axis=0, out=grads["biases"][-1])
    da = dzf @ model.weights[-1]
    for i in reversed(range(len(layers))):
        x_in, xhat, inv_std, y, phi, mask = layers[i]
        if mask is not None:
            da = da * mask / keep
        dy = da * _gelu_grad(y, phi)
        (dy * xhat).sum(axis=0, out=grads["gammas"][i])
        dy.sum(axis=0, out=grads["betas"][i])
        dxhat = dy * model.gammas[i]
        dz = inv_std * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        np.matmul(dz.T, x_in, out=grads["weights"][i])
        dz.sum(axis=0, out=grads["biases"][i])
        if i > 0:  # below layer 0 lies the input batch, which needs no gradient
            da = dz @ model.weights[i]
    return grads


@dataclass
class AdamState:
    """Adam moments in the model's dtype, laid out like ``model.flat``."""

    m: FlatParams
    v: FlatParams
    step: int = 0


def adam_init(model: MlpModel) -> AdamState:
    return AdamState(m=_flat_like(model, np.zeros_like), v=_flat_like(model, np.zeros_like))


def adam_step(
    model: MlpModel,
    grads: FlatParams,
    state: AdamState,
    lr_input: float,
    lr_deep: float,
    weight_decay: float = 0.0,
) -> None:
    """In-place Adam update with coupled L2 decay and two learning-rate groups.

    The input dense layer (weights[0], biases[0]) uses lr_input; every other
    parameter, including all layer norms, uses lr_deep. ``grads`` is what
    `backward` returns; it is only read.

    The vectors are updated in blocks of `_ADAM_BLOCK` elements, each inside
    one learning-rate group, so that the ufunc sequence runs on data that
    stays in cache. Every operation is elementwise and exactly rounded, so
    the result does not depend on the block size.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    sqrt_bc2 = math.sqrt(1.0 - b2**t)
    # lr * (m / bc1) / (sqrt(v / bc2) + eps), with sqrt(bc2) folded into the constants
    eps_hat = ADAM_EPS * sqrt_bc2
    p, m, v, g = model.flat, state.m.flat, state.v.flat, grads.flat
    decay = float(weight_decay)
    scratch = np.empty(min(_ADAM_BLOCK, p.size), dtype=p.dtype)
    decayed = np.empty_like(scratch) if decay > 0.0 else None
    n_input = model.weights[0].size + model.biases[0].size
    for lo, hi, lr in ((0, n_input, lr_input), (n_input, p.size, lr_deep)):
        step_size = float(lr) * sqrt_bc2 / bc1
        for start in range(lo, hi, _ADAM_BLOCK):
            block = slice(start, min(start + _ADAM_BLOCK, hi))
            gb, mb, vb, pb = g[block], m[block], v[block], p[block]
            s = scratch[: pb.size]
            if decayed is not None:
                gb = np.multiply(pb, decay, out=decayed[: pb.size])
                gb += g[block]
            np.multiply(gb, 1.0 - b1, out=s)
            mb *= b1
            mb += s
            np.square(gb, out=s)
            s *= 1.0 - b2
            vb *= b2
            vb += s
            np.sqrt(vb, out=s)
            s += eps_hat
            np.divide(mb, s, out=s)
            s *= step_size
            pb -= s


@dataclass
class PlateauScheduler:
    """Reduce both learning rates when validation loss stops improving."""

    lr_input: float
    lr_deep: float
    patience: int
    best: float = float("inf")
    bad_epochs: int = 0

    def step(self, val_loss: float) -> None:
        if val_loss < self.best * (1.0 - PLATEAU_REL_THRESHOLD):
            self.best = val_loss
            self.bad_epochs = 0
            return
        self.bad_epochs += 1
        if self.bad_epochs > self.patience:
            self.lr_input = max(self.lr_input * PLATEAU_FACTOR, PLATEAU_MIN_LR)
            self.lr_deep = max(self.lr_deep * PLATEAU_FACTOR, PLATEAU_MIN_LR)
            self.bad_epochs = 0


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    lr_input: float = 1e-4
    lr_deep: float = 1e-3
    weight_decay: float = 1e-4
    patience: int = 5
    shuffle_seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1 or min(self.lr_input, self.lr_deep) <= 0:
            raise ValueError("epochs/batch_size/learning rates must be positive")


def train(
    model: MlpModel,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
):
    """Seeded minibatch training; returns (best-validation model, history).

    History has one row per epoch: train/val loss and the two group LRs.
    Besides the parameters, the loop holds four parameter-sized vectors:
    Adam's two moments, one gradient vector that every step's `backward`
    overwrites, and the best epoch's parameters, made at the first
    improvement and overwritten at each later one.
    """
    if len(x_train) == 0:
        raise ValueError("empty training set")
    y_train = np.asarray(y_train, dtype=model.dtype).reshape(-1, 1)
    y_val = np.asarray(y_val, dtype=model.dtype).reshape(-1, 1)
    state = adam_init(model)
    grads = _flat_like(model, np.empty_like)
    sched = PlateauScheduler(lr_input=cfg.lr_input, lr_deep=cfg.lr_deep, patience=cfg.patience)
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
            pred, cache = forward(model, x_train[idx], mode="train", rng=rng)
            loss, dpred = logcosh_loss(pred, y_train[idx])
            backward(model, cache, dpred, out=grads)
            adam_step(model, grads, state, sched.lr_input, sched.lr_deep, cfg.weight_decay)
            epoch_loss += loss * len(idx)
        train_loss = epoch_loss / n
        if len(x_val):
            val_pred, _ = forward(model, x_val, mode="eval")
            val_loss, _ = logcosh_loss(val_pred, y_val)
        else:
            val_loss = train_loss
        if val_loss < best_val:
            best_val = val_loss
            if best_params is None:
                best_params = model.flat.copy()
            else:
                np.copyto(best_params, model.flat)
        sched.step(val_loss)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "lr_input": sched.lr_input, "lr_deep": sched.lr_deep})
    if best_params is not None:
        np.copyto(model.flat, best_params)
    return model, history


def fit(dataset: dict, epochs: int, batch_size: int, seed: int):
    """The ``train`` command's recipe; returns (best-validation model, history).

    ``dataset`` maps "train" (at least one pair) and "val" to (materials, raw
    sampled (ref, dist) pairs, JODs) columns. Whitening: the first reference
    of each training material; output range: the train and val JODs, widened
    by 0.5 each way when all equal. The pairs are freed before training, so
    pass ``dataset`` as the only reference to them.
    """
    (materials, train_pairs, y_tr), (_, val_pairs, y_va) = dataset["train"], dataset["val"]
    stats = compute_whitening([train_pairs[materials.index(m)][0] for m in dict.fromkeys(materials)])
    jods = [*y_tr, *y_va]
    pad = 0.5 if min(jods) == max(jods) else 0.0
    model = init_model(seed, min(jods) - pad, max(jods) + pad, stats, input_dim=6 * train_pairs[0][0].directions.k)
    x_tr, x_va = input_matrix(model, train_pairs), input_matrix(model, val_pairs)
    # the sample pairs are in x_tr/x_va now; free them before training allocates
    del dataset, train_pairs, val_pairs
    return train(model, x_tr, y_tr, x_va, y_va, TrainConfig(epochs=epochs, batch_size=batch_size, shuffle_seed=seed))


def input_matrix(model: MlpModel, pairs) -> np.ndarray:
    """Network inputs of raw sampled (ref, dist) pairs: one row per pair, in order, in the model's dtype.

    Every pair is checked first: both members must share a direction set and
    hold ``model.input_dim / 6`` samples. All pairs are then transformed and
    whitened together in float64, and cast once.
    """
    x = np.empty((len(pairs), 2, model.input_dim // 6, 3))
    for row, (ref, dist) in zip(x, pairs):
        check_paired(ref, dist)
        if 6 * ref.directions.k != model.input_dim:
            raise PairingError(
                f"pair produces input of length {6 * ref.directions.k}, model expects {model.input_dim}"
            )
        row[0], row[1] = ref.values, dist.values
    x = perceptual_transform(x)
    x -= model.whitening.mean
    x /= model.whitening.std
    return x.reshape(len(pairs), model.input_dim).astype(model.dtype, copy=False)


def predict_jods(model: MlpModel, pairs) -> np.ndarray:
    """Score raw sampled (ref, dist) pairs, in order, in one eval-mode pass.

    A score that is not finite (parameters large enough to overflow the
    forward pass) is a CheckpointError.
    """
    x = input_matrix(model, pairs)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite score, refused below
        pred, _ = forward(model, x, mode="eval")
    bad = np.count_nonzero(~np.isfinite(pred))
    if bad:
        raise CheckpointError(f"the model scores {bad} of {len(pred)} pairs as NaN or infinite; its parameters overflow")
    return pred[:, 0]


def predict_jod(model: MlpModel, ref: SampledBrdf, dist: SampledBrdf) -> float:
    """Score one raw sampled pair with the embedded preprocessing."""
    return float(predict_jods(model, [(ref, dist)])[0])


def save_checkpoint(model: MlpModel, path) -> None:
    """Text header + the model's flat parameter vector as little-endian float32.

    Blob order: per hidden layer W, b, gamma, beta; then the final W, b.
    """
    header = io.StringIO()
    header.write(f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n")
    header.write(f"input_dim {model.input_dim}\n")
    header.write("hidden " + " ".join(str(h) for h in model.hidden_widths) + "\n")
    header.write(f"jod_min {model.jod_min!r}\n")
    header.write(f"jod_max {model.jod_max!r}\n")
    header.write("whitening_mean " + " ".join(repr(float(v)) for v in model.whitening.mean) + "\n")
    header.write("whitening_std " + " ".join(repr(float(v)) for v in model.whitening.std) + "\n")
    header.write(f"seed {model.seed}\n")
    header.write(f"dropout {model.dropout!r}\n")
    payload = model.flat.astype("<f4", copy=False)  # a view of a float32 model, written through its buffer
    header.write(f"payload_bytes {payload.nbytes}\n")
    with open(str(path), "wb") as f:
        f.write(header.getvalue().encode("ascii"))
        f.write(b"\n")
        f.write(payload)


def load_checkpoint(path) -> MlpModel:
    with open(str(path), "rb") as f:
        data = f.read()
    sep = data.find(b"\n\n")
    if sep < 0:
        raise CheckpointError("missing header/payload separator")
    try:
        lines = data[:sep].decode("ascii").splitlines()
        fields = {}
        magic = lines[0]
        for line in lines[1:]:
            key, _, rest = line.partition(" ")
            fields[key] = rest
        if magic != f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}":
            raise CheckpointError(f"bad magic/version line {magic!r}")
        input_dim = int(fields["input_dim"])
        hidden = tuple(int(h) for h in fields["hidden"].split())
        jod_min = float(fields["jod_min"])
        jod_max = float(fields["jod_max"])
        whitening = WhiteningStats(
            mean=np.array([float(v) for v in fields["whitening_mean"].split()]),
            std=np.array([float(v) for v in fields["whitening_std"].split()]),
        )
        seed = int(fields["seed"])
        dropout = float(fields["dropout"])
        payload_bytes = int(fields["payload_bytes"])
        if input_dim < 1 or not all(h >= 1 for h in hidden):
            raise ValueError(f"layer widths {input_dim} -> {hidden} are not positive")
        if not (math.isfinite(jod_min) and math.isfinite(jod_max) and jod_min < jod_max):
            raise ValueError(f"JOD range [{jod_min}, {jod_max}] is not a finite interval")
        if not (np.isfinite(whitening.mean).all() and np.isfinite(whitening.std).all()):
            raise ValueError("non-finite whitening statistics")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout {dropout} outside [0, 1)")
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"malformed header: {exc}") from exc
    payload = data[sep + 2 :]
    if len(payload) != payload_bytes:
        raise CheckpointError(f"payload is {len(payload)} bytes, header says {payload_bytes}")
    expected = _size(input_dim, hidden)
    if payload_bytes != 4 * expected:
        raise CheckpointError(f"payload holds {payload_bytes // 4} floats, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    if not np.isfinite(flat).all():
        raise CheckpointError("NaN or infinite values in the payload")
    return MlpModel(
        flat=flat,
        input_dim=input_dim,
        hidden_widths=hidden,
        jod_min=jod_min,
        jod_max=jod_max,
        whitening=whitening,
        seed=seed,
        dropout=dropout,
    )
