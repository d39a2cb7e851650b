"""The quality-predictor MLP and its from-scratch training machinery.

Architecture: dense 3000->1024->716->501->1; every hidden dense layer is
followed by layer normalization, exact-erf GELU, and dropout (p = 0.2,
train mode only, inverted scaling). A sigmoid after the last layer
rescales the output into [jod_min, jod_max]. The whitening statistics and
JOD range live inside the model so inference is self-contained.

Everything runs on plain numpy arrays (float32 by default, float64 for
gradient-check shadow models) and stays in the model's dtype, gradients and
Adam moments included; gradients are hand-derived reverse-mode. Parameters,
gradients and Adam moments each live in one contiguous vector in checkpoint
blob order, cut into per-array views (see `FlatParams`).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import CheckpointError, PairingError
from .preprocess import WhiteningStats, transform_sampled, whiten
from .sampling import SampledBrdf, check_paired

INPUT_DIM = 3000
HIDDEN_WIDTHS = (1024, 716, 501)
LN_EPS = 1e-5
CHECKPOINT_MAGIC = "brdfnqm-checkpoint"
CHECKPOINT_VERSION = 1

# a Python float, so that float32 arrays stay float32 (NEP 50 scalar promotion)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_PARAM_KEYS = ("weights", "biases", "gammas", "betas")
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
    dropout: float = 0.2

    def __post_init__(self):
        if not self.jod_min < self.jod_max:
            raise ValueError("jod_min must be < jod_max")
        params = FlatParams(self.flat, self.input_dim, self.hidden_widths)
        self.weights, self.biases, self.gammas, self.betas = (params[k] for k in _PARAM_KEYS)

    @property
    def dtype(self):
        return self.flat.dtype


def param_count(model: MlpModel) -> int:
    return model.flat.size


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
    """Fan-in uniform weights, zero biases, identity layer norms."""
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
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for g in model.gammas:
        g.fill(1.0)
    return model


def gelu(x):
    """Exact GELU: x * Phi(x) with the erf-based normal CDF."""
    x = np.asarray(x)
    return x * ndtr(x)


def _gelu_grad(x):
    return ndtr(x) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def forward(model: MlpModel, batch: np.ndarray, mode: str = "eval", rng=None, dropout_masks=None):
    """Run the network; returns (predictions (B, 1), cache for backward).

    Train mode needs either an rng to draw dropout masks or explicit masks
    (one boolean array per hidden layer, used by the gradient checker).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(batch, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape} incompatible with input dim {model.input_dim}")
    keep = 1.0 - model.dropout
    cache = {"mode": mode, "inputs": [], "z": [], "xhat": [], "inv_std": [], "y": [], "masks": []}
    a = x
    n_hidden = len(model.gammas)
    for i in range(n_hidden):
        cache["inputs"].append(a)
        z = a @ model.weights[i].T + model.biases[i]
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (z - mu) * inv_std
        y = model.gammas[i] * xhat + model.betas[i]
        a = gelu(y)
        if mode == "train" and model.dropout > 0.0:
            if dropout_masks is not None:
                mask = dropout_masks[i]
            elif rng is not None:
                mask = rng.random(a.shape) < keep
            else:
                raise ValueError("train mode requires an rng or explicit dropout masks")
            a = a * mask / keep
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
        cache["z"].append(z)
        cache["xhat"].append(xhat)
        cache["inv_std"].append(inv_std)
        cache["y"].append(y)
    cache["inputs"].append(a)
    zf = a @ model.weights[-1].T + model.biases[-1]
    s = _sigmoid(zf)
    cache["s"] = s
    pred = model.jod_min + s * (model.jod_max - model.jod_min)
    return pred, cache


def logcosh_loss(pred: np.ndarray, target: np.ndarray):
    """Mean log(cosh(pred - target)) in overflow-safe form, plus d/dpred."""
    pred = np.asarray(pred)
    target = np.asarray(target).reshape(pred.shape)
    d = pred - target
    ad = np.abs(d)
    loss = float(np.mean(ad + np.log1p(np.exp(-2.0 * ad)) - np.log(2.0)))
    grad = np.tanh(d) / d.shape[0]
    return loss, grad


def backward(model: MlpModel, cache: dict, loss_grad: np.ndarray) -> FlatParams:
    """Gradients of the loss w.r.t. every parameter, mirroring the model.

    They come back in the model's dtype, as views into one flat gradient
    vector laid out like ``model.flat``.
    """
    if cache.get("mode") != "train":
        raise ValueError("backward requires a cache from a train-mode forward pass")
    keep = 1.0 - model.dropout
    s = cache["s"]
    dzf = loss_grad * (model.jod_max - model.jod_min) * s * (1.0 - s)
    grads = FlatParams(np.empty_like(model.flat), model.input_dim, model.hidden_widths)
    a_last = cache["inputs"][-1]
    np.matmul(dzf.T, a_last, out=grads["weights"][-1])
    dzf.sum(axis=0, out=grads["biases"][-1])
    da = dzf @ model.weights[-1]
    for i in reversed(range(len(model.gammas))):
        mask = cache["masks"][i]
        if mask is not None:
            da = da * mask / keep
        y = cache["y"][i]
        dy = da * _gelu_grad(y)
        xhat = cache["xhat"][i]
        (dy * xhat).sum(axis=0, out=grads["gammas"][i])
        dy.sum(axis=0, out=grads["betas"][i])
        dxhat = dy * model.gammas[i]
        inv_std = cache["inv_std"][i]
        dz = inv_std * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        x_in = cache["inputs"][i]
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(model: MlpModel) -> AdamState:
    def zeros():
        return FlatParams(np.zeros_like(model.flat), model.input_dim, model.hidden_widths)

    return AdamState(m=zeros(), v=zeros())


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
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    sqrt_bc2 = math.sqrt(1.0 - b2**t)
    # lr * (m / bc1) / (sqrt(v / bc2) + eps), with sqrt(bc2) folded into the constants
    eps_hat = state.eps * sqrt_bc2
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
    patience: int = 5
    factor: float = 0.1
    min_lr: float = 1e-6
    rel_threshold: float = 1e-4
    best: float = float("inf")
    bad_epochs: int = 0

    def step(self, val_loss: float) -> None:
        if val_loss < self.best * (1.0 - self.rel_threshold):
            self.best = val_loss
            self.bad_epochs = 0
            return
        self.bad_epochs += 1
        if self.bad_epochs > self.patience:
            self.lr_input = max(self.lr_input * self.factor, self.min_lr)
            self.lr_deep = max(self.lr_deep * self.factor, self.min_lr)
            self.bad_epochs = 0


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 512
    lr_input: float = 1e-4
    lr_deep: float = 1e-3
    weight_decay: float = 1e-4
    patience: int = 5
    factor: float = 0.1
    min_lr: float = 1e-6
    rel_threshold: float = 1e-4
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
    """
    if len(x_train) == 0:
        raise ValueError("empty training set")
    y_train = np.asarray(y_train, dtype=model.dtype).reshape(-1, 1)
    y_val = np.asarray(y_val, dtype=model.dtype).reshape(-1, 1)
    state = adam_init(model)
    sched = PlateauScheduler(
        lr_input=cfg.lr_input,
        lr_deep=cfg.lr_deep,
        patience=cfg.patience,
        factor=cfg.factor,
        min_lr=cfg.min_lr,
        rel_threshold=cfg.rel_threshold,
    )
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
            grads = backward(model, cache, dpred)
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


def pair_to_input(ref: SampledBrdf, dist: SampledBrdf, whitening: WhiteningStats) -> np.ndarray:
    """Clamp, transform, whiten, and concatenate a raw pair (reference first)."""
    check_paired(ref, dist)
    r = whiten(transform_sampled(ref), whitening)
    d = whiten(transform_sampled(dist), whitening)
    return np.concatenate([r.values.ravel(), d.values.ravel()])


def input_matrix(model: MlpModel, pairs) -> np.ndarray:
    """Network inputs of raw sampled (ref, dist) pairs: one row per pair, in order, in the model's dtype."""
    x = np.empty((len(pairs), model.input_dim), dtype=model.dtype)
    for row, (ref, dist) in zip(x, pairs):
        inp = pair_to_input(ref, dist, model.whitening)
        if inp.shape[0] != model.input_dim:
            raise PairingError(
                f"pair produces input of length {inp.shape[0]}, model expects {model.input_dim}"
            )
        row[:] = inp
    return x


def predict_jods(model: MlpModel, pairs) -> np.ndarray:
    """Score raw sampled (ref, dist) pairs, in order, in one eval-mode pass."""
    pred, _ = forward(model, input_matrix(model, pairs), mode="eval")
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
    payload = model.flat.astype("<f4", copy=False).tobytes()
    header.write(f"payload_bytes {len(payload)}\n")
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
