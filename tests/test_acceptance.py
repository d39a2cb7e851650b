"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Each test prints "ACCEPTANCE <n> <name>: PASS" just before its final
assertion block completes; a failing assertion leaves the line unprinted
and the pytest failure carries the diagnosis.
"""

import math

import numpy as np
import pytest

from brdfnqm import baselines, evaluate, nn, preprocess, sampling, synth
from brdfnqm.jod import (
    REFERENCE_PARAMS,
    CalibrationPoint,
    JodRegressionParams,
    fit_jod_regression,
    jod_from_deitp,
)
from brdfnqm.preprocess import WhiteningStats
from brdfnqm.sampling import SampledBrdf

from conftest import tiny_direction_set


def _ok(num, name):
    print(f"\nACCEPTANCE {num} {name}: PASS")


def _stats():
    return WhiteningStats(mean=np.zeros(3), std=np.ones(3))


# --------------------------------------------------------------------------
# 1. Architecture fidelity
# --------------------------------------------------------------------------
def test_acceptance_1_architecture(tmp_path):
    model = nn.init_model(seed=0, jod_min=0.0, jod_max=10.0, whitening=_stats())
    assert model.flat.size == 4_171_125
    path = tmp_path / "full.ckpt"
    nn.save_checkpoint(model, path)
    header = path.read_bytes().split(b"\n\n", 1)[0].decode("ascii")
    payload_bytes = int(
        next(line for line in header.splitlines() if line.startswith("payload_bytes")).split()[1]
    )
    assert payload_bytes == 16_684_500 == 4 * 4_171_125
    assert path.stat().st_size == payload_bytes + len(header) + 2
    _ok(1, "architecture (4,171,125 params, 16,684,500-byte payload)")


# --------------------------------------------------------------------------
# 2. Gradient correctness on the reduced 12 -> 8 -> 6 -> 4 -> 1 model
# --------------------------------------------------------------------------
def test_acceptance_2_gradient_check():
    model = nn.init_model(
        seed=0, jod_min=0.0, jod_max=10.0, whitening=_stats(),
        input_dim=12, hidden=(8, 6, 4), dtype=np.float64,
    )
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 12))
    y = rng.uniform(0.0, 10.0, size=(4, 1))

    # a fresh rng of one seed gives every pass the same dropout masks
    pred, cache = nn.forward(model, x, mode="train", rng=np.random.default_rng(1))
    _, dpred = nn.logcosh_loss(pred, y)
    analytic = nn.backward(model, cache, dpred)

    def loss_at():
        p, _ = nn.forward(model, x, mode="train", rng=np.random.default_rng(1))
        return nn.logcosh_loss(p, y)[0]

    worst = 0.0
    for key in ("weights", "biases", "gammas", "betas"):
        for i, arr in enumerate(getattr(model, key)):
            flat = arr.reshape(-1)
            ga = analytic[key][i].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                # relative step keeps truncation error below the tolerance
                h = 1e-3 * max(abs(orig), 1e-2)
                flat[j] = orig + h
                lp = loss_at()
                flat[j] = orig - h
                lm = loss_at()
                flat[j] = orig
                fd = (lp - lm) / (2.0 * h)
                rel = abs(ga[j] - fd) / max(abs(ga[j]), abs(fd), 1e-6)
                worst = max(worst, rel)
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    _ok(2, f"gradient check (max relative error {worst:.2e} < 1e-4)")


# --------------------------------------------------------------------------
# 3. JOD regression: shape of the curve and LM recovery
# --------------------------------------------------------------------------
def test_acceptance_3_jod_regression():
    d = np.logspace(-6, 3, 10_000, base=10.0)
    d = d[d > 1e-6]
    j = jod_from_deitp(d)
    assert np.all(np.diff(j) <= 1e-12), "not monotone non-increasing"
    assert np.all((j >= 0.0) & (j <= 10.0))
    assert jod_from_deitp(0.0) == 10.0
    assert jod_from_deitp(1e-12) == 10.0

    rng = np.random.default_rng(0)
    dd = np.sort(rng.uniform(0.05, 50.0, 40))
    points = [CalibrationPoint(float(x), float(jod_from_deitp(x))) for x in dd]
    for ps in (+0.2, -0.2):
        init = JodRegressionParams(
            b1=-14.11 * (1 + ps), b2=-0.47 * (1 - ps), b3=-0.21 * (1 + ps)
        )
        fit = fit_jod_regression(points, init)
        err = np.max(np.abs((fit.as_array() - REFERENCE_PARAMS.as_array()) / REFERENCE_PARAMS.as_array()))
        assert err < 1e-3, f"LM recovery error {err:.3e} from {ps:+.0%} start"
    _ok(3, "JOD regression (monotone, bounded, limit 10, LM recovery < 1e-3)")


# --------------------------------------------------------------------------
# 4. Loss / activation scalar checks
# --------------------------------------------------------------------------
def test_acceptance_4_scalar_checks():
    loss0, _ = nn.logcosh_loss(np.array([[0.0]]), np.array([[0.0]]))
    assert loss0 == 0.0
    loss50, _ = nn.logcosh_loss(np.array([[50.0]]), np.array([[0.0]]))
    assert abs(loss50 - (50.0 - math.log(2.0))) < 1e-9
    # the exact GELU of the hidden layers: x Phi(x)
    assert float(0.0 * nn._ndtr(0.0)) == 0.0
    assert abs(float(1.0 * nn._ndtr(1.0)) - 0.841345) < 1e-6
    _ok(4, "scalar checks (logcosh(0)=0, logcosh(50)=50-log2, GELU(0)=0, GELU(1))")


# --------------------------------------------------------------------------
# 5. Oracle equivalence: baselines and Spearman
# --------------------------------------------------------------------------
def _loop_metric(kind, ref, dist):
    d = ref.directions
    acc = []
    for s in range(d.k):
        w = d.cos_wi[s] * d.cos_wo[s]
        for c in range(3):
            a, b = ref.values[s, c], dist.values[s, c]
            if kind in (baselines.MetricKind.RMSE, baselines.MetricKind.MAE):
                ta, tb = a, b
            elif kind in (baselines.MetricKind.RMS_CRWE, baselines.MetricKind.MA_CRWE):
                ta, tb = (w * a) ** (1 / 3), (w * b) ** (1 / 3)
            elif kind in (baselines.MetricKind.RMS_LOGE, baselines.MetricKind.MA_LOGE):
                ta, tb = math.log(1 + a), math.log(1 + b)
            else:
                ta, tb = math.log(1 + w * a), math.log(1 + w * b)
            acc.append(ta - tb)
    if kind.value.startswith("rms"):
        return math.sqrt(sum(v * v for v in acc) / len(acc))
    return sum(abs(v) for v in acc) / len(acc)


def _rank_oracle(v):
    return np.array(
        [sum(1 for u in v if u < x) + (sum(1 for u in v if u == x) + 1) / 2 for x in v]
    )


def test_acceptance_5_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ds = tiny_direction_set(k=10, seed=seed)
        ref = SampledBrdf(values=rng.uniform(0, 4, (10, 3)), directions=ds)
        dist = SampledBrdf(values=rng.uniform(0, 4, (10, 3)), directions=ds)
        for kind, got in baselines.all_metrics(ref, dist).items():
            want = _loop_metric(kind, ref, dist)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst < 1e-12, f"baseline metric relative deviation {worst:.3e}"

    worst_s = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 5, size=n).astype(float)  # ties guaranteed
        y = rng.normal(size=n)
        if np.all(x == x[0]):
            continue
        rx, ry = _rank_oracle(x), _rank_oracle(y)
        rx, ry = rx - rx.mean(), ry - ry.mean()
        want = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
        worst_s = max(worst_s, abs(evaluate.spearman(x, y) - want))
    assert worst_s < 1e-12, f"spearman deviation {worst_s:.3e}"
    _ok(5, "oracle equivalence (8 baselines and Spearman within 1e-12)")


# --------------------------------------------------------------------------
# 6. Pipeline counting invariants at study scale (with k=4 dummy payloads)
# --------------------------------------------------------------------------
def test_acceptance_6_counting_invariants():
    # one shared tiny payload, cloned per pair: counting only, no math
    ds = tiny_direction_set(k=4, seed=0)
    ref = SampledBrdf(values=np.ones((4, 3)), directions=ds)
    dist = SampledBrdf(values=np.full((4, 3), 1.1), directions=ds)

    # 3,340 ordinary pairs + 180 pairs of held-out study materials = 3,520
    materials = [f"m{idx % 167}" for idx in range(3340)]
    materials += [f"held{idx % 9}" for idx in range(180)]
    splits = preprocess.make_splits(materials, test_materials=[f"held{i}" for i in range(9)], seed=0)
    train = [i for i, s in enumerate(splits) if s == "train"]
    assert len(train) == 2672
    assert splits.count("val") == 668
    assert splits.count("test") == 180
    assert len(splits) == 3520

    # scale augmentation adds one scaled copy per training pair: 2672 -> 5344
    augmented = [preprocess.augment_scale(ref, dist, seed=i) for i in train]
    total_train = len(train) + len(augmented)
    assert total_train == 5344
    _ok(6, "counting invariants (3,520 -> 2,672/668/180; train 2,672 -> 5,344)")


# --------------------------------------------------------------------------
# 7. End-to-end learning at desk scale
# --------------------------------------------------------------------------
MAGNITUDES = [0.05, 0.1, 0.18, 0.3, 0.45, 0.65, 0.9, 1.2, 1.6]


def _build_desk_dataset():
    levels = [synth.DistortionSpec(synth.DistortionKind.SPECULAR_SCALE, m) for m in MAGNITUDES]
    cands = sampling.build_candidate_grid()
    items = []  # (material, ref SampledBrdf, dist SampledBrdf, jod)
    mat = -1
    ds = None
    for ref_tab, dist_tab, severity in synth.iter_dataset(
        30, levels, seed=11, res=(45, 45, 90)
    ):
        if ds is None or ds.source_material != ref_tab.name:
            mat += 1
            ds = sampling.select_samples(ref_tab, cands, k=500, seed=0)
            ref_sampled = sampling.sample_brdf(ref_tab, ds)
        dist_sampled = sampling.sample_brdf(dist_tab, ds)
        items.append((ref_tab.name, ref_sampled, dist_sampled, preprocess.severity_oracle_jod(severity)))
    return items


@pytest.fixture(scope="module")
def desk_dataset():
    return _build_desk_dataset()


HELD_OUT = {f"mat{m:03d}" for m in range(24, 30)}


@pytest.fixture(scope="module")
def desk_fit(desk_dataset):
    """(model, its train/val columns, held-out items): `nn.fit`, the recipe `train` runs, on the training materials.

    The snapshot is chosen on a validation split of the training materials,
    as `split` makes it; the held-out materials are scored only.
    """
    fit_items = [it for it in desk_dataset if it[0] not in HELD_OUT]
    splits = preprocess.make_splits([it[0] for it in fit_items], test_materials=[], seed=0)
    dataset = {}
    for split in ("train", "val"):
        items = [it for it, s in zip(fit_items, splits) if s == split]
        dataset[split] = ([name for name, _, _, _ in items], [(r, d) for _, r, d, _ in items], [j for _, _, _, j in items])
    model, _ = nn.fit(dataset, epochs=200, batch_size=64, seed=0)
    return model, dataset, [it for it in desk_dataset if it[0] in HELD_OUT]


def test_acceptance_7_end_to_end(desk_fit):
    model, dataset, test_items = desk_fit
    assert len(dataset["train"][0]) + len(dataset["val"][0]) == 24 * 9 and len(test_items) == 6 * 9

    pred = nn.predict_jods(model, [(r, d) for _, r, d, _ in test_items])
    report = evaluate.correlate_per_material([it[0] for it in test_items], pred, [j for _, _, _, j in test_items])
    assert len(report.per_material) == 6
    assert report.average >= 0.8, f"held-out per-material Spearman {report.average:.3f} < 0.8"

    # overfit probe: 32 pairs, evaluation-mode loss must collapse below 0.01.
    # Regularizers (dropout, weight decay) and the plateau LR decay are
    # switched off, as is standard for a capacity/plumbing sanity check, and
    # the output range is padded so no label sits at a sigmoid endpoint.
    _, train_pairs, y_tr = dataset["train"]
    xo, yo = nn.input_matrix(model, train_pairs[:32]), np.array(y_tr[:32])
    over = nn.init_model(seed=1, jod_min=float(yo.min()) - 0.5, jod_max=float(yo.max()) + 0.5,
                         whitening=model.whitening, input_dim=3000, dropout=0.0)
    over, hist = nn.train(
        over, xo, yo, xo, yo,
        nn.TrainConfig(epochs=200, batch_size=32, shuffle_seed=1,
                       weight_decay=0.0, patience=10_000),
    )
    p, _ = nn.forward(over, xo, mode="eval")
    overfit_loss, _ = nn.logcosh_loss(p, yo.reshape(-1, 1))
    assert overfit_loss < 0.01, f"overfit eval-mode loss {overfit_loss:.4f} >= 0.01"
    _ok(7, f"end-to-end (held-out Spearman {report.average:.3f} >= 0.8, overfit loss {overfit_loss:.4f} < 0.01)")


# --------------------------------------------------------------------------
# 8. Determinism of every CLI command
# --------------------------------------------------------------------------
def test_acceptance_8_cli_determinism(tmp_path):
    from click.testing import CliRunner

    from brdfnqm import cli

    runner = CliRunner()

    def run(args):
        res = runner.invoke(cli.main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output

    digests = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        t, s = root / "tables", root / "samples"
        run(["gen-synthetic", "--n", "2", "--level", "spec:0.3", "--level", "spec:0.8",
             "--level", "spec:1.5", "--seed", "5", "--out-dir", str(t), "--res", "12", "8", "16"])
        run(["sample", "--manifest", str(t / "manifest.txt"), "--k", "30", "--seed", "6", "--out-dir", str(s)])
        run(["label", "--from-severity", str(s / "pairs.txt"), "--out", str(root / "labels.txt")])
        run(["split", "--pairs", str(s / "pairs.txt"), "--test-material", "mat001",
             "--seed", "7", "--out", str(root / "splits.txt")])
        run(["augment", "--pairs", str(s / "pairs.txt"), "--labels", str(root / "labels.txt"),
             "--splits", str(root / "splits.txt"), "--seed", "8", "--out-dir", str(root / "aug")])
        run(["train", "--pairs", str(root / "aug" / "pairs.txt"), "--labels", str(root / "aug" / "labels.txt"),
             "--splits", str(root / "aug" / "splits.txt"), "--epochs", "2", "--batch-size", "4",
             "--seed", "9", "--checkpoint", str(root / "model.ckpt"), "--history", str(root / "history.txt")])
        run(["predict", "--checkpoint", str(root / "model.ckpt"), "--pairs", str(s / "pairs.txt"),
             "--out", str(root / "preds.txt")])
        run(["eval-baselines", "--pairs", str(s / "pairs.txt"), "--out", str(root / "metrics.txt")])
        run(["correlate", "--metrics", str(root / "metrics.txt"), "--predictions", str(root / "preds.txt"),
             "--labels", str(root / "labels.txt"), "--pairs", str(s / "pairs.txt"),
             "--out", str(root / "report.txt")])
        # collect every artifact; tables embed absolute paths, so compare
        # path-independent files byte-for-byte and path-bearing ones with the
        # run root stripped
        blob = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                rel = str(p.relative_to(root))
                blob[rel] = p.read_bytes().replace(str(root).encode(), b"<root>")
        digests.append(blob)
    assert digests[0].keys() == digests[1].keys()
    for rel in digests[0]:
        assert digests[0][rel] == digests[1][rel], f"nondeterministic artifact: {rel}"
    _ok(8, f"determinism ({len(digests[0])} artifacts byte-identical across reruns)")
