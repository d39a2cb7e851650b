"""Command-line pipeline: synthesize, sample, label, train, score, compare.

All randomness flows from explicit --seed flags; any command rerun with
identical inputs and seeds writes byte-identical outputs. Exit codes:
0 success, 1 runtime/data error, 2 usage error.

Only ``train`` and ``predict`` import :mod:`brdfnqm.nn` (and with it
``scipy.special``), so every other command starts with numpy and click alone.
"""

from __future__ import annotations

import math
import pathlib
import sys

import click

from . import baselines, evaluate, jod, preprocess, sampling, synth
from .errors import BrdfError, FormatError
from .merl import CANONICAL_RES, load_merl, save_merl
from .pairio import read_pair, read_pairs, write_samples
from .tables import check_field, read_table, write_table

MANIFEST_COLUMNS = ["ref_path", "dist_path", "severity", "seed", "kind", "magnitude", "material"]
PAIRS_COLUMNS = ["pair_id", "material", "severity", "ref_samples", "dist_samples"]
LABEL_COLUMNS = ["pair_id", "jod", "provenance"]
SPLIT_COLUMNS = ["pair_id", "split"]
HISTORY_COLUMNS = ["epoch", "train_loss", "val_loss", "lr_input", "lr_deep"]


class _PipelineGroup(click.Group):
    """The command group; the one error boundary of every command.

    A data or file error (``BrdfError``, ``OSError``, ``ValueError``) ends the
    command with a one-line ``Error:`` message and exit 1, never a traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BrdfError, OSError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc


class _ByPair(dict):
    """pair_id -> value of one table; an absent pair is a BrdfError naming it and the file."""

    def __init__(self, path, kind: str, items):
        super().__init__(items)
        self.path, self.kind = path, kind

    def __missing__(self, pid):
        raise BrdfError(f"{self.path}: pair {pid!r} is missing from the {self.kind} table")


def _rows(path, kind: str, *names):
    """(meta, rows) of a table, each row the fields of columns ``names`` in that order; a missing one is a FormatError."""
    meta, cols, rows = read_table(path, kind)
    for name in names:
        if name not in cols:
            raise FormatError(f"{path}: the {kind} table has no {name!r} column")
    idx = [cols.index(name) for name in names]
    return meta, [[r[i] for i in idx] for r in rows]


def _number(path, column: str, text: str) -> float:
    """The finite float of a table field; anything else is a FormatError naming the file and ``column``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{path}: {column} is {text!r}, not a finite number")
    return value


def _read_jods(labels_file) -> _ByPair:
    """pair_id -> JOD of a labels table; a malformed or non-finite JOD is a FormatError naming the pair."""
    _, rows = _rows(labels_file, "labels", "pair_id", "jod")
    return _ByPair(labels_file, "labels", ((pid, _number(labels_file, f"jod of pair {pid!r}", j)) for pid, j in rows))


@click.group(cls=_PipelineGroup)
def main():
    """Perceptual quality toolkit for tabulated BRDFs."""


def _parse_level(text: str) -> synth.DistortionSpec:
    try:
        kind_s, _, mag_s = text.partition(":")
        kind = synth.DistortionKind(kind_s)
        return synth.DistortionSpec(kind=kind, magnitude=float(mag_s))
    except (ValueError, KeyError) as exc:
        raise click.UsageError(f"bad level spec {text!r} (want kind:magnitude, e.g. noise:0.01)") from exc


@main.command("gen-synthetic")
@click.option("--n", type=click.IntRange(min=1), required=True, help="Number of reference materials.")
@click.option("--level", "levels", multiple=True, required=True, help="Distortion level kind:magnitude; repeatable.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--res", nargs=3, type=click.IntRange(min=1), default=CANONICAL_RES, show_default=True, help="Table resolution (theta_h theta_d phi_d).")
def cmd_gen_synthetic(n, levels, seed, out_dir, res):
    """Generate analytic reference/distorted table pairs plus a manifest."""
    specs = [_parse_level(t) for t in levels]
    out = pathlib.Path(out_dir)
    check_field(out / "manifest.txt", "ref_path", str(out))  # before anything is made
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    current_ref = None
    for i, (ref, dist, severity) in enumerate(synth.iter_dataset(n, specs, seed, res=tuple(res))):
        li = i % len(specs)
        if li == 0:
            current_ref = out / f"{ref.name}.binary"
            save_merl(ref, current_ref)
        dist_path = out / f"{ref.name}_l{li:02d}.binary"
        save_merl(dist, dist_path)
        lv = specs[li]
        rows.append([str(current_ref), str(dist_path), float(severity), seed, lv.kind.value, float(lv.magnitude), ref.name])
    write_table(out / "manifest.txt", "manifest", MANIFEST_COLUMNS, rows, meta={"seed": seed, "n": n})
    click.echo(f"wrote {len(rows)} pairs to {out}/manifest.txt")


@main.command("sample")
@click.option("--manifest", type=click.Path(exists=True), required=True)
@click.option("--k", type=click.IntRange(min=1), default=sampling.DEFAULT_K, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Recorded in the headers; the directions chosen do not depend on it.")
@click.option("--grid", nargs=3, type=click.IntRange(min=2), default=sampling.DEFAULT_GRID, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_sample(manifest, k, seed, grid, out_dir):
    """Sample every manifest pair at directions chosen from its reference."""
    out = pathlib.Path(out_dir)
    check_field(out / "pairs.txt", "ref_samples", str(out))
    _, rows = _rows(manifest, "manifest", "ref_path", "dist_path", "severity", "material")
    rows = [(ref, dist, _number(manifest, "severity", sev), material) for ref, dist, sev, material in rows]
    out.mkdir(parents=True, exist_ok=True)
    cands = sampling.build_candidate_grid(*grid)
    pair_rows = []
    dirsets: dict[str, tuple] = {}
    counters: dict[str, int] = {}
    for ref_path, dist_path, severity, material in rows:
        if ref_path not in dirsets:
            ref_brdf = load_merl(ref_path)
            ds = sampling.select_samples(ref_brdf, cands, k=k, seed=seed)
            ref_sampled = sampling.sample_brdf(ref_brdf, ds)
            ref_out = out / f"{material}_ref.txt"
            write_samples(ref_out, ref_sampled)
            dirsets[ref_path] = (ds, str(ref_out))
        ds, ref_out = dirsets[ref_path]
        li = counters.get(material, 0)
        counters[material] = li + 1
        pair_id = f"{material}_l{li:02d}"
        dist_brdf = load_merl(dist_path)
        dist_sampled = sampling.sample_brdf(dist_brdf, ds)
        dist_out = out / f"{pair_id}_dist.txt"
        write_samples(dist_out, dist_sampled)
        pair_rows.append([pair_id, material, severity, ref_out, str(dist_out)])
    write_table(out / "pairs.txt", "pairs", PAIRS_COLUMNS, pair_rows, meta={"k": k, "seed": seed})
    click.echo(f"sampled {len(pair_rows)} pairs into {out}")


@main.command("fit-jod")
@click.option("--calibration", type=click.Path(exists=True), required=True, help="Table with deitp/jod columns.")
@click.option("--init", nargs=3, type=float, default=(jod.REFERENCE_PARAMS.b1, jod.REFERENCE_PARAMS.b2, jod.REFERENCE_PARAMS.b3), show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_fit_jod(calibration, init, out):
    """Fit the logistic deitp->JOD regression by Levenberg-Marquardt."""
    _, rows = _rows(calibration, "calibration", "deitp", "jod")
    points = [jod.CalibrationPoint(deitp=_number(calibration, "deitp", d), jod=_number(calibration, "jod", j)) for d, j in rows]
    params = jod.fit_jod_regression(points, jod.JodRegressionParams(*init))
    write_table(out, "jodparams", ["b1", "b2", "b3"], [[params.b1, params.b2, params.b3]])
    click.echo(f"fitted b1={params.b1:.4f} b2={params.b2:.4f} b3={params.b3:.4f}")


def _load_params(path) -> jod.JodRegressionParams:
    names = ("b1", "b2", "b3")
    _, rows = _rows(path, "jodparams", *names)
    if not rows:
        raise FormatError(f"{path}: jodparams table has no rows")
    return jod.JodRegressionParams(*(_number(path, name, text) for name, text in zip(names, rows[0])))


@main.command("label")
@click.option("--deitp", "deitp_file", type=click.Path(exists=True), help="Table with pair_id/deitp columns.")
@click.option("--params", "params_file", type=click.Path(exists=True), help="Fitted regression parameters.")
@click.option("--from-severity", "pairs_file", type=click.Path(exists=True), help="Pairs index: label via the synthetic severity oracle instead.")
@click.option("--out", type=click.Path(), required=True)
def cmd_label(deitp_file, params_file, pairs_file, out):
    """Assign JOD labels from deitp values or the synthetic severity oracle."""
    if bool(deitp_file) == bool(pairs_file):
        raise click.UsageError("give either --deitp (with --params) or --from-severity")
    if pairs_file:
        _, prows = _rows(pairs_file, "pairs", "pair_id", "severity")
        provenance = preprocess.Provenance.SYNTHETIC_ORACLE.value
        rows = [[pid, preprocess.severity_oracle_jod(_number(pairs_file, "severity", sev)), provenance] for pid, sev in prows]
    else:
        params = _load_params(params_file) if params_file else jod.REFERENCE_PARAMS
        _, drows = _rows(deitp_file, "deitp", "pair_id", "deitp")
        provenance = preprocess.Provenance.PSEUDO_DEITP.value
        rows = [[pid, jod.jod_from_deitp(_number(deitp_file, "deitp", d), params), provenance] for pid, d in drows]
    write_table(out, "labels", LABEL_COLUMNS, rows)
    click.echo(f"labelled {len(rows)} pairs")


@main.command("split")
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--test-material", "test_materials", multiple=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_split(pairs_file, test_materials, seed, out):
    """Hold out test materials and split the rest 80/20 by pair."""
    _, prows = _rows(pairs_file, "pairs", "pair_id", "material")
    splits = preprocess.make_splits([material for _, material in prows], test_materials, seed)
    rows = [[pid, s] for (pid, _), s in zip(prows, splits)]
    write_table(out, "splits", SPLIT_COLUMNS, rows, meta={"seed": seed})
    click.echo(f"split {splits.count('train')}/{splits.count('val')}/{splits.count('test')}")


@main.command("augment")
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--labels", "labels_file", type=click.Path(exists=True), required=True)
@click.option("--splits", "splits_file", type=click.Path(exists=True), required=True)
@click.option("--lo", type=float, default=0.95, show_default=True)
@click.option("--hi", type=float, default=1.05, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_augment(pairs_file, labels_file, splits_file, lo, hi, seed, out_dir):
    """Double the training set by random-scale augmentation of each pair."""
    if lo > hi:
        raise click.UsageError("--lo must be <= --hi")
    out = pathlib.Path(out_dir)
    check_field(out / "pairs.txt", "ref_samples", str(out))
    pairs_meta, prows = _rows(pairs_file, "pairs", *PAIRS_COLUMNS)
    _, lrows = _rows(labels_file, "labels", *LABEL_COLUMNS)
    _, srows = _rows(splits_file, "splits", *SPLIT_COLUMNS)
    prows = [[pid, material, _number(pairs_file, "severity", sev), ref, dist] for pid, material, sev, ref, dist in prows]
    lrows = [[pid, _number(labels_file, "jod", j), provenance] for pid, j, provenance in lrows]
    labels = _ByPair(labels_file, "labels", ((pid, (j, provenance)) for pid, j, provenance in lrows))
    split_of = _ByPair(splits_file, "splits", srows)
    out.mkdir(parents=True, exist_ok=True)
    new_pairs, new_labels, new_splits = list(prows), list(lrows), list(srows)
    train_rows = [(i, r, labels[r[0]]) for i, r in enumerate(prows) if split_of[r[0]] == "train"]
    sampled = read_pairs([r[3:] for _, r, _ in train_rows])
    for (i, (pid, material, severity, _, _), (jod_value, provenance)), (ref, dist) in zip(train_rows, sampled):
        src = preprocess.LabeledPair(ref=ref, dist=dist, jod=jod_value, provenance=preprocess.Provenance(provenance),
                                     material=material)
        aug = preprocess.augment_scale(src, lo=lo, hi=hi, seed=(seed, i))
        aug_id = f"{pid}_s"
        ref_path = out / f"{aug_id}_ref.txt"
        dist_path = out / f"{aug_id}_dist.txt"
        write_samples(ref_path, aug.ref)
        write_samples(dist_path, aug.dist)
        new_pairs.append([aug_id, aug.material, severity, str(ref_path), str(dist_path)])
        new_labels.append([aug_id, aug.jod, aug.provenance.value])
        new_splits.append([aug_id, "train"])
    write_table(out / "pairs.txt", "pairs", PAIRS_COLUMNS, new_pairs, meta=pairs_meta)
    write_table(out / "labels.txt", "labels", LABEL_COLUMNS, new_labels)
    write_table(out / "splits.txt", "splits", SPLIT_COLUMNS, new_splits, meta={"seed": seed})
    click.echo(f"training pairs: {len(prows)} rows -> {len(new_pairs)} rows total")


def _load_dataset(pairs_file, labels_file, splits_file):
    _, prows = _rows(pairs_file, "pairs", "pair_id", "material", "ref_samples", "dist_samples")
    labels = _read_jods(labels_file)
    _, srows = _rows(splits_file, "splits", *SPLIT_COLUMNS)
    split_of = _ByPair(splits_file, "splits", srows)
    dataset = {"train": [], "val": [], "test": []}
    for (pid, material, _, _), (ref, dist) in zip(prows, read_pairs([r[2:] for r in prows])):
        split = split_of[pid]
        if split not in dataset:
            raise FormatError(f"{splits_file}: pair {pid!r} has split {split!r}, want train, val or test")
        dataset[split].append({"pair_id": pid, "material": material, "ref": ref, "dist": dist, "jod": labels[pid]})
    return dataset


@main.command("train")
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--labels", "labels_file", type=click.Path(exists=True), required=True)
@click.option("--splits", "splits_file", type=click.Path(exists=True), required=True)
@click.option("--epochs", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--batch-size", type=click.IntRange(min=1), default=512, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--checkpoint", "checkpoint_path", type=click.Path(), required=True)
@click.option("--history", "history_path", type=click.Path(), required=True)
def cmd_train(pairs_file, labels_file, splits_file, epochs, batch_size, seed, checkpoint_path, history_path):
    """Train the quality network on labelled sampled pairs."""
    from . import nn

    dataset = _load_dataset(pairs_file, labels_file, splits_file)
    train_items, val_items = dataset["train"], dataset["val"]
    if not train_items:
        raise BrdfError("empty training set")
    ref_of_material = {}
    for it in train_items:
        ref_of_material.setdefault(it["material"], it["ref"])
    stats = preprocess.compute_whitening(list(ref_of_material.values()))
    jods = [it["jod"] for it in train_items + val_items]
    jod_min, jod_max = min(jods), max(jods)
    if jod_min == jod_max:
        jod_min, jod_max = jod_min - 0.5, jod_max + 0.5
    k = train_items[0]["ref"].directions.k
    model = nn.init_model(seed, jod_min, jod_max, stats, input_dim=6 * k)
    x_tr = nn.input_matrix(model, [(it["ref"], it["dist"]) for it in train_items])
    x_va = nn.input_matrix(model, [(it["ref"], it["dist"]) for it in val_items])
    y_tr = [it["jod"] for it in train_items]
    y_va = [it["jod"] for it in val_items]
    cfg = nn.TrainConfig(epochs=epochs, batch_size=batch_size, shuffle_seed=seed)
    model, history = nn.train(model, x_tr, y_tr, x_va, y_va, cfg)
    nn.save_checkpoint(model, checkpoint_path)
    write_table(
        history_path,
        "history",
        HISTORY_COLUMNS,
        [[h["epoch"], h["train_loss"], h["val_loss"], h["lr_input"], h["lr_deep"]] for h in history],
        meta={"params": nn.param_count(model), "seed": seed},
    )
    click.echo(f"trained {nn.param_count(model)} parameters; checkpoint at {checkpoint_path}")


@main.command("predict")
@click.option("--checkpoint", "checkpoint_path", type=click.Path(exists=True), required=True)
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), help="Pairs index to score in batch.")
@click.option("--ref", "ref_file", type=click.Path(exists=True), help="Single reference sample file.")
@click.option("--dist", "dist_file", type=click.Path(exists=True), help="Single distorted sample file.")
@click.option("--out", type=click.Path(), help="Output table (required with --pairs).")
def cmd_predict(checkpoint_path, pairs_file, ref_file, dist_file, out):
    """Predict JOD for sampled pairs with a trained checkpoint."""
    single = bool(ref_file or dist_file)
    if single and not (ref_file and dist_file):
        raise click.UsageError("--ref and --dist must be given together")
    if single == bool(pairs_file):
        raise click.UsageError("give either --pairs or --ref/--dist")
    if pairs_file and not out:
        raise click.UsageError("--out is required with --pairs")
    from . import nn

    model = nn.load_checkpoint(checkpoint_path)
    if single:
        ref, dist = read_pair(ref_file, dist_file)
        click.echo(repr(nn.predict_jod(model, ref, dist)))
        return
    _, prows = _rows(pairs_file, "pairs", "pair_id", "ref_samples", "dist_samples")
    jods = nn.predict_jods(model, read_pairs([r[1:] for r in prows]))
    rows = [[pid, float(j)] for (pid, _, _), j in zip(prows, jods)]
    write_table(out, "predictions", ["pair_id", "jod_pred"], rows)
    click.echo(f"scored {len(rows)} pairs")


@main.command("eval-baselines")
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_eval_baselines(pairs_file, out):
    """Compute the eight reference BRDF-space metrics per pair."""
    kinds = list(baselines.MetricKind)
    _, prows = _rows(pairs_file, "pairs", "pair_id", "ref_samples", "dist_samples")
    rows = []
    for (pid, _, _), (ref, dist) in zip(prows, read_pairs([r[1:] for r in prows])):
        metrics = baselines.all_metrics(ref, dist)
        rows.append([pid, *(metrics[k] for k in kinds)])
    write_table(out, "metrics", ["pair_id", *(k.value for k in kinds)], rows)
    click.echo(f"evaluated {len(rows)} pairs x {len(kinds)} metrics")


@main.command("correlate")
@click.option("--metrics", "metrics_file", type=click.Path(exists=True), required=True)
@click.option("--predictions", "predictions_file", type=click.Path(exists=True))
@click.option("--labels", "labels_file", type=click.Path(exists=True), required=True)
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["table", "plot-data"]), default="table", show_default=True)
def cmd_correlate(metrics_file, predictions_file, labels_file, pairs_file, out, fmt):
    """Per-material Spearman of every metric against JOD labels."""
    _, prows = _rows(pairs_file, "pairs", "pair_id", "material")
    material_of = _ByPair(pairs_file, "pairs", prows)
    jod_of = _read_jods(labels_file)

    def scored(path, column, rows):
        return [evaluate.ScoredPair(pair_id=pid, material=material_of[pid], predicted=_number(path, column, text),
                                    ground_truth_jod=jod_of[pid]) for pid, text in rows]

    kinds = [k.value for k in baselines.MetricKind]
    _, mrows = _rows(metrics_file, "metrics", "pair_id", *kinds)
    report_rows = []
    for j, kind in enumerate(kinds, start=1):
        rep = evaluate.correlate_per_material(scored(metrics_file, kind, [(r[0], r[j]) for r in mrows]), sign=-1)
        report_rows.append((kind, rep.average))
    if predictions_file:
        _, qrows = _rows(predictions_file, "predictions", "pair_id", "jod_pred")
        rep = evaluate.correlate_per_material(scored(predictions_file, "jod_pred", qrows), sign=1)
        report_rows.append(("brdf-nqm", rep.average))
    evaluate.emit_report(report_rows, out, fmt=fmt)
    click.echo(f"wrote {len(report_rows)} metric rows to {out}")


if __name__ == "__main__":
    sys.exit(main())
