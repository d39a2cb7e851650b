"""Command-line pipeline: synthesize, sample, label, train, score, compare.

All randomness flows from explicit --seed flags; any command rerun with
identical inputs and seeds writes byte-identical outputs. Exit codes:
0 success, 1 runtime/data error, 2 usage error.

Only ``train`` and ``predict`` import :mod:`brdfnqm.nn` (and with it
``scipy.special``), so every other command starts with numpy and click alone.
"""

from __future__ import annotations

import pathlib
import sys

import click
import numpy as np

from . import baselines, evaluate, jod, preprocess, sampling, synth
from .errors import BrdfError, FormatError
from .merl import CANONICAL_RES, load_merl, save_merl
from .pairio import read_pair, read_pairs, write_samples
from .tables import read_table, write_table

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

    def __init__(self, path, kind: str, items=()):
        super().__init__(items)
        self.path, self.kind = path, kind

    def __missing__(self, pid):
        raise BrdfError(f"{self.path}: pair {pid!r} is missing from the {self.kind} table")


def _by_pair(path, kind: str, cols, rows, column: str | None = None) -> _ByPair:
    """pair_id -> ``column`` of each table row (the whole row when column is None)."""
    i_id = cols.index("pair_id")
    i_val = None if column is None else cols.index(column)
    return _ByPair(path, kind, ((r[i_id], r if i_val is None else r[i_val]) for r in rows))


def _read_sampled_pairs(pcols, prows):
    """The (ref, dist) SampledBrdf pairs of pairs-table rows, in row order."""
    i_ref, i_dist = pcols.index("ref_samples"), pcols.index("dist_samples")
    return read_pairs([(r[i_ref], r[i_dist]) for r in prows])


def _read_jods(labels_file) -> _ByPair:
    """pair_id -> JOD of a labels table; a malformed or non-finite JOD is a FormatError."""
    _, cols, rows = read_table(labels_file, "labels")
    i_id, i_jod = cols.index("pair_id"), cols.index("jod")
    jods = _ByPair(labels_file, "labels")
    for r in rows:
        try:
            value = float(r[i_jod])
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise FormatError(f"{labels_file}: JOD {r[i_jod]!r} of pair {r[i_id]!r} is not a finite number")
        jods[r[i_id]] = value
    return jods


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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--grid", nargs=3, type=click.IntRange(min=2), default=sampling.DEFAULT_GRID, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_sample(manifest, k, seed, grid, out_dir):
    """Sample every manifest pair at directions chosen from its reference."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, _, rows = read_table(manifest, "manifest")
    cands = sampling.build_candidate_grid(*grid)
    pair_rows = []
    dirsets: dict[str, tuple] = {}
    counters: dict[str, int] = {}
    for r in rows:
        ref_path, dist_path, severity, _, _, _, material = r
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
        pair_rows.append([pair_id, material, float(severity), ref_out, str(dist_out)])
    write_table(out / "pairs.txt", "pairs", PAIRS_COLUMNS, pair_rows, meta={"k": k, "seed": seed})
    click.echo(f"sampled {len(pair_rows)} pairs into {out}")


@main.command("fit-jod")
@click.option("--calibration", type=click.Path(exists=True), required=True, help="Table with deitp/jod columns.")
@click.option("--init", nargs=3, type=float, default=(jod.REFERENCE_PARAMS.b1, jod.REFERENCE_PARAMS.b2, jod.REFERENCE_PARAMS.b3), show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_fit_jod(calibration, init, out):
    """Fit the logistic deitp->JOD regression by Levenberg-Marquardt."""
    _, cols, rows = read_table(calibration, "calibration")
    points = [
        jod.CalibrationPoint(deitp=float(r[cols.index("deitp")]), jod=float(r[cols.index("jod")]))
        for r in rows
    ]
    params = jod.fit_jod_regression(points, jod.JodRegressionParams(*init))
    write_table(out, "jodparams", ["b1", "b2", "b3"], [[params.b1, params.b2, params.b3]])
    click.echo(f"fitted b1={params.b1:.4f} b2={params.b2:.4f} b3={params.b3:.4f}")


def _load_params(path) -> jod.JodRegressionParams:
    _, cols, rows = read_table(path, "jodparams")
    if not rows:
        raise FormatError(f"{path}: jodparams table has no rows")
    r = rows[0]
    return jod.JodRegressionParams(*(float(r[cols.index(k)]) for k in ("b1", "b2", "b3")))


@main.command("label")
@click.option("--deitp", "deitp_file", type=click.Path(exists=True), help="Table with pair_id/deitp columns.")
@click.option("--params", "params_file", type=click.Path(exists=True), help="Fitted regression parameters.")
@click.option("--from-severity", "pairs_file", type=click.Path(exists=True), help="Pairs index: label via the synthetic severity oracle instead.")
@click.option("--out", type=click.Path(), required=True)
def cmd_label(deitp_file, params_file, pairs_file, out):
    """Assign JOD labels from deitp values or the synthetic severity oracle."""
    if bool(deitp_file) == bool(pairs_file):
        raise click.UsageError("give either --deitp (with --params) or --from-severity")
    rows = []
    if pairs_file:
        _, cols, prows = read_table(pairs_file, "pairs")
        for r in prows:
            sev = float(r[cols.index("severity")])
            rows.append([r[cols.index("pair_id")], preprocess.severity_oracle_jod(sev), preprocess.Provenance.SYNTHETIC_ORACLE.value])
    else:
        params = _load_params(params_file) if params_file else jod.REFERENCE_PARAMS
        _, cols, drows = read_table(deitp_file, "deitp")
        labelled = jod.label_dataset(
            [(r[cols.index("pair_id")], float(r[cols.index("deitp")])) for r in drows], params
        )
        rows = [[pid, value, preprocess.Provenance.PSEUDO_DEITP.value] for pid, value in labelled]
    write_table(out, "labels", LABEL_COLUMNS, rows)
    click.echo(f"labelled {len(rows)} pairs")


@main.command("split")
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--test-material", "test_materials", multiple=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_split(pairs_file, test_materials, seed, out):
    """Hold out test materials and split the rest 80/20 by pair."""
    _, cols, prows = read_table(pairs_file, "pairs")
    splits = preprocess.make_splits([r[cols.index("material")] for r in prows], test_materials, seed)
    rows = [[r[cols.index("pair_id")], s] for r, s in zip(prows, splits)]
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
    out.mkdir(parents=True, exist_ok=True)
    pairs_meta, pcols, prows = read_table(pairs_file, "pairs")
    _, lcols, lrows = read_table(labels_file, "labels")
    _, scols, srows = read_table(splits_file, "splits")
    labels = _by_pair(labels_file, "labels", lcols, lrows)
    split_of = _by_pair(splits_file, "splits", scols, srows, "split")
    new_pairs, new_labels, new_splits = list(prows), list(lrows), list(srows)
    train_rows = [(i, r) for i, r in enumerate(prows) if split_of[r[pcols.index("pair_id")]] == "train"]
    sampled = _read_sampled_pairs(pcols, [r for _, r in train_rows])
    for (i, r), (ref, dist) in zip(train_rows, sampled):
        pid = r[pcols.index("pair_id")]
        src = preprocess.LabeledPair(
            ref=ref, dist=dist, jod=float(labels[pid][lcols.index("jod")]),
            provenance=preprocess.Provenance(labels[pid][lcols.index("provenance")]),
            material=r[pcols.index("material")],
        )
        aug = preprocess.augment_scale(src, lo=lo, hi=hi, seed=(seed, i))
        aug_id = f"{pid}_s"
        ref_path = out / f"{aug_id}_ref.txt"
        dist_path = out / f"{aug_id}_dist.txt"
        write_samples(ref_path, aug.ref)
        write_samples(dist_path, aug.dist)
        new_pairs.append([aug_id, aug.material, r[pcols.index("severity")], str(ref_path), str(dist_path)])
        new_labels.append([aug_id, aug.jod, aug.provenance.value])
        new_splits.append([aug_id, "train"])
    write_table(out / "pairs.txt", "pairs", PAIRS_COLUMNS, new_pairs, meta=pairs_meta)
    write_table(out / "labels.txt", "labels", LABEL_COLUMNS, new_labels)
    write_table(out / "splits.txt", "splits", SPLIT_COLUMNS, new_splits, meta={"seed": seed})
    click.echo(f"training pairs: {len(prows)} rows -> {len(new_pairs)} rows total")


def _load_dataset(pairs_file, labels_file, splits_file):
    _, pcols, prows = read_table(pairs_file, "pairs")
    labels = _read_jods(labels_file)
    _, scols, srows = read_table(splits_file, "splits")
    split_of = _by_pair(splits_file, "splits", scols, srows, "split")
    dataset = {"train": [], "val": [], "test": []}
    for r, (ref, dist) in zip(prows, _read_sampled_pairs(pcols, prows)):
        pid = r[pcols.index("pair_id")]
        split = split_of[pid]
        if split not in dataset:
            raise FormatError(f"{splits_file}: pair {pid!r} has split {split!r}, want train, val or test")
        dataset[split].append(
            {"pair_id": pid, "material": r[pcols.index("material")], "ref": ref, "dist": dist, "jod": labels[pid]}
        )
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
    y_tr = np.array([it["jod"] for it in train_items])
    y_va = np.array([it["jod"] for it in val_items])
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
    _, pcols, prows = read_table(pairs_file, "pairs")
    jods = nn.predict_jods(model, _read_sampled_pairs(pcols, prows))
    rows = [[r[pcols.index("pair_id")], float(j)] for r, j in zip(prows, jods)]
    write_table(out, "predictions", ["pair_id", "jod_pred"], rows)
    click.echo(f"scored {len(rows)} pairs")


@main.command("eval-baselines")
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_eval_baselines(pairs_file, out):
    """Compute the eight reference BRDF-space metrics per pair."""
    kinds = list(baselines.MetricKind)
    _, pcols, prows = read_table(pairs_file, "pairs")
    rows = []
    for r, (ref, dist) in zip(prows, _read_sampled_pairs(pcols, prows)):
        metrics = baselines.all_metrics(ref, dist)
        rows.append([r[pcols.index("pair_id")], *(metrics[k] for k in kinds)])
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
    _, pcols, prows = read_table(pairs_file, "pairs")
    material_of = _by_pair(pairs_file, "pairs", pcols, prows, "material")
    jod_of = _read_jods(labels_file)

    def scored(rows_, cols_, column):
        i_id, i_score = cols_.index("pair_id"), cols_.index(column)
        return [
            evaluate.ScoredPair(
                pair_id=r[i_id],
                material=material_of[r[i_id]],
                predicted=float(r[i_score]),
                ground_truth_jod=jod_of[r[i_id]],
            )
            for r in rows_
        ]

    report_rows = []
    _, mcols, mrows = read_table(metrics_file, "metrics")
    for kind in baselines.MetricKind:
        rep = evaluate.correlate_per_material(scored(mrows, mcols, kind.value), sign=-1)
        report_rows.append((kind.value, rep.average))
    if predictions_file:
        _, qcols, qrows = read_table(predictions_file, "predictions")
        rep = evaluate.correlate_per_material(scored(qrows, qcols, "jod_pred"), sign=1)
        report_rows.append(("brdf-nqm", rep.average))
    evaluate.emit_report(report_rows, out, fmt=fmt)
    click.echo(f"wrote {len(report_rows)} metric rows to {out}")


if __name__ == "__main__":
    sys.exit(main())
