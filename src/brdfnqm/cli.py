"""Command-line pipeline: synthesize, sample, label, train, score, compare.

All randomness flows from explicit --seed flags; any command rerun with
identical inputs and seeds writes byte-identical outputs. Exit codes:
0 success, 1 runtime/data error, 2 usage error.

Every command runs on numpy and click alone; only ``train`` and ``predict``
import :mod:`brdfnqm.nn`.
"""

from __future__ import annotations

import collections
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
    """(meta, rows) of a table, each row the fields of columns ``names``; a missing column, or a repeated pair_id when ``pair_id`` comes first, is a FormatError."""
    meta, cols, rows = read_table(path, kind)
    for name in names:
        if name not in cols:
            raise FormatError(f"{path}: the {kind} table has no {name!r} column")
    idx = [cols.index(name) for name in names]
    rows = [[r[i] for i in idx] for r in rows]
    if names[0] == "pair_id" and len({r[0] for r in rows}) < len(rows):
        pid = next(pid for pid, n in collections.Counter(r[0] for r in rows).items() if n > 1)
        raise FormatError(f"{path}: pair_id {pid!r} is repeated in the {kind} table")
    return meta, rows


def _number(path, column: str, text: str | float) -> float:
    """The finite float of a table field, or of a value about to be written to one; anything else is a FormatError naming the file and ``column``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{path}: {column} is {text!r}, not a finite number")
    return value


def _jod(path, column: str, text: str) -> float:
    """A JOD field; one that is not a number in [0, 10] is a FormatError naming the file and ``column``."""
    value = _number(path, column, text)
    if not 0.0 <= value <= 10.0:
        raise FormatError(f"{path}: {column} is {value!r}, outside [0, 10]")
    return value


def _deitp(path, column: str, text: str) -> float:
    """A deitp field; one that is not a finite number >= 0 is a FormatError naming the file and ``column``."""
    value = _number(path, column, text)
    if value < 0.0:
        raise FormatError(f"{path}: {column} is {value!r}, below 0")
    return value


def _read_jods(labels_file) -> _ByPair:
    """pair_id -> JOD of a labels table, each read by ``_jod``."""
    _, rows = _rows(labels_file, "labels", "pair_id", "jod")
    return _ByPair(labels_file, "labels", ((pid, _jod(labels_file, f"jod of pair {pid!r}", j)) for pid, j in rows))


def _read_splits(splits_file) -> _ByPair:
    """pair_id -> split of a splits table; a split other than train, val or test is a FormatError."""
    _, rows = _rows(splits_file, "splits", *SPLIT_COLUMNS)
    for pid, split in rows:
        if split not in ("train", "val", "test"):
            raise FormatError(f"{splits_file}: pair {pid!r} has split {split!r}, want train, val or test")
    return _ByPair(splits_file, "splits", rows)


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
    # both check their arguments before anything is made
    check_field(out / "manifest.txt", "ref_path", str(out))
    triples = synth.iter_dataset(n, specs, seed, res=tuple(res))
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    current_ref = None
    for ref, dist, severity in triples:
        li = len(rows) % len(specs)
        if li == 0:
            current_ref = out / f"{ref.name}.binary"
            save_merl(ref, current_ref)
        dist_path = out / f"{ref.name}_l{li:02d}.binary"
        save_merl(dist, dist_path)
        lv = specs[li]
        rows.append([str(current_ref), str(dist_path), float(severity), seed, lv.kind.value, float(lv.magnitude), ref.name])
        # saved: free both before the loop asks for the next triple, whose
        # distortion, or a new material's tabulate, would find them still held
        del ref, dist
    write_table(out / "manifest.txt", "manifest", MANIFEST_COLUMNS, rows, meta={"seed": seed, "n": n})
    click.echo(f"wrote {len(rows)} pairs to {out}/manifest.txt")


@main.command("sample")
@click.option("--manifest", type=click.Path(exists=True), required=True)
@click.option("--k", type=click.IntRange(min=1), default=sampling.DEFAULT_K, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Recorded in the headers; the directions chosen do not depend on it.")
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_sample(manifest, k, seed, out_dir):
    """Sample every manifest pair at directions chosen from its reference."""
    out = pathlib.Path(out_dir)
    check_field(out / "pairs.txt", "ref_samples", str(out))
    _, rows = _rows(manifest, "manifest", "ref_path", "dist_path", "severity", "material")
    rows = [(ref, dist, _number(manifest, "severity", sev), material) for ref, dist, sev, material in rows]
    ref_of: dict[str, str] = {}
    for ref_path, _, _, material in rows:  # one material, one reference, one <material>_ref.txt
        if ref_of.setdefault(material, ref_path) != ref_path:
            raise FormatError(f"{manifest}: material {material!r} names two ref_paths, {ref_of[material]!r} and {ref_path!r}")
    out.mkdir(parents=True, exist_ok=True)
    cands = sampling.build_candidate_grid()
    pair_rows = []
    dirsets: dict[str, tuple] = {}
    counters: dict[str, int] = {}
    for ref_path, dist_path, severity, material in rows:
        if ref_path not in dirsets:
            ref_brdf = load_merl(ref_path)
            ds = sampling.select_samples(ref_brdf, cands, k=k, seed=seed)
            ref_out = out / f"{material}_ref.txt"
            write_samples(ref_out, sampling.sample_brdf(ref_brdf, ds))
            del ref_brdf  # unmaps the table: its read pages leave this process's RSS
            dirsets[ref_path] = (ds, str(ref_out))
        ds, ref_out = dirsets[ref_path]
        li = counters.get(material, 0)
        counters[material] = li + 1
        pair_id = f"{material}_l{li:02d}"
        dist_out = out / f"{pair_id}_dist.txt"
        write_samples(dist_out, sampling.sample_brdf(load_merl(dist_path), ds))
        pair_rows.append([pair_id, material, severity, ref_out, str(dist_out)])
    write_table(out / "pairs.txt", "pairs", PAIRS_COLUMNS, pair_rows, meta={"k": k, "seed": seed})
    click.echo(f"sampled {len(pair_rows)} pairs into {out}")


@main.command("fit-jod")
@click.option("--calibration", type=click.Path(exists=True), required=True, help="Table with deitp/jod columns.")
@click.option("--out", type=click.Path(), required=True)
def cmd_fit_jod(calibration, out):
    """Fit the logistic deitp->JOD regression by Levenberg-Marquardt, starting from the reference parameters."""
    _, rows = _rows(calibration, "calibration", "deitp", "jod")
    points = [jod.CalibrationPoint(deitp=_deitp(calibration, "deitp", d), jod=_jod(calibration, "jod", j)) for d, j in rows]
    params = jod.fit_jod_regression(points, jod.REFERENCE_PARAMS)
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
@click.option("--params", "params_file", type=click.Path(exists=True), help="Fitted regression parameters (with --deitp only).")
@click.option("--from-severity", "pairs_file", type=click.Path(exists=True), help="Pairs index: label via the synthetic severity oracle instead.")
@click.option("--out", type=click.Path(), required=True)
def cmd_label(deitp_file, params_file, pairs_file, out):
    """Assign JOD labels from deitp values or the synthetic severity oracle."""
    if bool(deitp_file) == bool(pairs_file):
        raise click.UsageError("give either --deitp (with --params) or --from-severity")
    if pairs_file and params_file:
        raise click.UsageError("--params goes with --deitp, not --from-severity")
    if pairs_file:
        _, prows = _rows(pairs_file, "pairs", "pair_id", "severity")
        provenance = preprocess.Provenance.SYNTHETIC_ORACLE.value
        rows = [[pid, preprocess.severity_oracle_jod(_number(pairs_file, "severity", sev)), provenance] for pid, sev in prows]
    else:
        params = _load_params(params_file) if params_file else jod.REFERENCE_PARAMS
        _, drows = _rows(deitp_file, "deitp", "pair_id", "deitp")
        provenance = preprocess.Provenance.PSEUDO_DEITP.value
        rows = [[pid, jod.jod_from_deitp(_deitp(deitp_file, f"deitp of pair {pid!r}", d), params), provenance] for pid, d in drows]
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_augment(pairs_file, labels_file, splits_file, seed, out_dir):
    """Double the training set by random-scale augmentation of each pair."""
    out = pathlib.Path(out_dir)
    check_field(out / "pairs.txt", "ref_samples", str(out))
    pairs_meta, prows = _rows(pairs_file, "pairs", *PAIRS_COLUMNS)
    _, lrows = _rows(labels_file, "labels", *LABEL_COLUMNS)
    split_of = _read_splits(splits_file)
    prows = [[pid, material, _number(pairs_file, "severity", sev), ref, dist] for pid, material, sev, ref, dist in prows]
    lrows = [[pid, _jod(labels_file, f"jod of pair {pid!r}", j), provenance] for pid, j, provenance in lrows]
    provenances = [p.value for p in preprocess.Provenance]
    for _, _, provenance in lrows:
        if provenance not in provenances:
            raise FormatError(f"{labels_file}: provenance is {provenance!r}, want one of {', '.join(provenances)}")
    labels = _ByPair(labels_file, "labels", ((pid, j) for pid, j, _ in lrows))
    # (index, row, JOD, id of its scaled copy) of every training pair
    train_rows = [(i, r, labels[r[0]], f"{r[0]}_s") for i, r in enumerate(prows) if split_of[r[0]] == "train"]
    taken = {r[0] for r in prows}.union(labels, split_of)
    for *_, aug_id in train_rows:
        if aug_id in taken:
            raise FormatError(f"{pairs_file}: augment would add pair_id {aug_id!r}, which the input tables already have")
    out.mkdir(parents=True, exist_ok=True)
    new_pairs, new_labels, new_splits = list(prows), list(lrows), [list(r) for r in split_of.items()]
    sampled = read_pairs([r[3:] for _, r, _, _ in train_rows])
    aug_provenance = preprocess.Provenance.AUGMENTED_SCALE.value
    for (i, (_, material, severity, _, _), jod_value, aug_id), (ref, dist) in zip(train_rows, sampled):
        ref_path = out / f"{aug_id}_ref.txt"
        dist_path = out / f"{aug_id}_dist.txt"
        aug_ref, aug_dist = preprocess.augment_scale(ref, dist, seed=(seed, i))
        write_samples(ref_path, aug_ref)
        write_samples(dist_path, aug_dist)
        new_pairs.append([aug_id, material, severity, str(ref_path), str(dist_path)])
        new_labels.append([aug_id, jod_value, aug_provenance])
        new_splits.append([aug_id, "train"])
    write_table(out / "pairs.txt", "pairs", PAIRS_COLUMNS, new_pairs, meta=pairs_meta)
    write_table(out / "labels.txt", "labels", LABEL_COLUMNS, new_labels)
    write_table(out / "splits.txt", "splits", SPLIT_COLUMNS, new_splits, meta={"seed": seed})
    click.echo(f"training pairs: {len(prows)} rows -> {len(new_pairs)} rows total")


def _load_dataset(pairs_file, labels_file, splits_file) -> dict:
    """{"train": columns, "val": columns}, each (materials, sampled pairs, JODs), for `nn.fit`; no test pair's samples are read."""
    _, prows = _rows(pairs_file, "pairs", "pair_id", "material", "ref_samples", "dist_samples")
    labels = _read_jods(labels_file)
    split_of = _read_splits(splits_file)
    used = [r for r in prows if split_of[r[0]] != "test"]
    pair_of = dict(zip((r[0] for r in used), read_pairs([r[2:] for r in used])))
    dataset = {}
    for split in ("train", "val"):
        rows = [r for r in used if split_of[r[0]] == split]
        dataset[split] = ([r[1] for r in rows], [pair_of[r[0]] for r in rows], [labels[r[0]] for r in rows])
    if not dataset["train"][0]:
        raise BrdfError(f"{splits_file}: no pair of {pairs_file} is in the train split")
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

    # the dataset's only reference is fit's argument, so fit frees the sample pairs before training
    model, history = nn.fit(_load_dataset(pairs_file, labels_file, splits_file), epochs, batch_size, seed)
    nn.save_checkpoint(model, checkpoint_path)
    write_table(history_path, "history", HISTORY_COLUMNS, [[h[c] for c in HISTORY_COLUMNS] for h in history],
                meta={"params": model.flat.size, "seed": seed})
    click.echo(f"trained {model.flat.size} parameters; checkpoint at {checkpoint_path}")


@main.command("predict")
@click.option("--checkpoint", "checkpoint_path", type=click.Path(exists=True), required=True)
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), help="Pairs index to score in batch.")
@click.option("--ref", "ref_file", type=click.Path(exists=True), help="Single reference sample file.")
@click.option("--dist", "dist_file", type=click.Path(exists=True), help="Single distorted sample file.")
@click.option("--out", type=click.Path(), help="Output table (with --pairs only, where it is required).")
def cmd_predict(checkpoint_path, pairs_file, ref_file, dist_file, out):
    """Predict JOD for sampled pairs with a trained checkpoint."""
    single = bool(ref_file or dist_file)
    if single and not (ref_file and dist_file):
        raise click.UsageError("--ref and --dist must be given together")
    if single == bool(pairs_file):
        raise click.UsageError("give either --pairs or --ref/--dist")
    if bool(out) != bool(pairs_file):
        raise click.UsageError("--out goes with --pairs, and is required there; --ref/--dist prints the score")
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
        rows.append([pid, *(_number(pairs_file, f"{k.value} of pair {pid!r}", metrics[k]) for k in kinds)])
    write_table(out, "metrics", ["pair_id", *(k.value for k in kinds)], rows)
    click.echo(f"evaluated {len(rows)} pairs x {len(kinds)} metrics")


@main.command("correlate")
@click.option("--metrics", "metrics_file", type=click.Path(exists=True), required=True)
@click.option("--predictions", "predictions_file", type=click.Path(exists=True))
@click.option("--labels", "labels_file", type=click.Path(exists=True), required=True)
@click.option("--pairs", "pairs_file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_correlate(metrics_file, predictions_file, labels_file, pairs_file, out):
    """Per-material Spearman of every metric against JOD labels."""
    _, prows = _rows(pairs_file, "pairs", "pair_id", "material")
    material_of = _ByPair(pairs_file, "pairs", prows)
    jod_of = _read_jods(labels_file)

    def averages(path, rows, columns, sign):
        """Average per-material Spearman of each of a table's score ``columns``; each pair's material and JOD are looked up once."""
        materials, truth = [material_of[r[0]] for r in rows], [jod_of[r[0]] for r in rows]
        return [evaluate.correlate_per_material(materials, [_number(path, column, r[j]) for r in rows], truth, sign=sign).average
                for j, column in enumerate(columns, start=1)]

    kinds = [k.value for k in baselines.MetricKind]
    _, metric_rows = _rows(metrics_file, "metrics", "pair_id", *kinds)
    report_rows = list(zip(kinds, averages(metrics_file, metric_rows, kinds, sign=-1)))
    if predictions_file:
        _, pred_rows = _rows(predictions_file, "predictions", "pair_id", "jod_pred")
        only_one = {r[0] for r in metric_rows} ^ {r[0] for r in pred_rows}
        if only_one:
            raise BrdfError(f"{metrics_file} and {predictions_file} score different pairs: {min(only_one)!r} is in only one of them")
        report_rows += zip(["brdf-nqm"], averages(predictions_file, pred_rows, ["jod_pred"], sign=1))
    evaluate.emit_report(report_rows, out)
    click.echo(f"wrote {len(report_rows)} metric rows to {out}")


if __name__ == "__main__":
    sys.exit(main())
