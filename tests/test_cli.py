import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from brdfnqm import cli
from brdfnqm.tables import read_table, write_table

RES = ["--res", "12", "8", "16"]
GRID = ["--grid", "10", "6", "6"]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def _run(runner, args, expect=0):
    result = runner.invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, runner):
    """One small end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    tables_dir = root / "tables"
    samples_dir = root / "samples"
    _run(runner, [
        "gen-synthetic", "--n", "3",
        "--level", "spec:0.2", "--level", "spec:0.5", "--level", "spec:1.0",
        "--seed", "1", "--out-dir", str(tables_dir), *RES,
    ])
    _run(runner, [
        "sample", "--manifest", str(tables_dir / "manifest.txt"),
        "--k", "40", "--seed", "2", *GRID, "--out-dir", str(samples_dir),
    ])
    _run(runner, [
        "label", "--from-severity", str(samples_dir / "pairs.txt"),
        "--out", str(root / "labels.txt"),
    ])
    _run(runner, [
        "split", "--pairs", str(samples_dir / "pairs.txt"),
        "--test-material", "mat002", "--seed", "3", "--out", str(root / "splits.txt"),
    ])
    return root


def test_gen_synthetic_outputs(pipeline):
    meta, cols, rows = read_table(pipeline / "tables" / "manifest.txt", "manifest")
    assert cols == cli.MANIFEST_COLUMNS
    assert len(rows) == 9  # 3 materials x 3 levels
    assert meta["n"] == "3"
    severities = sorted({float(r[cols.index("severity")]) for r in rows})
    assert severities == pytest.approx([0.2, 0.5, 1.0])
    for r in rows:
        assert (pipeline / "tables").joinpath(r[0].rsplit("/", 1)[-1]).exists()


def test_gen_synthetic_usage_errors(runner, tmp_path):
    result = runner.invoke(cli.main, ["gen-synthetic", "--n", "1", "--level", "wobble:0.1", "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert "bad level spec" in result.output
    result = runner.invoke(cli.main, ["gen-synthetic", "--n", "1", "--level", "spec:0.1", "--seed", "-1", "--out-dir", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("command, bad", [
    ("gen-synthetic", ["--n", "0"]),
    ("gen-synthetic", ["--res", "0", "8", "16"]),
    ("sample", ["--k", "0"]),
    ("sample", ["--k", "-3"]),
    ("sample", ["--grid", "1", "16", "16"]),
    ("train", ["--epochs", "0"]),
    ("train", ["--batch-size", "0"]),
], ids=["n-0", "res-0", "k-0", "k-neg", "grid-1", "epochs-0", "batch-size-0"])
def test_nonpositive_counts_are_usage_errors(runner, tmp_path, pipeline, command, bad):
    """Refused while parsing the options: nothing is read, made or written."""
    out = tmp_path / "out"
    args = {
        "gen-synthetic": ["--n", "1", "--level", "spec:0.1", *RES, "--out-dir", str(out)],
        "sample": ["--manifest", str(pipeline / "tables" / "manifest.txt"), "--k", "5", *GRID, "--out-dir", str(out)],
        "train": _train_args(pipeline / "samples" / "pairs.txt", pipeline / "labels.txt", pipeline / "splits.txt", out),
    }[command]
    result = runner.invoke(cli.main, [command, *args, *bad])
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output
    assert not out.exists()


def test_sample_outputs(pipeline):
    meta, cols, rows = read_table(pipeline / "samples" / "pairs.txt", "pairs")
    assert cols == cli.PAIRS_COLUMNS
    assert len(rows) == 9
    assert meta["k"] == "40"
    # every referenced sample file exists and has k rows
    for r in rows:
        for col in ("ref_samples", "dist_samples"):
            _, scols, srows = read_table(r[cols.index(col)], "samples")
            assert len(srows) == 40


def test_label_from_severity(pipeline):
    _, cols, rows = read_table(pipeline / "labels.txt", "labels")
    assert cols == cli.LABEL_COLUMNS
    assert len(rows) == 9
    jods = {r[0]: float(r[1]) for r in rows}
    # severity 1.0 -> JOD 0; severity 0.2 -> JOD 8
    assert jods["mat000_l02"] == pytest.approx(0.0)
    assert jods["mat000_l00"] == pytest.approx(8.0)
    assert all(r[2] == "synthetic" for r in rows)


def test_split_holds_out_material(pipeline):
    _, cols, rows = read_table(pipeline / "splits.txt", "splits")
    assert cols == cli.SPLIT_COLUMNS
    split_of = {r[0]: r[1] for r in rows}
    for pid, s in split_of.items():
        if pid.startswith("mat002"):
            assert s == "test"
        else:
            assert s in ("train", "val")
    n_train = sum(1 for s in split_of.values() if s == "train")
    n_val = sum(1 for s in split_of.values() if s == "val")
    assert n_train == round(0.8 * 6) and n_train + n_val == 6


def test_augment_doubles_training_rows(pipeline, runner, tmp_path):
    out = tmp_path / "aug"
    _run(runner, [
        "augment",
        "--pairs", str(pipeline / "samples" / "pairs.txt"),
        "--labels", str(pipeline / "labels.txt"),
        "--splits", str(pipeline / "splits.txt"),
        "--seed", "4", "--out-dir", str(out),
    ])
    _, cols, rows = read_table(out / "pairs.txt", "pairs")
    _, scols, srows = read_table(out / "splits.txt", "splits")
    split_of = {r[0]: r[1] for r in srows}
    n_train_before = sum(1 for r in srows if not r[0].endswith("_s") and r[1] == "train")
    n_aug = sum(1 for r in rows if r[0].endswith("_s"))
    assert n_aug == n_train_before
    assert all(split_of[r[0]] == "train" for r in rows if r[0].endswith("_s"))
    # labels carried over unchanged for the scaled copies
    _, lcols, lrows = read_table(out / "labels.txt", "labels")
    jod_of = {r[0]: float(r[1]) for r in lrows}
    for r in rows:
        if r[0].endswith("_s"):
            assert jod_of[r[0]] == pytest.approx(jod_of[r[0][:-2]])
    # row i of the input pairs is scaled by a draw keyed by (seed, i)
    scaled = {r[0][:-2]: r for r in rows if r[0].endswith("_s")}
    _, _, src_rows = read_table(pipeline / "samples" / "pairs.txt", "pairs")
    for i, src in enumerate(src_rows):
        if src[0] in scaled:
            factor = np.random.default_rng((4, i)).uniform(0.95, 1.05)
            for col in ("ref_samples", "dist_samples"):
                _, _, before = read_table(src[cols.index(col)], "samples")
                _, _, after = read_table(scaled[src[0]][cols.index(col)], "samples")
                np.testing.assert_allclose(
                    np.array(after, dtype=float)[:, 5:], factor * np.array(before, dtype=float)[:, 5:], rtol=1e-15)


def test_train_predict_correlate(pipeline, runner, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    hist = tmp_path / "history.txt"
    _run(runner, [
        "train",
        "--pairs", str(pipeline / "samples" / "pairs.txt"),
        "--labels", str(pipeline / "labels.txt"),
        "--splits", str(pipeline / "splits.txt"),
        "--epochs", "3", "--batch-size", "4", "--seed", "5",
        "--checkpoint", str(ckpt), "--history", str(hist),
    ])
    meta, cols, rows = read_table(hist, "history")
    assert cols == cli.HISTORY_COLUMNS
    assert len(rows) == 3

    preds = tmp_path / "preds.txt"
    _run(runner, [
        "predict", "--checkpoint", str(ckpt),
        "--pairs", str(pipeline / "samples" / "pairs.txt"), "--out", str(preds),
    ])
    _, pcols, prows = read_table(preds, "predictions")
    assert len(prows) == 9
    assert all(0.0 <= float(r[1]) <= 10.0 for r in prows)

    # single-pair mode prints one float
    _, scols, srows = read_table(pipeline / "samples" / "pairs.txt", "pairs")
    r0 = srows[0]
    result = _run(runner, [
        "predict", "--checkpoint", str(ckpt),
        "--ref", r0[scols.index("ref_samples")], "--dist", r0[scols.index("dist_samples")],
    ])
    v = float(result.output.strip())
    batch_v = float(prows[0][1])
    assert v == pytest.approx(batch_v, abs=1e-6)

    metrics = tmp_path / "metrics.txt"
    _run(runner, ["eval-baselines", "--pairs", str(pipeline / "samples" / "pairs.txt"), "--out", str(metrics)])
    _, mcols, mrows = read_table(metrics, "metrics")
    assert len(mcols) == 9 and len(mrows) == 9

    report = tmp_path / "report.txt"
    _run(runner, [
        "correlate", "--metrics", str(metrics), "--predictions", str(preds),
        "--labels", str(pipeline / "labels.txt"),
        "--pairs", str(pipeline / "samples" / "pairs.txt"),
        "--out", str(report),
    ])
    text = report.read_text()
    assert "brdf-nqm" in text
    # monotone specular-scale family: every baseline separates it perfectly
    _, _, rrows_ = read_table(metrics, "metrics")
    for line in text.splitlines()[2:]:
        name, rho = line.split()
        if name != "brdf-nqm":
            assert float(rho) == pytest.approx(1.0)


def test_predict_usage_errors(runner, tmp_path, pipeline):
    result = runner.invoke(cli.main, ["predict", "--checkpoint", str(pipeline / "labels.txt")])
    assert result.exit_code == 2  # neither --pairs nor --ref/--dist


def test_fit_jod_roundtrip(runner, tmp_path):
    from brdfnqm.jod import REFERENCE_PARAMS, jod_from_deitp

    d = np.linspace(0.1, 30.0, 25)
    rows = [[f"p{i}", float(x), float(jod_from_deitp(x))] for i, x in enumerate(d)]
    calib = tmp_path / "calib.txt"
    write_table(calib, "calibration", ["pair_id", "deitp", "jod"], rows)
    out = tmp_path / "params.txt"
    _run(runner, [
        "fit-jod", "--calibration", str(calib),
        "--init", "-10.0", "-0.3", "-0.3", "--out", str(out),
    ])
    _, cols, prow = read_table(out, "jodparams")
    fitted = [float(v) for v in prow[0]]
    np.testing.assert_allclose(fitted, REFERENCE_PARAMS.as_array(), rtol=1e-3)

    result = runner.invoke(cli.main, ["fit-jod", "--calibration", str(out), "--out", str(tmp_path / "x.txt")])
    assert result.exit_code == 1  # wrong table kind -> runtime error


@pytest.mark.parametrize("deitp", [[1.0, 2.0], [1.0, 1.0, 2.0]], ids=["two-rows", "duplicate-deitp"])
def test_fit_jod_too_few_distinct_points_is_runtime_error(runner, tmp_path, deitp):
    calib = tmp_path / "calib.txt"
    write_table(calib, "calibration", ["pair_id", "deitp", "jod"], [[f"p{i}", d, 5.0] for i, d in enumerate(deitp)])
    result = runner.invoke(cli.main, ["fit-jod", "--calibration", str(calib), "--out", str(tmp_path / "params.txt")])
    _assert_one_line_error(result, "at least 3")
    assert not (tmp_path / "params.txt").exists()


def test_label_usage_error(runner, tmp_path, pipeline):
    result = runner.invoke(cli.main, ["label", "--out", str(tmp_path / "x.txt")])
    assert result.exit_code == 2


def test_label_with_empty_params_table_is_runtime_error(runner, tmp_path):
    deitp = tmp_path / "deitp.txt"
    write_table(deitp, "deitp", ["pair_id", "deitp"], [["p0", 1.5]])
    params = tmp_path / "params.txt"
    write_table(params, "jodparams", ["b1", "b2", "b3"], [])
    result = runner.invoke(cli.main, [
        "label", "--deitp", str(deitp), "--params", str(params), "--out", str(tmp_path / "labels.txt"),
    ])
    _assert_one_line_error(result, "params.txt", "no rows")
    assert not (tmp_path / "labels.txt").exists()


def test_corrupt_manifest_is_runtime_error(runner, tmp_path):
    bad = tmp_path / "manifest.txt"
    bad.write_text("garbage\n")
    result = runner.invoke(cli.main, [
        "sample", "--manifest", str(bad), "--out-dir", str(tmp_path / "o"), "--k", "5",
    ])
    assert result.exit_code == 1


def _correlate_args(pairs, labels, metrics, out):
    return ["correlate", "--metrics", str(metrics), "--labels", str(labels),
            "--pairs", str(pairs), "--out", str(out)]


def _assert_one_line_error(result, *fragments):
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("command, table", [
    (["gen-synthetic", "--n", "1", "--level", "spec:0.5", *RES], "manifest.txt"),
    (["sample", "--manifest", "{root}/tables/manifest.txt", "--k", "5", *GRID], "pairs.txt"),
    (["augment", "--pairs", "{root}/samples/pairs.txt", "--labels", "{root}/labels.txt", "--splits", "{root}/splits.txt"], "pairs.txt"),
])
def test_out_dir_with_a_space_is_runtime_error(runner, tmp_path, pipeline, command, table):
    """A path with a space would split into two fields of the written table,
    so the command refuses to write a table it could not read back."""
    out = tmp_path / "my out"
    args = [a.format(root=pipeline) for a in command]
    result = runner.invoke(cli.main, [*args, "--out-dir", str(out)])
    _assert_one_line_error(result, table, "holds whitespace")
    assert not out.exists()  # refused before the directory is made


def test_sample_nan_table_is_runtime_error(runner, tmp_path):
    tables = tmp_path / "t"
    _run(runner, ["gen-synthetic", "--n", "1", "--level", "spec:0.5", "--out-dir", str(tables), *RES])
    dist = tables / "mat000_l00.binary"
    payload = bytearray(dist.read_bytes())
    payload[12:20] = np.array([np.nan], dtype="<f8").tobytes()
    dist.write_bytes(bytes(payload))
    result = runner.invoke(cli.main, [
        "sample", "--manifest", str(tables / "manifest.txt"), "--k", "5", *GRID, "--out-dir", str(tmp_path / "s"),
    ])
    _assert_one_line_error(result, "mat000_l00.binary", "NaN")


def _pairs_with_bad_dist(pipeline, tmp_path, token):
    """A copy of the pipeline's pairs table whose first dist file has ``token`` as one value."""
    meta, cols, rows = read_table(pipeline / "samples" / "pairs.txt", "pairs")
    src = rows[0][cols.index("dist_samples")]
    smeta, scols, srows = read_table(src, "samples")
    srows[3][scols.index("g")] = token
    bad = tmp_path / "bad_dist.txt"
    write_table(bad, "samples", scols, srows, meta=smeta)
    rows[0][cols.index("dist_samples")] = str(bad)
    pairs = tmp_path / "pairs.txt"
    write_table(pairs, "pairs", cols, rows, meta=meta)
    return pairs


def _train_args(pairs, labels, splits, out_dir):
    return ["train", "--pairs", str(pairs), "--labels", str(labels), "--splits", str(splits),
            "--epochs", "1", "--batch-size", "4",
            "--checkpoint", str(out_dir / "m.ckpt"), "--history", str(out_dir / "h.txt")]


def test_train_nan_samples_is_runtime_error(pipeline, runner, tmp_path):
    pairs = _pairs_with_bad_dist(pipeline, tmp_path, "nan")
    result = runner.invoke(cli.main, _train_args(pairs, pipeline / "labels.txt", pipeline / "splits.txt", tmp_path))
    _assert_one_line_error(result, "bad_dist.txt", "NaN")


@pytest.fixture(scope="module")
def checkpoint(pipeline, runner, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    _run(runner, _train_args(pipeline / "samples" / "pairs.txt", pipeline / "labels.txt", pipeline / "splits.txt", out))
    return out / "m.ckpt"


def test_predict_with_overflowing_checkpoint_is_runtime_error(pipeline, runner, tmp_path, checkpoint):
    """One W0 row of 3e38 loads, but the scores come out NaN: refused, no table written."""
    from brdfnqm import nn

    model = nn.load_checkpoint(checkpoint)
    model.weights[0][2] = 3e38
    ckpt = tmp_path / "overflow.ckpt"
    nn.save_checkpoint(model, ckpt)
    preds = tmp_path / "p.txt"
    result = runner.invoke(cli.main, [
        "predict", "--checkpoint", str(ckpt), "--pairs", str(pipeline / "samples" / "pairs.txt"), "--out", str(preds),
    ])
    _assert_one_line_error(result, "9 of 9 pairs", "NaN or infinite")
    assert not preds.exists()


def test_malformed_sample_number_is_runtime_error(pipeline, runner, tmp_path, checkpoint):
    pairs = _pairs_with_bad_dist(pipeline, tmp_path, "0.1x")
    for args in (
        ["predict", "--checkpoint", str(checkpoint), "--pairs", str(pairs), "--out", str(tmp_path / "p.txt")],
        ["eval-baselines", "--pairs", str(pairs), "--out", str(tmp_path / "m.txt")],
        _train_args(pairs, pipeline / "labels.txt", pipeline / "splits.txt", tmp_path),
    ):
        _assert_one_line_error(runner.invoke(cli.main, args), "bad_dist.txt", "0.1x")


@pytest.mark.parametrize("token", ["nan", "-inf", "high"])
def test_non_finite_label_is_runtime_error(pipeline, runner, tmp_path, token):
    _, cols, rows = read_table(pipeline / "labels.txt", "labels")
    rows[0][cols.index("jod")] = token
    labels = tmp_path / "labels.txt"
    write_table(labels, "labels", cols, rows)
    result = runner.invoke(cli.main, _train_args(pipeline / "samples" / "pairs.txt", labels, pipeline / "splits.txt", tmp_path))
    _assert_one_line_error(result, "labels.txt", repr(token), rows[0][cols.index("pair_id")])
    assert not (tmp_path / "m.ckpt").exists()
    metrics = tmp_path / "metrics.txt"
    _run(runner, ["eval-baselines", "--pairs", str(pipeline / "samples" / "pairs.txt"), "--out", str(metrics)])
    result = runner.invoke(cli.main, _correlate_args(
        pipeline / "samples" / "pairs.txt", labels, metrics, tmp_path / "report.txt"))
    _assert_one_line_error(result, "labels.txt", repr(token))


def test_cli_import_loads_no_scipy(tmp_path):
    """Only train/predict (scipy.special) and rough: levels (scipy.ndimage)
    need scipy: importing the CLI, or running gen-synthetic with every other
    kind of level, loads no scipy module."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    code = f"import sys, brdfnqm.cli; {report}"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    levels = ["--level", "spec:0.3", "--level", "tint:0.2", "--level", "noise:0.01"]
    gen = ["gen-synthetic", "--n", "1", *levels, *RES, "--out-dir", str(tmp_path)]
    code = (
        "import sys\nfrom brdfnqm import cli\n"
        f"cli.main({gen!r}, standalone_mode=False)\n{report}"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "mat000_l02.binary").exists()


def test_correlate_single_variant_material_is_runtime_error(pipeline, runner, tmp_path):
    meta, cols, rows = read_table(pipeline / "samples" / "pairs.txt", "pairs")
    kept = [r for r in rows if r[cols.index("material")] != "mat001" or r[0] == "mat001_l00"]
    pairs = tmp_path / "pairs.txt"
    write_table(pairs, "pairs", cols, kept, meta=meta)
    metrics = tmp_path / "metrics.txt"
    _run(runner, ["eval-baselines", "--pairs", str(pairs), "--out", str(metrics)])
    result = runner.invoke(cli.main, _correlate_args(
        pairs, pipeline / "labels.txt", metrics, tmp_path / "report.txt"))
    _assert_one_line_error(result, "'mat001'", "at least 2")


def test_correlate_unlabelled_pair_is_runtime_error(pipeline, runner, tmp_path):
    pairs = pipeline / "samples" / "pairs.txt"
    metrics = tmp_path / "metrics.txt"
    _run(runner, ["eval-baselines", "--pairs", str(pairs), "--out", str(metrics)])
    _, cols, rows = read_table(pipeline / "labels.txt", "labels")
    labels = tmp_path / "labels.txt"
    write_table(labels, "labels", cols, [r for r in rows if r[0] != "mat001_l01"])
    result = runner.invoke(cli.main, _correlate_args(
        pairs, labels, metrics, tmp_path / "report.txt"))
    _assert_one_line_error(result, "'mat001_l01'", "labels")


def _sample_with_bad_severity(pipeline, tmp_path):
    meta, cols, rows = read_table(pipeline / "tables" / "manifest.txt", "manifest")
    rows[0][cols.index("severity")] = "high"
    manifest = tmp_path / "manifest.txt"
    write_table(manifest, "manifest", cols, rows, meta=meta)
    return ["sample", "--manifest", str(manifest), "--k", "5", *GRID, "--out-dir", str(tmp_path / "s")], "'high'"


def _split_without_material_column(pipeline, tmp_path):
    meta, cols, rows = read_table(pipeline / "samples" / "pairs.txt", "pairs")
    keep = [i for i, c in enumerate(cols) if c != "material"]
    pairs = tmp_path / "pairs.txt"
    write_table(pairs, "pairs", [cols[i] for i in keep], [[r[i] for i in keep] for r in rows], meta=meta)
    return ["split", "--pairs", str(pairs), "--out", str(tmp_path / "splits.txt")], "'material'"


def _split_with_absent_test_material(pipeline, tmp_path):
    return ["split", "--pairs", str(pipeline / "samples" / "pairs.txt"), "--test-material", "mat002",
            "--test-material", "nosuch", "--out", str(tmp_path / "splits.txt")], "'nosuch'"


def _train_with_unknown_split_name(pipeline, tmp_path):
    _, cols, rows = read_table(pipeline / "splits.txt", "splits")
    rows[0][cols.index("split")] = "holdout"
    splits = tmp_path / "splits.txt"
    write_table(splits, "splits", cols, rows)
    return _train_args(pipeline / "samples" / "pairs.txt", pipeline / "labels.txt", splits, tmp_path), "'holdout'", "splits.txt"


def _out_dir_is_a_file(command):
    def args(pipeline, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        inputs = {
            "gen-synthetic": ["--n", "1", "--level", "spec:0.5", *RES],
            "sample": ["--manifest", str(pipeline / "tables" / "manifest.txt"), "--k", "5", *GRID],
            "augment": ["--pairs", str(pipeline / "samples" / "pairs.txt"), "--labels", str(pipeline / "labels.txt"),
                        "--splits", str(pipeline / "splits.txt")],
        }[command]
        return [command, *inputs, "--out-dir", str(blocker)], "blocker"
    return args


@pytest.mark.parametrize("case", [
    _sample_with_bad_severity,
    _split_without_material_column,
    _split_with_absent_test_material,
    _train_with_unknown_split_name,
    _out_dir_is_a_file("gen-synthetic"),
    _out_dir_is_a_file("sample"),
    _out_dir_is_a_file("augment"),
], ids=["sample-bad-severity", "split-no-material", "split-absent-test-material", "train-unknown-split",
        "gen-synthetic-out-file", "sample-out-file", "augment-out-file"])
def test_data_and_file_errors_end_in_one_line(pipeline, runner, tmp_path, case):
    args, *fragments = case(pipeline, tmp_path)
    _assert_one_line_error(runner.invoke(cli.main, args), *fragments)


def _table_without_pair(src, kind, out, pid):
    meta, cols, rows = read_table(src, kind)
    assert any(r[cols.index("pair_id")] == pid for r in rows)
    write_table(out, kind, cols, [r for r in rows if r[cols.index("pair_id")] != pid], meta=meta)
    return out


def _first_training_pair(pipeline):
    _, cols, rows = read_table(pipeline / "splits.txt", "splits")
    return next(r[cols.index("pair_id")] for r in rows if r[cols.index("split")] == "train")


def test_train_pair_missing_from_splits_is_runtime_error(pipeline, runner, tmp_path):
    splits = _table_without_pair(pipeline / "splits.txt", "splits", tmp_path / "splits.txt", "mat001_l01")
    result = runner.invoke(cli.main, _train_args(pipeline / "samples" / "pairs.txt", pipeline / "labels.txt", splits, tmp_path))
    _assert_one_line_error(result, "splits.txt", "'mat001_l01'", "missing from the splits table")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("kind", ["labels", "splits"])
def test_augment_pair_missing_from_table_is_runtime_error(pipeline, runner, tmp_path, kind):
    pid = _first_training_pair(pipeline)
    tables = {"labels": pipeline / "labels.txt", "splits": pipeline / "splits.txt"}
    tables[kind] = _table_without_pair(tables[kind], kind, tmp_path / f"{kind}.txt", pid)
    result = runner.invoke(cli.main, [
        "augment", "--pairs", str(pipeline / "samples" / "pairs.txt"), "--labels", str(tables["labels"]),
        "--splits", str(tables["splits"]), "--out-dir", str(tmp_path / "aug"),
    ])
    _assert_one_line_error(result, f"{kind}.txt", repr(pid), f"missing from the {kind} table")
    assert not (tmp_path / "aug" / "pairs.txt").exists()


def test_split_of_empty_pairs_table_is_empty(runner, tmp_path):
    pairs = tmp_path / "pairs.txt"
    write_table(pairs, "pairs", cli.PAIRS_COLUMNS, [])
    result = _run(runner, ["split", "--pairs", str(pairs), "--out", str(tmp_path / "splits.txt")])
    assert result.output.strip() == "split 0/0/0"
    _, cols, rows = read_table(tmp_path / "splits.txt", "splits")
    assert cols == cli.SPLIT_COLUMNS and rows == []


def test_rerun_is_byte_identical(runner, tmp_path):
    """Every command rerun with identical seeds writes identical bytes."""
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        _run(runner, [
            "gen-synthetic", "--n", "1", "--level", "tint:0.3",
            "--seed", "7", "--out-dir", str(d / "t"), *RES,
        ])
        # manifest contains absolute paths, so compare per binary file + structure
        outs.append(d)
    a_files = sorted((outs[0] / "t").glob("*.binary"))
    b_files = sorted((outs[1] / "t").glob("*.binary"))
    assert [f.name for f in a_files] == [f.name for f in b_files]
    for fa, fb in zip(a_files, b_files):
        assert fa.read_bytes() == fb.read_bytes()


@pytest.fixture(scope="module")
def inputs(pipeline, runner, checkpoint, tmp_path_factory):
    """Every kind of table a command reads, from the shared pipeline."""
    root = tmp_path_factory.mktemp("inputs")
    pairs = pipeline / "samples" / "pairs.txt"
    _, cols, rows = read_table(pairs, "pairs")
    write_table(root / "calibration.txt", "calibration", ["deitp", "jod"],
                [[d, 10.0 - d] for d in (0.5, 1.0, 2.0, 4.0, 8.0)])
    write_table(root / "deitp.txt", "deitp", ["pair_id", "deitp"],
                [[r[cols.index("pair_id")], 1.0 + i] for i, r in enumerate(rows)])
    write_table(root / "jodparams.txt", "jodparams", ["b1", "b2", "b3"], [[-14.11, -0.47, -0.21]])
    _run(runner, ["eval-baselines", "--pairs", str(pairs), "--out", str(root / "metrics.txt")])
    _run(runner, ["predict", "--checkpoint", str(checkpoint), "--pairs", str(pairs),
                  "--out", str(root / "predictions.txt")])
    return {
        "manifest": pipeline / "tables" / "manifest.txt", "pairs": pairs, "labels": pipeline / "labels.txt",
        "splits": pipeline / "splits.txt", "checkpoint": checkpoint,
        **{kind: root / f"{kind}.txt" for kind in ("calibration", "deitp", "jodparams", "metrics", "predictions")},
    }


# each command's arguments, with {kind} for an input table and {out} for the output
COMMANDS = {
    "sample": ["sample", "--manifest", "{manifest}", "--k", "40", *GRID, "--out-dir", "{out}"],
    "fit-jod": ["fit-jod", "--calibration", "{calibration}", "--out", "{out}"],
    "label-severity": ["label", "--from-severity", "{pairs}", "--out", "{out}"],
    "label-deitp": ["label", "--deitp", "{deitp}", "--params", "{jodparams}", "--out", "{out}"],
    "split": ["split", "--pairs", "{pairs}", "--test-material", "mat002", "--out", "{out}"],
    "augment": ["augment", "--pairs", "{pairs}", "--labels", "{labels}", "--splits", "{splits}", "--out-dir", "{out}"],
    "train": ["train", "--pairs", "{pairs}", "--labels", "{labels}", "--splits", "{splits}", "--epochs", "1",
              "--checkpoint", "{out}", "--history", "{out}_history"],
    "predict": ["predict", "--checkpoint", "{checkpoint}", "--pairs", "{pairs}", "--out", "{out}"],
    "eval-baselines": ["eval-baselines", "--pairs", "{pairs}", "--out", "{out}"],
    "correlate": ["correlate", "--pairs", "{pairs}", "--labels", "{labels}", "--metrics", "{metrics}",
                  "--predictions", "{predictions}", "--out", "{out}"],
}


def _command(name, tables, out):
    return [a.format(out=out, **tables) for a in COMMANDS[name]]


def _rewritten(src, kind, dst, edit):
    """A copy of a table whose column names and rows ``edit`` maps to new ones."""
    meta, cols, rows = read_table(src, kind)
    write_table(dst, kind, *edit(cols, rows), meta=meta)
    return dst


def _stripped_outputs(out):
    """Text of each output file (``out`` or the files in it) by path relative to ``out``, ``out`` stripped."""
    files = sorted(out.iterdir()) if out.is_dir() else [out]
    return {str(f.relative_to(out)): f.read_text().replace(str(out), "") for f in files}


@pytest.mark.parametrize("command, kinds", [
    ("sample", ["manifest"]),
    ("label-severity", ["pairs"]),
    ("split", ["pairs"]),
    ("predict", ["pairs"]),
    ("eval-baselines", ["pairs"]),
    ("augment", ["pairs", "labels", "splits"]),
    ("correlate", ["pairs", "labels", "metrics", "predictions"]),
])
def test_reversed_columns_give_identical_outputs(runner, tmp_path, inputs, command, kinds):
    """Columns are found by name: reversing them in every input table changes no output byte."""
    reversed_tables = dict(inputs)
    for kind in kinds:
        reversed_tables[kind] = _rewritten(inputs[kind], kind, tmp_path / f"{kind}.txt",
                                           lambda cols, rows: (cols[::-1], [r[::-1] for r in rows]))
    _run(runner, _command(command, inputs, tmp_path / "a"))
    _run(runner, _command(command, reversed_tables, tmp_path / "b"))
    assert _stripped_outputs(tmp_path / "a") == _stripped_outputs(tmp_path / "b")


# (command, table kind, a column it reads, a numeric column it reads or None)
TABLE_READS = [
    ("sample", "manifest", "dist_path", "severity"),
    ("fit-jod", "calibration", "jod", "deitp"),
    ("label-severity", "pairs", "pair_id", "severity"),
    ("label-deitp", "deitp", "deitp", "deitp"),
    ("label-deitp", "jodparams", "b2", "b3"),
    ("split", "pairs", "material", None),
    ("augment", "pairs", "dist_samples", "severity"),
    ("augment", "labels", "provenance", "jod"),
    ("augment", "splits", "split", None),
    ("train", "pairs", "ref_samples", None),
    ("train", "labels", "jod", "jod"),
    ("train", "splits", "split", None),
    ("predict", "pairs", "dist_samples", None),
    ("eval-baselines", "pairs", "ref_samples", None),
    ("correlate", "pairs", "material", None),
    ("correlate", "labels", "jod", "jod"),
    ("correlate", "metrics", "ma_logwe", "ma_logwe"),
    ("correlate", "predictions", "jod_pred", "jod_pred"),
]


def _drop_column(column):
    def edit(cols, rows):
        keep = [i for i, c in enumerate(cols) if c != column]
        return [cols[i] for i in keep], [[r[i] for i in keep] for r in rows]
    return edit


def _spoil_last_row(column):
    def edit(cols, rows):
        rows[-1][cols.index(column)] = "abc"
        return cols, rows
    return edit


def _table_read_cases():
    for command, kind, dropped, numeric in TABLE_READS:
        yield pytest.param(command, kind, dropped, _drop_column(dropped), id=f"{command}-{kind}-no-{dropped}")
        if numeric:
            yield pytest.param(command, kind, numeric, _spoil_last_row(numeric), id=f"{command}-{kind}-bad-{numeric}")


@pytest.mark.parametrize("command, kind, column, edit", _table_read_cases())
def test_bad_table_read_is_one_line_error_naming_file_and_column(runner, tmp_path, inputs, command, kind, column, edit):
    bad = _rewritten(inputs[kind], kind, tmp_path / f"bad_{kind}.txt", edit)
    out = tmp_path / "out"
    result = runner.invoke(cli.main, _command(command, {**inputs, kind: bad}, out))
    _assert_one_line_error(result, str(bad), column)
    assert not list(tmp_path.glob("out*"))
