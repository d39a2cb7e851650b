"""The three benchmark workloads: inputs from a seed, commands, checks.

A workload makes its inputs in ``setup`` (everything derives from the seed),
lists the ``brdfnqm`` commands of one timed iteration in ``commands``, checks
one iteration's artifacts in ``checks``, and in ``finish`` runs the untimed
steps a check needs (the ``train`` workload scores its checkpoint there).
``outcomes`` turns an iteration's artifacts and command times into the
workload's quality and throughput figures.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
from dataclasses import dataclass

import numpy as np

import checks

# the package's reference logistic deitp -> JOD map (b1, b2, b3)
REFERENCE_JOD = (-14.11, -0.47, -0.21)


def call_cli(argv: list[str]) -> None:
    """Run one ``brdfnqm`` command in this process; raise on failure."""
    from brdfnqm import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(argv), standalone_mode=False)


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def _spec_magnitudes(rng: np.random.Generator, n: int) -> list[float]:
    """n strictly increasing specular-scale magnitudes."""
    return [round(float(m), 4) for m in np.cumsum(rng.uniform(0.05, 0.25, size=n))]


def _level_args(levels: list[str]) -> list[str]:
    return [a for lv in levels for a in ("--level", lv)]


def _train_count(materials: int, held_out: int, levels: int) -> int:
    """Training pairs `split` assigns before augmentation (80 % of the rest)."""
    return round(0.8 * (materials - held_out) * levels)


def _last_history_row(path) -> float:
    return float(checks.column(path, "val_loss")[-1])


@dataclass
class Walkthrough:
    """The README chain as ten separate commands, labels from fitted deitp."""

    name: str = "walkthrough"
    materials: int = 3
    levels: int = 9
    held_out: int = 1
    res: tuple[int, int, int] = (45, 45, 90)
    k: int = 500
    epochs: int = 3
    batch_size: int = 64

    def setup(self, seed: int, root: pathlib.Path) -> dict:
        from brdfnqm import tables

        rng = np.random.default_rng([seed, 1])
        mags = _spec_magnitudes(rng, self.levels)
        held = sorted(int(m) for m in rng.choice(self.materials, self.held_out, replace=False))
        root.mkdir(parents=True, exist_ok=True)
        # calibration points scattered around the reference logistic
        b1, b2, b3 = REFERENCE_JOD
        deitp = rng.uniform(2.0, 150.0, size=24)
        jod = 10.0 / (1.0 + np.exp(-b1 * (-deitp**b3 - b2))) + rng.normal(0.0, 0.15, size=24)
        cal = root / "calibration.txt"
        tables.write_table(cal, "calibration", ["deitp", "jod"],
                           [[float(d), float(np.clip(j, 0.0, 10.0))] for d, j in zip(deitp, jod)])
        # per-pair colour error rising with severity, per-material gain and offset
        rows = []
        for m in range(self.materials):
            gain, offset = rng.uniform(30.0, 120.0), rng.uniform(1.0, 5.0)
            rows += [[f"mat{m:03d}_l{li:02d}", float(offset + gain * mag / mags[-1])] for li, mag in enumerate(mags)]
        table = root / "deitp.txt"
        tables.write_table(table, "deitp", ["pair_id", "deitp"], rows)
        return {
            "levels": [f"spec:{m}" for m in mags],
            "seeds": _seeds(rng, 5),
            "held_out": [f"mat{m:03d}" for m in held],
            "calibration": str(cal),
            "deitp": str(table),
        }

    def commands(self, inp: dict, r: pathlib.Path) -> list[tuple[str, list[str]]]:
        s = [str(v) for v in inp["seeds"]]
        t, smp, aug = r / "tables", r / "samples", r / "aug"
        held = [a for m in inp["held_out"] for a in ("--test-material", m)]
        return [
            ("gen-synthetic", ["gen-synthetic", "--n", str(self.materials), *_level_args(inp["levels"]),
                               "--seed", s[0], "--out-dir", str(t), "--res", *map(str, self.res)]),
            ("sample", ["sample", "--manifest", str(t / "manifest.txt"), "--k", str(self.k), "--seed", s[1],
                        "--out-dir", str(smp)]),
            ("fit-jod", ["fit-jod", "--calibration", inp["calibration"], "--out", str(r / "jodparams.txt")]),
            ("label", ["label", "--deitp", inp["deitp"], "--params", str(r / "jodparams.txt"),
                       "--out", str(r / "labels.txt")]),
            ("split", ["split", "--pairs", str(smp / "pairs.txt"), *held, "--seed", s[2],
                       "--out", str(r / "splits.txt")]),
            ("augment", ["augment", "--pairs", str(smp / "pairs.txt"), "--labels", str(r / "labels.txt"),
                         "--splits", str(r / "splits.txt"), "--seed", s[3], "--out-dir", str(aug)]),
            ("train", ["train", "--pairs", str(aug / "pairs.txt"), "--labels", str(aug / "labels.txt"),
                       "--splits", str(aug / "splits.txt"), "--epochs", str(self.epochs),
                       "--batch-size", str(self.batch_size), "--seed", s[4],
                       "--checkpoint", str(r / "model.ckpt"), "--history", str(r / "history.txt")]),
            ("predict", ["predict", "--checkpoint", str(r / "model.ckpt"), "--pairs", str(smp / "pairs.txt"),
                         "--out", str(r / "preds.txt")]),
            ("eval-baselines", ["eval-baselines", "--pairs", str(smp / "pairs.txt"), "--out", str(r / "metrics.txt")]),
            ("correlate", ["correlate", "--metrics", str(r / "metrics.txt"), "--predictions", str(r / "preds.txt"),
                           "--labels", str(r / "labels.txt"), "--pairs", str(smp / "pairs.txt"),
                           "--out", str(r / "report.txt")]),
        ]

    @property
    def train_pairs(self) -> int:
        return 2 * _train_count(self.materials, self.held_out, self.levels)

    def checks(self, inp: dict, r: pathlib.Path) -> list:
        pairs = self.materials * self.levels
        return [
            checks.table_sizes(r / "tables", self.res, self.materials + pairs),
            checks.sample_rows([r / "samples", r / "aug"], self.k, self.materials + pairs + self.train_pairs),
            checks.history_rows(r / "history.txt", self.epochs),
            checks.prediction_range(r / "preds.txt", r / "model.ckpt", pairs),
            checks.report_rows(r / "report.txt"),
        ]

    def finish(self, inp: dict, r: pathlib.Path) -> list:
        return []

    def outcomes(self, inp: dict, r: pathlib.Path, walls: dict[str, float]) -> dict[str, float]:
        return {
            "train_pairs_per_s": self.train_pairs * self.epochs / walls["train"],
            "val_loss_final": _last_history_row(r / "history.txt"),
            "heldout_spearman": checks.heldout_spearman(r / "preds.txt", r / "labels.txt",
                                                        r / "samples" / "pairs.txt", set(inp["held_out"])),
            "tables_per_s": self.materials * (self.levels + 1) / (walls["gen-synthetic"] + walls["sample"]),
        }


@dataclass
class Train:
    """One `train` command on a prepared, augmented desk-scale dataset."""

    name: str = "train"
    materials: int = 30
    levels: int = 9
    held_out: int = 6
    res: tuple[int, int, int] = (45, 45, 90)
    k: int = 500
    epochs: int = 8
    batch_size: int = 64

    @property
    def train_pairs(self) -> int:
        return 2 * _train_count(self.materials, self.held_out, self.levels)

    def setup(self, seed: int, root: pathlib.Path) -> dict:
        """Tabulate, distort and sample in memory as acceptance 7 does, then
        write the sample files and run label, split and augment."""
        from brdfnqm import cli, pairio, sampling, synth, tables

        rng = np.random.default_rng([seed, 2])
        mags = _spec_magnitudes(rng, self.levels)
        gen_seed, sample_seed, split_seed, aug_seed, train_seed = _seeds(rng, 5)
        held = sorted(int(m) for m in rng.choice(self.materials, self.held_out, replace=False))
        smp = root / "samples"
        smp.mkdir(parents=True, exist_ok=True)
        specs = [synth.DistortionSpec(synth.DistortionKind.SPECULAR_SCALE, m) for m in mags]
        cands = sampling.build_candidate_grid()
        rows = []
        for i, (ref, dist, severity) in enumerate(synth.iter_dataset(self.materials, specs, gen_seed, res=self.res)):
            li = i % self.levels
            if li == 0:
                dirs = sampling.select_samples(ref, cands, k=self.k, seed=sample_seed)
                ref_path = smp / f"{ref.name}_ref.txt"
                pairio.write_samples(ref_path, sampling.sample_brdf(ref, dirs))
            pair_id = f"{ref.name}_l{li:02d}"
            dist_path = smp / f"{pair_id}_dist.txt"
            pairio.write_samples(dist_path, sampling.sample_brdf(dist, dirs))
            rows.append([pair_id, ref.name, float(severity), str(ref_path), str(dist_path)])
        pairs = smp / "pairs.txt"
        tables.write_table(pairs, "pairs", cli.PAIRS_COLUMNS, rows, meta={"k": self.k, "seed": sample_seed})
        call_cli(["label", "--from-severity", str(pairs), "--out", str(root / "labels.txt")])
        call_cli(["split", "--pairs", str(pairs), *[a for m in held for a in ("--test-material", f"mat{m:03d}")],
                  "--seed", str(split_seed), "--out", str(root / "splits.txt")])
        call_cli(["augment", "--pairs", str(pairs), "--labels", str(root / "labels.txt"),
                  "--splits", str(root / "splits.txt"), "--seed", str(aug_seed), "--out-dir", str(root / "aug")])
        return {"root": str(root), "train_seed": train_seed, "held_out": [f"mat{m:03d}" for m in held]}

    def commands(self, inp: dict, r: pathlib.Path) -> list[tuple[str, list[str]]]:
        aug = pathlib.Path(inp["root"]) / "aug"
        return [("train", ["train", "--pairs", str(aug / "pairs.txt"), "--labels", str(aug / "labels.txt"),
                           "--splits", str(aug / "splits.txt"), "--epochs", str(self.epochs),
                           "--batch-size", str(self.batch_size), "--seed", str(inp["train_seed"]),
                           "--checkpoint", str(r / "model.ckpt"), "--history", str(r / "history.txt")])]

    def checks(self, inp: dict, r: pathlib.Path) -> list:
        return [checks.history_rows(r / "history.txt", self.epochs)]

    def finish(self, inp: dict, r: pathlib.Path) -> list:
        """Score every pair with the last checkpoint (untimed)."""
        pairs = pathlib.Path(inp["root"]) / "samples" / "pairs.txt"
        call_cli(["predict", "--checkpoint", str(r / "model.ckpt"), "--pairs", str(pairs),
                  "--out", str(r / "preds.txt")])
        return [checks.prediction_range(r / "preds.txt", r / "model.ckpt", self.materials * self.levels)]

    def outcomes(self, inp: dict, r: pathlib.Path, walls: dict[str, float]) -> dict[str, float]:
        root = pathlib.Path(inp["root"])
        return {
            "train_pairs_per_s": self.train_pairs * self.epochs / walls["train"],
            "val_loss_final": _last_history_row(r / "history.txt"),
            "heldout_spearman": checks.heldout_spearman(r / "preds.txt", root / "labels.txt",
                                                        root / "samples" / "pairs.txt", set(inp["held_out"])),
            "tables_per_s": 0.0,
        }


@dataclass
class Ingest:
    """Canonical-resolution tables, one level of every distortion kind."""

    name: str = "ingest"
    materials: int = 2
    res: tuple[int, int, int] = (90, 90, 180)
    k: int = 500

    def setup(self, seed: int, root: pathlib.Path) -> dict:
        rng = np.random.default_rng([seed, 3])
        levels = [
            f"spec:{rng.uniform(0.2, 1.5):.4f}",
            f"rough:{rng.uniform(0.005, 0.03):.4f}",
            f"tint:{rng.uniform(0.05, 0.3):.4f}",
            f"noise:{rng.uniform(0.002, 0.02):.4f}",
        ]
        return {"levels": levels, "seeds": _seeds(rng, 2)}

    def commands(self, inp: dict, r: pathlib.Path) -> list[tuple[str, list[str]]]:
        gen_seed, sample_seed = map(str, inp["seeds"])
        return [
            ("gen-synthetic", ["gen-synthetic", "--n", str(self.materials), *_level_args(inp["levels"]),
                               "--seed", gen_seed, "--out-dir", str(r / "tables"), "--res", *map(str, self.res)]),
            ("sample", ["sample", "--manifest", str(r / "tables" / "manifest.txt"), "--k", str(self.k),
                        "--seed", sample_seed, "--out-dir", str(r / "samples")]),
        ]

    @property
    def tables(self) -> int:
        return self.materials * (1 + 4)

    def checks(self, inp: dict, r: pathlib.Path) -> list:
        return [
            checks.table_sizes(r / "tables", self.res, self.tables),
            checks.sample_rows([r / "samples"], self.k, self.tables),
        ]

    def finish(self, inp: dict, r: pathlib.Path) -> list:
        return []

    def outcomes(self, inp: dict, r: pathlib.Path, walls: dict[str, float]) -> dict[str, float]:
        return {"train_pairs_per_s": 0.0, "val_loss_final": 0.0, "heldout_spearman": 0.0,
                "tables_per_s": self.tables / (walls["gen-synthetic"] + walls["sample"])}


WORKLOADS = {w.name: w for w in (Walkthrough(), Train(), Ingest())}
