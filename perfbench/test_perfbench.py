"""Self-checks of the benchmark: ``python3 -m pytest -q perfbench``.

They run small versions of the workloads (tiny tables, few samples), so they
take about a minute, mostly interpreter start-ups.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

import checks
import run
import workloads
from tracer import Tracer, package_modules

sys.path.insert(0, str(run.SRC))

TINY = {
    "walkthrough": workloads.Walkthrough(materials=3, levels=3, res=(8, 8, 16), k=30, epochs=1, batch_size=8),
    "train": workloads.Train(materials=3, levels=3, held_out=1, res=(8, 8, 16), k=30, epochs=1, batch_size=8),
    "ingest": workloads.Ingest(materials=1, res=(8, 8, 16), k=30),
}


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(monkeypatch, capsys, wl, trace: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, wl.name, wl)
    assert run.main(["--workload", wl.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrappers_restore_originals():
    import brdfnqm.cli
    from brdfnqm import geometry, merl, nn, synth

    before = {(m.__name__, k): v for m in package_modules() for k, v in vars(m).items()}
    tracer = Tracer()
    with tracer.installed():
        assert brdfnqm.cli.load_merl is not before[("brdfnqm.cli", "load_merl")]
        assert brdfnqm.cli.load_merl.__wrapped__ is before[("brdfnqm.merl", "load_merl")]
        assert merl.load_merl is brdfnqm.cli.load_merl
        assert nn.forward.__wrapped__ is before[("brdfnqm.nn", "forward")]
        params = synth.AnalyticBrdfParams(model=synth.BrdfModel.LAMBERT, diffuse=merl.Rgb(0.5, 0.5, 0.5))
        synth.tabulate(params, res=(4, 4, 8))
    after = {(m.__name__, k): v for m in package_modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert geometry.halfdiff_to_io_arrays is before[("brdfnqm.geometry", "halfdiff_to_io_arrays")]

    spans = tracer.by_name()
    (tab,) = spans["synth.tabulate"]
    (geo,) = spans["geometry.halfdiff_to_io_arrays"]
    assert tracer.spans[geo.parent] is tab
    children = [s for s in tracer.spans if s.parent >= 0 and tracer.spans[s.parent] is tab]
    assert geo in children
    assert tab.self_s == pytest.approx(tab.seconds - sum(s.seconds for s in children))


def test_benchmark_json_matches_code():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["walkthrough", "train", "ingest"])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, name):
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(monkeypatch, capsys, TINY[name], trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}
    assert result["metrics"]["error_rate"]["value"] == 0.0


class TamperedIngest(workloads.Ingest):
    """Truncates the first table of every iteration before it is checked."""

    def checks(self, inp, r):
        table = sorted((r / "tables").glob("*.binary"))[0]
        table.write_bytes(table.read_bytes()[:-8])
        return super().checks(inp, r)


def test_tampered_artifact_raises_error_rate(monkeypatch, capsys):
    wl = TamperedIngest(**{f.name: getattr(TINY["ingest"], f.name) for f in dataclasses.fields(workloads.Ingest)})
    result = _run(monkeypatch, capsys, wl, trace=1)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0.0


def test_checks_flag_bad_artifacts(tmp_path):
    (tmp_path / "a.binary").write_bytes(b"\0" * (12 + 8 * 3 * 2))
    assert checks.table_sizes(tmp_path, (1, 1, 2), 1)[1] == []
    assert checks.table_sizes(tmp_path, (1, 1, 3), 1)[1]
    (tmp_path / "report.txt").write_text("# header\nmetric avg\nrmse nan\n")
    assert checks.report_rows(tmp_path / "report.txt", expected=1)[1]
    first = checks.digest(tmp_path)
    (tmp_path / "a.binary").write_bytes(b"\1")
    assert checks.same_digests([first, checks.digest(tmp_path)])[1]
