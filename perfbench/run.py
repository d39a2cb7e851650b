"""Benchmark for the brdfnqm toolkit: three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of that checkout; nothing is installed.
Every process, this one and each command it starts, runs with one BLAS
thread (``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS``),
because results are deterministic only at a fixed thread count. Each run works
in a fresh directory under ``.bench_work/`` and deletes it at the end.

Workloads (``workloads.py``):

* ``walkthrough``: the README chain as ten ``python -m brdfnqm.cli``
  processes, 3 materials x 9 ``spec`` levels at 45x45x90, k=500, labels fitted
  from seeded calibration and deltaE-ITP tables. Process start-up and small
  text files dominate.
* ``train``: one ``train`` process (B=64, 8 epochs) on a desk dataset of
  30 GGX materials x 9 ``spec`` levels, 6 held out, augmented to 346
  training pairs, prepared during set-up. Forward, backward and Adam dominate.
* ``ingest``: ``gen-synthetic`` then ``sample`` at 90x90x180 with one level
  of each distortion kind: 35 MB binary tables written and read back. The
  tables are re-read from the page cache, so ``merl`` numbers are not disk
  bandwidth.

Each run first starts one untimed ``brdfnqm --help`` process to warm the
pycache and page cache. It then sets up at least twice and until two seconds
have passed, at most 2000 times (the train set-up takes about ten seconds, the
others a millisecond or less), and then repeats the workload's commands for at
least ``--seconds`` and at least two iterations. Every command's exit status,
every iteration's artifacts (table sizes, sample row counts, prediction range,
report rows, history rows) and the digests of all iterations (identical, with
the iteration root stripped) are checked; the set-up, each command and each
check is one attempted operation, and a failing one is counted, not fatal.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median set-up),
``wall_s`` (median iteration wall time, process start-up included) and
``peak_rss_mb`` (median over iterations of the largest command's peak RSS).

``--trace 1`` runs the same commands in this process with
``cli.main(args, standalone_mode=False)``, alternating an untraced iteration
with one traced by the wrappers of ``tracer.py``, and prints the per-layer
metrics: for each timed function the median milliseconds per call, child
spans included (``*_ms``), calls per iteration (``*.calls``) and for hot ones
the nearest-rank p90 (``*_p90_ms``, the maximum below ten calls); per-module
self seconds per iteration (``*.self_s``); counters (bytes through ``merl``,
the grazing keep ratio, FLOPs of one training step, bytes Adam touches per
step); the untraced in-process time of each command (``cli.<command>_s``), the
start-up of one ``brdfnqm --help`` process (``cli.startup_s``) and the time a
fresh interpreter spends in ``import brdfnqm.cli`` (``cli.import_s``); tracing
overhead (``trace.overhead_s``, traced minus untraced median iteration); the bytes a run writes (``run.bytes_written_mb``);
``error_rate``; and the workload outcomes ``train_pairs_per_s``,
``val_loss_final``, ``heldout_spearman`` and ``tables_per_s`` (0 where the
workload does not produce them).
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (BLAS threads are pinned before numpy loads)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 2000
SETUP_BUDGET_S = 2.0
MIN_ITERATIONS = 2
STARTUP_PROBES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import brdfnqm.cli; print(time.perf_counter() - t)"
RUN_BUDGET_S = 150.0  # no iteration starts, and every command is killed, past this; a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# (span name, metric stem, metric suffix, report p90): the median time per call,
# child spans included, is "<stem>_ms<suffix>" and the count "<stem>.calls<suffix>"
TIMED_FUNCTIONS = [
    ("nn.forward_train", "nn.forward_train", "", True),
    ("nn.backward", "nn.backward", "", True),
    ("nn.adam_step", "nn.adam_step", "", True),
    ("nn.forward_eval", "nn.forward_eval", "", True),
    ("nn.predict_jod", "nn.predict_jod", "", True),
    ("nn.pair_to_input", "nn.pair_to_input", "", True),
    ("nn.save_checkpoint", "nn.save_checkpoint", "", False),
    ("nn.load_checkpoint", "nn.load_checkpoint", "", False),
    ("synth.tabulate", "synth.tabulate", "", False),
    ("synth.distort.spec", "synth.distort", ".spec", False),
    ("synth.distort.rough", "synth.distort", ".rough", False),
    ("synth.distort.tint", "synth.distort", ".tint", False),
    ("synth.distort.noise", "synth.distort", ".noise", False),
    ("geometry.halfdiff_to_io_arrays", "geometry.halfdiff_to_io", "", True),
    ("merl.save_merl", "merl.save_merl", "", True),
    ("merl.load_merl", "merl.load_merl", "", True),
    ("sampling.select_samples", "sampling.select_samples", "", False),
    ("sampling.sample_brdf", "sampling.sample_brdf", "", True),
    ("pairio.read_pair", "pairio.read_pair", "", True),
    ("pairio.write_samples", "pairio.write_samples", "", True),
    ("tables.read_table", "tables.read_table", "", True),
    ("tables.write_table", "tables.write_table", "", True),
    ("preprocess.augment_scale", "preprocess.augment_scale", "", True),
    ("preprocess.compute_whitening", "preprocess.compute_whitening", "", False),
    ("jod.fit_jod_regression", "jod.fit_jod_regression", "", False),
    ("baselines.all_metrics", "baselines.all_metrics", "", True),
    ("evaluate.correlate_per_material", "evaluate.correlate_per_material", "", False),
]
MODULES = ["cli", "nn", "synth", "geometry", "merl", "sampling", "pairio", "tables",
           "preprocess", "jod", "baselines", "evaluate"]
COMMANDS = ["gen-synthetic", "sample", "fit-jod", "label", "split", "augment", "train",
            "predict", "eval-baselines", "correlate"]
OUTCOME_UNITS = {"train_pairs_per_s": "1/s", "val_loss_final": "loss",
                 "heldout_spearman": "rho", "tables_per_s": "1/s"}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for _, stem, suffix, p90 in TIMED_FUNCTIONS:
        units[f"{stem}_ms{suffix}"] = "ms"
        if p90:
            units[f"{stem}_p90_ms{suffix}"] = "ms"
        units[f"{stem}.calls{suffix}"] = "count"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({"merl.bytes_written": "B", "merl.bytes_read": "B", "sampling.grazing_keep_ratio": "ratio",
                  "nn.step_flops": "FLOP", "nn.adam_bytes": "B"})
    units.update({"cli.startup_s": "s", "cli.import_s": "s"})
    units.update({f"cli.{c}_s": "s" for c in COMMANDS})
    units.update({"trace.overhead_s": "s", "run.bytes_written_mb": "MB", "error_rate": "ratio"})
    units.update(OUTCOME_UNITS)
    return units


@dataclass
class Iteration:
    wall: float
    command_s: dict[str, float]
    rss_kb: int = 0


@dataclass
class Session:
    """Operation counts, bytes written and the run's time budget."""

    work: pathlib.Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems[:3])}")
        return not problems

    def check_all(self, name: str, make_checks) -> None:
        """Record each (check, problems) pair ``make_checks()`` returns; a check
        that cannot even run (an artifact is missing) is one failure."""
        try:
            results = make_checks()
        except Exception as exc:  # counted, the run goes on
            results = [(name, [f"{type(exc).__name__}: {exc}"])]
        for check, problems in results:
            self.record(check, problems)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_process(session: Session, argv: list[str]) -> tuple[float, int, list[str]]:
    """Run one ``brdfnqm`` command as its own process.

    Returns (wall seconds, peak RSS in KiB, problems). The child is killed if it
    outlives the run's budget, and is always reaped before this returns.
    """
    log = session.work / "stderr.log"
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "brdfnqm.cli", *argv], env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(session.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit {proc.returncode} {tail}")
    return seconds, usage.ru_maxrss, problems


def import_probe(session: Session) -> float:
    """Seconds a fresh interpreter takes to ``import brdfnqm.cli`` (numpy,
    scipy and click included), measured inside that interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), capture_output=True,
                          text=True, timeout=max(session.remaining(), 1.0))
    problems = [] if proc.returncode == 0 else [f"exit {proc.returncode} {proc.stderr.strip()[-200:]}"]
    return float(proc.stdout) if session.record("import probe", problems) else 0.0


def run_inline(argv: list[str]) -> tuple[float, list[str]]:
    start = time.perf_counter()
    try:
        workloads.call_cli(argv)
    except Exception as exc:  # a failing command is counted, the run goes on
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, []


def run_iteration(session: Session, wl, inp: dict, root: pathlib.Path, mode: str,
                  tracer: Tracer | None = None) -> Iteration:
    """One pass over the workload's commands: as processes, or in this one."""
    it = Iteration(wall=0.0, command_s={})
    root.mkdir(parents=True)
    cmds = wl.commands(inp, root)
    start = time.perf_counter()
    for i, (name, argv) in enumerate(cmds):
        if mode == "process":
            seconds, rss, problems = run_process(session, argv)
            it.rss_kb = max(it.rss_kb, rss)
        elif tracer is not None:
            with tracer.span(f"cli.{name}"):
                seconds, problems = run_inline(argv)
        else:
            seconds, problems = run_inline(argv)
        it.command_s[name] = seconds
        if not session.record(f"command {name}", problems):
            for later, _ in cmds[i + 1:]:
                session.record(f"command {later}", ["not run after an earlier failure"])
            break
    it.wall = time.perf_counter() - start
    return it


def iterate(session: Session, wl, inp: dict, seconds: float, modes: list[str],
            tracer: Tracer | None = None) -> tuple[list[tuple[str, Iteration]], pathlib.Path]:
    """Repeat iterations, cycling through ``modes``, for ``seconds`` and at
    least ``MIN_ITERATIONS`` per mode. Checks each iteration, compares the
    digests of all of them and keeps only the latest iteration's directory."""
    done: list[tuple[str, Iteration]] = []
    digests = []
    previous = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(done) >= MIN_ITERATIONS * len(modes) and elapsed >= seconds:
            break
        longest = max((it.wall for _, it in done), default=0.0)
        if done and session.remaining() < 1.5 * longest:
            break
        mode = modes[len(done) % len(modes)]
        root = session.work / f"it{len(done)}"
        if mode == "traced":
            with tracer.installed():
                it = run_iteration(session, wl, inp, root, mode, tracer)
        else:
            it = run_iteration(session, wl, inp, root, mode)
        done.append((mode, it))
        session.check_all("checks", lambda: wl.checks(inp, root))
        digests.append(checks.digest(root))
        session.bytes_written += checks.bytes_under(root)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = root
    session.check_all("same_digests", lambda: [checks.same_digests(digests)])
    return done, previous


def set_up(session: Session, wl, seed: int, rep: int) -> tuple[dict | None, float, list[str]]:
    """Make the workload's inputs once; returns them (None on failure), the
    seconds it took and its problems."""
    root = session.work / f"setup{rep}"
    start = time.perf_counter()
    try:
        inp = wl.setup(seed, root)
        problems = []
    except Exception as exc:  # counted as a failed operation
        inp, problems = None, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    if root.exists():
        session.bytes_written += checks.bytes_under(root)
    return inp, seconds, problems


def warm_up(session: Session) -> None:
    """One untimed ``brdfnqm --help`` process warms the pycache and page cache."""
    _, _, problems = run_process(session, ["--help"])
    session.record("command --help", problems)


def set_up_repeatedly(session: Session, wl, seed: int) -> tuple[dict | None, list[float]]:
    """Set up at least ``SETUP_MIN_REPS`` times and until ``SETUP_BUDGET_S``
    have passed, at most ``SETUP_MAX_REPS`` times. A set-up of a millisecond
    swings with the machine's state, so its median needs a window of seconds,
    not a few repetitions. Keeps the last set-up's inputs; all repetitions
    together are one operation."""
    seconds: list[float] = []
    start = time.perf_counter()
    while True:
        inp, s, problems = set_up(session, wl, seed, len(seconds))
        seconds.append(s)
        enough = len(seconds) >= SETUP_MIN_REPS and time.perf_counter() - start >= SETUP_BUDGET_S
        if inp is None or enough or len(seconds) == SETUP_MAX_REPS:
            session.record("setup", problems)
            return inp, seconds
        shutil.rmtree(session.work / f"setup{len(seconds) - 1}", ignore_errors=True)


def percentile90(values: list[float]) -> float:
    """Nearest-rank 90th percentile (the maximum for fewer than ten values)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def median_commands(iterations: list[Iteration]) -> dict[str, float]:
    names = iterations[0].command_s.keys()
    return {n: statistics.median(it.command_s[n] for it in iterations if n in it.command_s) for n in names}


def measure(wl, seed: int, seconds: float, session: Session) -> dict[str, float]:
    warm_up(session)
    inp, setups = set_up_repeatedly(session, wl, seed)
    if inp is None:
        raise RuntimeError("set-up failed")
    done, last = iterate(session, wl, inp, seconds, ["process"])
    session.check_all("finish", lambda: wl.finish(inp, last))
    iterations = [it for _, it in done]
    print("iteration walls: " + " ".join(f"{it.wall:.3f}" for it in iterations)
          + f"  {len(setups)} set-ups, quartiles: "
          + " ".join(f"{q:.6f}" for q in statistics.quantiles(setups, n=4)), file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(it.wall for it in iterations),
        "peak_rss_mb": statistics.median(it.rss_kb for it in iterations) / 1024.0,
    }


def measure_traced(wl, seed: int, seconds: float, session: Session) -> dict[str, float]:
    startup = []
    for _ in range(STARTUP_PROBES):
        s, _, problems = run_process(session, ["--help"])
        session.record("command --help", problems)
        startup.append(s)
    imports = [import_probe(session) for _ in range(STARTUP_PROBES)]
    import brdfnqm.cli  # noqa: F401  (the tracer wraps the package modules imported by then)

    inp, _, problems = set_up(session, wl, seed, 0)
    session.record("setup", problems)
    if inp is None:
        raise RuntimeError("set-up failed")
    tracer = Tracer()
    done, last = iterate(session, wl, inp, seconds, ["inline", "traced"], tracer)
    session.check_all("finish", lambda: wl.finish(inp, last))
    untraced = [it for mode, it in done if mode == "inline"]
    traced = [it for mode, it in done if mode == "traced"]
    if not traced:
        raise RuntimeError("the time budget ran out before a traced iteration")
    n = len(traced)

    metrics: dict[str, float] = {}
    spans = tracer.by_name()
    for name, stem, suffix, p90 in TIMED_FUNCTIONS:
        ms = [1000.0 * s.seconds for s in spans.get(name, [])]
        metrics[f"{stem}_ms{suffix}"] = statistics.median(ms) if ms else 0.0
        if p90:
            metrics[f"{stem}_p90_ms{suffix}"] = percentile90(ms) if ms else 0.0
        metrics[f"{stem}.calls{suffix}"] = len(ms) / n
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            s.self_s for name, group in spans.items() if name.split(".", 1)[0] == module for s in group) / n
    c = tracer.counters
    metrics["merl.bytes_written"] = c["merl.bytes_written"] / n
    metrics["merl.bytes_read"] = c["merl.bytes_read"] / n
    cands = c["sampling.grazing_candidates"]
    metrics["sampling.grazing_keep_ratio"] = c["sampling.grazing_kept"] / cands if cands else 0.0
    metrics["nn.step_flops"] = c["nn.step_flops"]
    metrics["nn.adam_bytes"] = c["nn.adam_bytes"]
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["cli.import_s"] = statistics.median(imports)
    walls = median_commands(untraced)
    for command in COMMANDS:
        metrics[f"cli.{command}_s"] = walls.get(command, 0.0)
    metrics["trace.overhead_s"] = statistics.median(it.wall for it in traced) - statistics.median(
        it.wall for it in untraced)
    try:
        metrics.update(wl.outcomes(inp, last, walls))
    except Exception as exc:  # missing artifacts were already counted as failures
        session.record("outcomes", [f"{type(exc).__name__}: {exc}"])
        metrics.update(dict.fromkeys(OUTCOME_UNITS, 0.0))
    return metrics


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    src_digest = hashlib.sha256()
    for p in sorted((SRC / "brdfnqm").glob("*.py")):
        src_digest.update(p.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "brdfnqm" / "cli.py").is_file():
        print(f"no brdfnqm package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(work=work, deadline=time.perf_counter() + RUN_BUDGET_S)
    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics = measure_traced(wl, args.seed, args.seconds, session)
            metrics["run.bytes_written_mb"] = session.bytes_written / 1e6
            metrics["error_rate"] = session.failed / session.attempted
            units = per_layer_units()
        else:
            metrics = measure(wl, args.seed, args.seconds, session)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in session.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "bytes_written": session.bytes_written}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
