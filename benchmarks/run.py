"""Benchmark of the ``maccretive`` CLI on generated run specs.

Run it from the root of a checkout:

    python3 benchmarks/run.py --workload trajectories --seed 1 --seconds 40 --trace 0

One process, one thread. The benchmark imports ``maccretive`` from
``src/`` of the checkout and exits with an error if it is not there. It
generates run specs from ``--seed`` (see ``specgen.py``) and passes each
one, as a spec file, through the CLI's public entry point
``maccretive.cli.main(["--spec", ..., "--out", ...])``. Each run is
timed from outside, and its exit code and ``report.json`` are checked:

- an error is a run that raised out of ``main``, exited with a code
  other than 0 or 1, or whose exit code disagrees with ``passed``;
- the verdict is compared with an oracle that does not use the library
  (``oracle.py``);
- the first ``DETERMINISM_SPECS`` specs are run again at the end and
  their outputs must match byte for byte.

Every time the end-to-end metrics report is scaled to a reference host
speed. On a shared 2-vCPU x86-64 virtual machine the CPU runs in two
speed states about 45% apart and moves between them on scales of a
second to a minute, so raw times of the same code spread by 15-30%
between 40-second runs. Before each run and each set-up the benchmark
times ``host_probe``, a fixed piece of Python and small-array numpy
work that shares no code with ``maccretive``, and multiplies the time
it measured by ``PROBE_REFERENCE_S`` over the mean of the probe times
just before and after it. A change to the library moves the measured
time and not the probe, so it shows in full.

``--trace 0`` runs specs for ``--seconds`` seconds and reports the
end-to-end metrics. ``--trace 1`` runs the fixed batch of ``BATCH``
specs twice, untraced and then traced (``tracer.py``), each after a
fresh import so caches start cold, and reports per-layer metrics whose
counts repeat exactly for a seed. The last line of standard output is
the result as one JSON object.

``correct`` is false when any operation fails, any run passes a spec the
oracle says must fail, or, on ``decomposition`` and ``block-membership``,
more runs fail than ``ROUNDOFF_FAIL_SHARE`` allows. The oracle's PASS is
exact, so a FAIL where it expects PASS means roundoff beat a check's
tolerance: a known defect of long trajectories (energy and distance
monotonicity) that shows only rarely on the other two workloads (high
degrees far from 0). Such runs are counted in ``verdict_agreement`` and
``verdict_mismatch_rate`` and left out of ``runs_per_s`` and the latency
percentiles, since a wrong verdict can end a run early.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import specgen
from tracer import LAYERS, GROUPS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

BATCH = 100  # specs generated in set-up; the traced run uses exactly these
SETUP_REPEATS = 15  # set-ups per run, spread across the measured window
DETERMINISM_SPECS = 8
# Share of runs that may FAIL by roundoff where the oracle expects PASS,
# per workload, with at least ``ROUNDOFF_FAILS`` allowed in any run. The
# measured rate is 2 in ~100,000 decomposition runs and 0 in ~40,000
# block-membership runs, so 2 per run is rarely reached by chance and a
# change that turns 1 run in 1000 into a FAIL is caught. On trajectories
# the monotonicity defects are only counted.
ROUNDOFF_FAIL_SHARE = {"decomposition": 0.001, "block-membership": 0.001}
ROUNDOFF_FAILS = 2
# Time of ``host_probe`` on the host that times are scaled to: about its
# median on a shared 2-vCPU x86-64 virtual machine (Python 3.11, numpy
# 2.4), so scaled times read close to the raw ones there.
PROBE_REFERENCE_S = 1.0e-3

_PROBE_A = np.linspace(-1.0, 1.0, 12)
_PROBE_B = np.linspace(0.5, 1.5, 9)


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that does not use ``maccretive``."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(120):
        product = np.convolve(_PROBE_A, _PROBE_B)
        acc += float(product @ product)
        acc += sum({i: i * 1.5 for i in range(20)}.values())
    return time.perf_counter() - start


def scaled(seconds: float, probes: list) -> float:
    """``seconds`` at the reference host speed, from the probe times around it."""
    return seconds * PROBE_REFERENCE_S / statistics.mean(probes)


def load_cli():
    """Import ``maccretive`` afresh from the checkout and return its CLI module."""
    if not (SRC / "maccretive" / "__init__.py").is_file():
        raise SystemExit(f"error: maccretive sources not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "maccretive" or n.startswith("maccretive.")]:
        del sys.modules[name]
    cli = importlib.import_module("maccretive.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "maccretive").resolve():
        raise SystemExit(f"error: imported maccretive from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int):
    """Fresh import plus the spec batch; returns ``(cli, specs, scaled seconds)``."""
    gc.collect()  # the modules a previous set-up dropped
    before = host_probe()
    start = time.perf_counter()
    cli = load_cli()
    specs = specgen.make_specs(workload, seed, BATCH)
    seconds = time.perf_counter() - start
    return cli, specs, scaled(seconds, [before, host_probe()])


@dataclass
class Outcome:
    command: str
    seconds: float
    error: str | None
    passed: bool | None
    expected: bool
    first_failure: str | None
    outputs: dict
    probe: float  # ``host_probe`` seconds just before the run
    scaled_seconds: float = math.nan  # set by ``run_for``

    @property
    def agrees(self) -> bool:
        return self.error is None and self.passed == self.expected


class Runner:
    """Runs specs through ``cli.main`` with one spec file and one output directory."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.spec_path = workdir / "spec.json"
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, spec: dict) -> Outcome:
        probe = host_probe()
        self.spec_path.write_text(json.dumps(spec))
        for old in self.out_dir.iterdir():
            old.unlink()
        argv = ["--spec", str(self.spec_path), "--out", str(self.out_dir)]
        code, error = None, None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        outputs = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        passed = first_failure = None
        if error is None:
            try:
                report = json.loads(outputs["report.json"])
                passed, first_failure = report["passed"], report["first_failure"]
            except (KeyError, ValueError) as exc:
                error = f"unreadable report: {exc!r}"
            else:
                if code not in (0, 1):
                    error = f"exit code {code!r}"
                elif (code == 0) != passed:
                    error = f"exit code {code} disagrees with passed={passed}"
                elif (report.get("command"), report.get("seed")) != (spec["command"], spec["seed"]):
                    error = "report does not echo the spec's command and seed"
        return Outcome(spec["command"], seconds, error, passed, oracle.expected_pass(spec),
                       first_failure, outputs, probe)


@dataclass
class Tally:
    """Operations attempted and failed, and verdicts that disagree with the oracle."""

    fail_share: float | None  # allowed share of false FAILs; None: any number
    attempted: int = 0
    failed: int = 0
    runs: int = 0
    false_passes: int = 0
    false_fails: int = 0
    errors: Counter = field(default_factory=Counter)
    mismatches: Counter = field(default_factory=Counter)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        self.runs += 1
        if outcome.error is not None:
            self.failed += 1
            self.errors[f"{outcome.command}: {outcome.error}"] += 1
        elif outcome.passed != outcome.expected:
            self.mismatches[f"{outcome.command}: {outcome.first_failure or 'passed'}"] += 1
            self.false_passes += outcome.passed
            self.false_fails += not outcome.passed

    def compare(self, first: Outcome, again: Outcome) -> None:
        """Count a re-run whose outputs differ from the first run's."""
        self.attempted += 1
        if again.error is not None or again.outputs != first.outputs:
            self.failed += 1
            self.errors[f"{again.command}: outputs differ on re-run"] += 1

    @property
    def correct(self) -> bool:
        allowed = None if self.fail_share is None else max(ROUNDOFF_FAILS, self.fail_share * self.runs)
        roundoff = allowed is None or self.false_fails <= allowed
        return self.failed == 0 and self.false_passes == 0 and roundoff


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_for(runner: Runner, specs: list, workload: str, seed: int, seconds: float,
            tally: Tally, setup_times: list):
    """Run the spec stream for ``seconds``; returns ``(outcomes, peak RSS)``.

    Each outcome's ``scaled_seconds`` is set from the probes before and
    after its run. Set-up is repeated at even intervals across the window,
    so its median samples the same stretch of host time as the runs. Peak
    RSS is read once ``BATCH`` specs are done, a fixed amount of work,
    because the library's caches keep filling with fresh interval keys and
    a faster run would otherwise read as more memory.
    """
    modules = {n: m for n, m in sys.modules.items() if n == "maccretive" or n.startswith("maccretive.")}
    outcomes, rss = [], None
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if len(setup_times) < SETUP_REPEATS and elapsed * SETUP_REPEATS >= len(setup_times) * seconds:
            setup_times.append(set_up(workload, seed)[2])
            sys.modules.update(modules)  # the CLI imports some names at call time
            gc.collect()  # drop the new modules here, not inside a run
            continue
        index = len(outcomes)
        if index == len(specs):
            specs.append(specgen.make_spec(workload, seed, index))
        outcome = runner.run(specs[index])
        tally.add(outcome)
        if index >= DETERMINISM_SPECS:
            outcome.outputs = None
        outcomes.append(outcome)
        if len(outcomes) == BATCH:
            rss = peak_rss_mb()
    probes = [o.probe for o in outcomes] + [host_probe()]
    for outcome, after in zip(outcomes, probes[1:]):
        outcome.scaled_seconds = scaled(outcome.seconds, [outcome.probe, after])
    return outcomes, rss or peak_rss_mb()


def run_batch(runner: Runner, specs: list, tally: Tally):
    start = time.perf_counter()
    outcomes = []
    for spec in specs:
        outcome = runner.run(spec)
        tally.add(outcome)
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - start


def end_to_end(outcomes: list, setup_times: list, rss: float) -> dict:
    """Metrics from scaled times; runs_per_s counts agreeing runs over the time of all runs."""
    latencies = sorted(o.scaled_seconds for o in outcomes if o.agrees)
    p50 = p90 = float("nan")
    if len(latencies) >= 2:
        p50 = statistics.median(latencies) * 1e3
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
    return {
        "runs_per_s": (len(latencies) / sum(o.scaled_seconds for o in outcomes), "1/s"),
        "verdict_agreement": (sum(o.agrees for o in outcomes) / len(outcomes), "ratio"),
        "run_p50_ms": (p50, "ms"),
        "run_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def input_counts(specs: list) -> dict:
    """Exact properties of the generated inputs."""
    degrees, terms, work = [], 0, 0
    for spec in specs:
        params = spec["params"]
        if "max_degree" in params:
            degrees.append(params["max_degree"])
        for key in ("u0", "v0"):
            value = params.get(key)
            polys = [value] if isinstance(value, list) else list((value or {}).values())
            for poly in polys:
                terms += len(poly)
                degrees.extend(len(t["coeffs"]) - 1 for t in poly)
        work += params.get("samples", 0) + params.get("states", 0) + params.get("steps", 0)
    return {
        "input.degree_max": (max(degrees, default=0), "count"),
        "input.degree_sum": (sum(degrees), "count"),
        "input.terms": (terms, "count"),
        "input.work_items": (work, "count"),
    }


def per_layer(tracer: Tracer, specs: list, outcomes: list, untraced_s: float, traced_s: float) -> dict:
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.count(layer), "count")
        metrics[f"{layer}.self_s"] = (tracer.self_seconds(layer), "s")
    for group in GROUPS:
        metrics[f"{group}.calls"] = (tracer.count(group), "count")
        metrics[f"{group}.self_s"] = (tracer.self_seconds(group), "s")
    for group in ("blockop.block_resolve", "derivative.resolve"):
        metrics[f"{group}.failed"] = (tracer.failures(group), "count")
        degree, coeffs, largest = tracer.shapes[group]
        metrics[f"{group}.out_degree_max"] = (degree, "count")
        metrics[f"{group}.out_terms_max"] = (coeffs, "count")
        metrics[f"{group}.out_coeff_max"] = (largest, "1")
    for group in ("blockop.bd_project", "funcspace.l2_inner"):
        metrics[f"{group}.repeat_ratio"] = (tracer.repeat_ratio(group), "ratio")
    steppers = {"evolution.evolve", "evolution.contraction_report"}
    metrics["evolution.steps_taken"] = (
        tracer.calls_between(steppers, {"derivative.resolve", "blockop.block_resolve"}), "count")
    metrics["evolution.prune_events"] = (tracer.count("funcspace.prune"), "count")
    metrics.update(input_counts(specs))
    runs = len(outcomes)
    metrics["error_rate"] = (sum(o.error is not None for o in outcomes) / runs, "ratio")
    metrics["verdict_mismatch_rate"] = (
        sum(o.error is None and not o.agrees for o in outcomes) / runs, "ratio")
    metrics["trace_overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def report(env: dict, metrics: dict, tally: Tally, outcomes: list) -> dict:
    print("env " + json.dumps(env, sort_keys=True))
    print(f"runs {len(outcomes)}  agreeing {sum(o.agrees for o in outcomes)}  "
          f"attempted {tally.attempted}  failed {tally.failed}  "
          f"false passes {tally.false_passes}  false fails {tally.false_fails}")
    for label, counts in (("error", tally.errors), ("verdict mismatch", tally.mismatches)):
        for what, n in counts.most_common():
            print(f"{label}: {n} x {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(args, workdir: Path) -> dict:
    cli, specs, setup_s = set_up(args.workload, args.seed)
    tally = Tally(ROUNDOFF_FAIL_SHARE.get(args.workload))
    if not args.trace:
        gc.collect()
        runner = Runner(cli, workdir)
        setup_times = [setup_s]
        outcomes, rss = run_for(
            runner, specs, args.workload, args.seed, args.seconds, tally, setup_times)
        metrics = end_to_end(outcomes, setup_times, rss)
        for index, first in enumerate(outcomes[:DETERMINISM_SPECS]):
            tally.compare(first, runner.run(specs[index]))
        return report(environment(args), metrics, tally, outcomes)

    gc.collect()
    plain, untraced_s = run_batch(Runner(cli, workdir), specs, tally)
    cli = load_cli()
    tracer = Tracer()
    tracer.install()
    gc.collect()
    traced, traced_s = run_batch(Runner(cli, workdir), specs, tally)
    for first, again in zip(plain, traced):
        tally.compare(first, again)
    metrics = per_layer(tracer, specs, traced, untraced_s, traced_s)
    return report(environment(args), metrics, tally, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
