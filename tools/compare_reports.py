"""Compare the CLI outputs of two source trees, spec by spec.

Run it from the root of a checkout:

    python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE --workload trajectories --seed 1 --specs 200
    python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE --workload decomposition block-membership --seed 1 2 3 --specs 400
    python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE --spec-file specs.json

Each tree is a checkout with the package under ``src/maccretive``. The
specs are the first ``--specs`` of each stream that ``benchmarks/specgen.py``
of this checkout draws, one stream per pairing of a ``--workload`` with a
``--seed`` (the module is imported, never written), or the JSON list of
specs in ``--spec-file``. One subprocess per tree imports that tree's
``maccretive.cli`` afresh and runs every spec through
``cli.main(["--spec", ..., "--out", ...])``, the entry point the benchmark
uses. The script prints the index of every spec whose exit code,
``report.json`` bytes or ``data.csv`` bytes differ between the trees and
one total line per pairing, each line led by its pairing when there are
several, and exits 1 if any spec differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import multiprocessing
import pickle
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("report.json", "data.csv")


def run_tree(tree: str, specs: list, results: str) -> None:
    """Run ``specs`` through the CLI of ``tree`` and pickle to ``results``, per
    spec, the exit code (or the error ``main`` raised) and the bytes of each
    of ``OUTPUTS`` (``None`` when it was not written)."""
    src = Path(tree, "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("maccretive.cli")
    if Path(cli.__file__).resolve().parent != src / "maccretive":
        raise SystemExit(f"error: imported maccretive from {cli.__file__}, not {src}")
    outcomes = []
    with tempfile.TemporaryDirectory() as work:
        spec_path, out = Path(work, "spec.json"), Path(work, "out")
        for spec in specs:
            spec_path.write_text(json.dumps(spec))
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(["--spec", str(spec_path), "--out", str(out)])
                except (Exception, SystemExit) as exc:  # a crash is an outcome to compare
                    code = f"{type(exc).__name__}: {exc}"
            files = [out / name for name in OUTPUTS]
            outcomes.append((code, *(f.read_bytes() if f.is_file() else None for f in files)))
    Path(results).write_bytes(pickle.dumps(outcomes))


def load_specs(args) -> dict:
    """The specs to run by pairing, ``{(workload, seed): specs}``, or
    ``{None: specs}`` for ``--spec-file``."""
    if args.spec_file is not None:
        return {None: json.loads(Path(args.spec_file).read_text())}
    sys.dont_write_bytecode = True  # leave benchmarks/ as it is
    sys.path.insert(0, str(ROOT / "benchmarks"))
    specgen = importlib.import_module("specgen")
    return {(workload, seed): specgen.make_specs(workload, seed, args.specs)
            for workload in dict.fromkeys(args.workload) for seed in dict.fromkeys(args.seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", nargs="+", default=["trajectories"],
                        choices=["decomposition", "block-membership", "trajectories"])
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--specs", type=int, default=200, help="how many specs of each stream")
    parser.add_argument("--spec-file", default=None, help="a JSON list of specs to run instead")
    args = parser.parse_args(argv)
    streams = load_specs(args)
    specs = [spec for stream in streams.values() for spec in stream]

    spawn = multiprocessing.get_context("spawn")  # a fresh interpreter per tree
    with tempfile.TemporaryDirectory() as work:
        results = [str(Path(work, f"{n}.pkl")) for n in range(2)]
        jobs = [spawn.Process(target=run_tree, args=(tree, specs, out))
                for tree, out in zip((args.parent, args.change), results)]
        for job in jobs:
            job.start()
        for job in jobs:
            job.join()
        if any(job.exitcode != 0 for job in jobs):
            print("error: a tree's run did not finish", file=sys.stderr)
            return 2
        parent, change = (pickle.loads(Path(path).read_bytes()) for path in results)

    any_differ, offset = False, 0
    for pairing, stream in streams.items():
        label = f"{pairing[0]} seed {pairing[1]}: " if len(streams) > 1 else ""
        differ = [i for i in range(len(stream)) if parent[offset + i] != change[offset + i]]
        for i in differ:
            p, c = parent[offset + i], change[offset + i]
            names = [name for name, x, y in zip(("exit code", *OUTPUTS), p, c) if x != y]
            print(f"{label}spec {i}: {', '.join(names)} differ (exit codes {p[0]!r}, {c[0]!r})")
        print(f"{label}{len(differ)} of {len(stream)} specs differ")
        any_differ, offset = any_differ or bool(differ), offset + len(stream)
    return int(any_differ)


if __name__ == "__main__":
    sys.exit(main())
