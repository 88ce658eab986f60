"""Run the CLI examples, the synthetic suite and the demos in two checkouts and diff them.

    python scripts/compare_checkouts.py OLD_CHECKOUT NEW_CHECKOUT [--skip-suite]

Each side runs with its own ``src`` on ``PYTHONPATH``, from a fresh work
directory holding copies of its ``data/`` and ``manifests/``, one shared
point-cloud file and one shared copy of ``DATA`` with each hyperedge's
members reversed, so every path a report records is the same string on both
sides.  The commands are the README's CLI examples plus runs that train
GATv2, SAINT batches of other layers, hyperatten on the reversed copy, a
label-probing combiner and a regression model; the training runs save
their weights, the combiner's and the regression model's are evaluated
again, and between them the SAINT runs draw batches from all five
samplers.  Sampler reports of long walks and of hyperedge draws run on
``DATA`` and on the ball graph a run builds.  For every command the script compares the exit code, stdout and every file
written byte for byte, and stderr with the ``{"command": ...}`` announce
lines taken out; announce lines that differ are listed but do not fail the
comparison.  Exit status is 0 when everything else matches, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

DATA = "data/synthetic_classification.json"
REGRESSION = "data/synthetic_regression.json"
POINTS = "points.json"
REVERSED = "reversed.json"  # DATA, each hyperedge's members listed in reverse

CLI_RUNS = [
    ["stats", DATA, "--format", "json"],
    ["stats", DATA],
    ["stats", DATA, "--out", "stats.txt"],
    ["convert", "--in", DATA, "--out", "flat.json", "--to", "two-level"],
    ["stats", "flat.json"],  # classify's hierarchical branch
    ["convert", "--in", DATA, "--out", "simple.json", "--to", "simple"],
    ["convert", "--in", DATA, "--out", "hyper.json", "--to", "hypergraph"],
    ["split", DATA, "--seed", "0"],
    ["build-hyperedges", "--in", DATA, "--out", "clique.json", "--method", "clique",
     "--min-size", "3"],
    ["build-hyperedges", "--in", POINTS, "--out", "interval.json", "--method", "interval",
     "--window", "200000"],
    ["build-hyperedges", "--in", POINTS, "--out", "ball.json", "--method", "ball",
     "--threshold", "0.5", "--metric", "cosine"],
    ["sample", DATA, "--method", "rw", "--roots", "50", "--walk-length", "3", "--seed", "1",
     "--out", "sub.json"],
    ["sampler-report", DATA, "--method", "node", "--budget", "200", "--trials", "20"],
    ["sampler-report", DATA, "--method", "rw", "--roots", "50", "--walk-length", "8",
     "--trials", "10"],
    ["sampler-report", DATA, "--method", "rand-hyperedge", "--budget", "20", "--trials", "10"],
    ["sampler-report", "ball.json", "--method", "rw", "--roots", "40", "--walk-length", "8",
     "--trials", "10"],
    ["sampler-report", "ball.json", "--method", "rand-hyperedge", "--budget", "20",
     "--trials", "10"],
    ["train", DATA, "--model", "hyperconv", "--epochs", "50", "--trials", "5",
     "--save-model", "m.npz"],
    ["train", DATA, "--model", "gcn", "--saint", "edge", "--budget", "300", "--batches", "5"],
    ["eval", DATA, "--model-file", "m.npz", "--split", "test", "--seed", "0"],
    ["train", DATA, "--model", "gatv2", "--epochs", "20", "--save-model", "gatv2.npz"],
    ["eval", DATA, "--model-file", "gatv2.npz", "--split", "val", "--seed", "1"],
    ["train", DATA, "--model", "sage", "--saint", "node", "--budget", "100", "--batches", "5",
     "--save-model", "sage_saint.npz"],
    ["train", DATA, "--model", "hyperatten", "--saint", "rw", "--roots", "30",
     "--walk-length", "3", "--batches", "5", "--save-model", "sat.npz"],
    ["train", DATA, "--model", "gcn", "--saint", "rand-node", "--budget", "100",
     "--batches", "5", "--save-model", "gcn_rand_node.npz"],
    ["train", DATA, "--model", "hyperconv", "--saint", "rand-hyperedge", "--budget", "20",
     "--batches", "5", "--save-model", "hyperconv_rand_hyperedge.npz"],
    ["train", REVERSED, "--model", "hyperatten", "--epochs", "20", "--save-model", "rev.npz"],
    ["train", DATA, "--model", "lp:gcn+hyperconv", "--epochs", "20", "--save-model", "lp.npz"],
    ["eval", DATA, "--model-file", "lp.npz", "--split", "test", "--seed", "0"],
    ["train", REGRESSION, "--model", "sage", "--epochs", "20", "--save-model", "reg.npz"],
    ["eval", REGRESSION, "--model-file", "reg.npz", "--split", "val", "--seed", "0"],
]
SUITE_RUN = ["suite", "manifests/synthetic_suite.json", "--out", "report.json"]
DEMOS = [["01_hybrid_graphs.py"], ["02_hyperedge_construction.py"],
         ["03_sampling_and_stats.py"], ["04_training_gnns.py"]]


def _announce_split(stderr: str) -> tuple[list[str], list[str]]:
    lines = stderr.splitlines()
    announced = [line for line in lines if line.startswith('{"command":')]
    rest = [line for line in lines if not line.startswith('{"command":')]
    return announced, rest


def _snapshot(workdir: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def _write_reversed(src: str, out: str) -> None:
    with open(src, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["hyperedges"] = [members[::-1] for members in obj["hyperedges"]]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


def _run_side(checkout: str, workdir: str, shared: list[str],
              runs: list[list[str]]) -> list[dict]:
    for sub in ("data", "manifests"):
        shutil.copytree(os.path.join(checkout, sub), os.path.join(workdir, sub))
    for path in shared:
        shutil.copy(path, workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    results = []
    for argv in runs:
        before = _snapshot(workdir)
        if argv[0].endswith(".py"):
            cmd = [sys.executable, os.path.join(checkout, "demos", argv[0])]
        else:
            cmd = [sys.executable, "-m", "hygraph.cli", *argv]
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        after = _snapshot(workdir)
        written = {k: v for k, v in after.items() if before.get(k) != v}
        results.append({"code": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr, "files": written})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--skip-suite", action="store_true",
                        help="leave out the ~20 s synthetic suite run")
    args = parser.parse_args()
    runs = [*CLI_RUNS, *([] if args.skip_suite else [SUITE_RUN]), *DEMOS]

    with tempfile.TemporaryDirectory() as tmp:
        points, reversed_data = os.path.join(tmp, POINTS), os.path.join(tmp, REVERSED)
        _write_reversed(os.path.join(args.old, DATA), reversed_data)
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from perfbench.workloads import write_point_cloud; "
             "write_point_cloud(sys.argv[1], 200, 10, 0)", points],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([f"{args.old}/src", args.old])),
            check=True)
        sides = []
        for label, checkout in (("old", args.old), ("new", args.new)):
            workdir = os.path.join(tmp, label)
            os.mkdir(workdir)
            sides.append(_run_side(os.path.abspath(checkout), workdir,
                                   [points, reversed_data], runs))

    failures = 0
    for argv, old, new in zip(runs, *sides):
        name = " ".join(argv)
        problems = [field for field in ("code", "stdout", "files") if old[field] != new[field]]
        old_announce, old_rest = _announce_split(old["stderr"])
        new_announce, new_rest = _announce_split(new["stderr"])
        if old_rest != new_rest:
            problems.append("stderr")
        if old["code"] != 0:
            problems.append(f"exit {old['code']} on the old side")
        failures += bool(problems)
        print(f"{'DIFF' if problems else 'same'}  {name}"
              + (f"  ({', '.join(problems)})" if problems else "")
              + f"  [{len(new['files'])} file(s) written]")
        if old_announce != new_announce:
            for line in old_announce:
                print(f"      old announce: {line}")
            for line in new_announce:
                print(f"      new announce: {line}")
    print(f"{failures} of {len(runs)} runs differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
