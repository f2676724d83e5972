"""splitchaos benchmark: end-to-end CLI runs, or a traced run for per-layer figures.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
`src/`.  One client runs one CLI invocation at a time and waits for it
(a closed loop: a batch generator has no arrival rate).

--trace 0 repeats, until S seconds are used, a pair of child processes:
a set-up probe (interpreter start, `import splitchaos.cli`, `load_spec`
of the workload's spec) and the CLI invocation itself.  It reports the
medians of wall time, set-up time and the child's own peak RSS.

--trace 1 alternates the untraced CLI with `bench/traced.py`, which runs
the same CLI code in-process with spans at each layer boundary, and
calibrates the RNG and selection costs after each traced run.  It
reports per-layer figures and the tracing overhead.

Every output is checked (see workloads.py); a run fails on a wrong exit
code, a failed check, or output that differs from the workload's other
runs.  Human-readable lines come first; the last line of stdout is the
JSON result.  Work files go under `.bench_work/` in the checkout.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
MIN_SAMPLES = 3  # end-to-end samples per run; the traced mode needs one pair
# Share of the traced wall after set-up that the layer spans must cover.
MIN_COVERAGE = 0.9


def run_child(argv, cwd, env, stdout_path):
    """Run one child to completion; return (wall_s, peak_rss_mb, exit_code).

    Peak RSS is the child's own, read from wait4: RUSAGE_CHILDREN would
    give the largest of every child reaped so far.
    """
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    def __init__(self, root, workload, seed, work):
        self.root = root
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.prepared = workload.prepare(root, work, seed, workload.iterations)
        self.attempted = 0
        self.failures = []
        self.digests = set()

    def setup_probe(self):
        code = (
            "import sys, splitchaos.cli\n"
            "from splitchaos.specfile import load_spec\n"
            "load_spec(sys.argv[1])\n"
            "print(splitchaos.cli.__file__)\n"
        )
        out = self.work / "setup.out"
        wall, _, exit_code = run_child([sys.executable, "-c", code, str(self.prepared.spec)], self.work, self.env, out)
        if exit_code != 0:
            raise SystemExit(f"bench: set-up probe exited {exit_code}: {Path(f'{out}.err').read_text()}")
        loaded = Path(out.read_text().strip())
        if not loaded.is_relative_to(self.root / "src"):
            raise SystemExit(f"bench: splitchaos imported from {loaded}, not from {self.root / 'src'}")
        return wall

    def run_checked(self, argv, label):
        """Run a child that acts as the CLI; check and count its output."""
        stdout = self.work / f"{label}.out"
        p = self.prepared
        output = p.output or stdout
        output.unlink(missing_ok=True)
        wall, rss, exit_code = run_child(argv, self.work, self.env, stdout)
        self.attempted += 1
        data = output.read_bytes() if output.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        self.digests.add(digest)
        if exit_code != p.expect_exit:
            error = f"exit {exit_code}, expected {p.expect_exit}: {Path(f'{stdout}.err').read_text()[-300:]}"
        elif len(self.digests) > 1:
            error = "output differs from an earlier run of the same inputs"
        else:
            error = p.check(data)
        return wall, rss, error

    def fail(self, label, error):
        if error:
            self.failures.append(f"{label}: {error}")

    def cli_argv(self):
        return [sys.executable, "-m", "splitchaos", *self.prepared.argv]

    def traced_argv(self, spans, run_id):
        return [sys.executable, str(BENCH_DIR / "traced.py"), "trace", str(spans), run_id, "--", *self.prepared.argv]


def until(seconds, step, minimum):
    """Call step() until the next call would likely end past `seconds`; at least `minimum` times."""
    t0 = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= minimum and elapsed * (n + 1) / n > seconds:
            return n


def measure_end_to_end(bench, seconds):
    walls, setups, rsss = [], [], []

    def step():
        setups.append(bench.setup_probe())
        wall, rss, error = bench.run_checked(bench.cli_argv(), "cli")
        bench.fail("cli", error)
        walls.append(wall)
        rsss.append(rss)

    until(seconds, step, MIN_SAMPLES)
    wall, setup = statistics.median(walls), statistics.median(setups)
    samples = {
        "wall_s": ("s", walls),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", rsss),
    }
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "iters_per_s": (bench.workload.iterations / (wall - setup), "1/s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
    }
    return metrics, samples


def span_metrics(doc, spawn, exit_time):
    """Per-layer figures of one traced run from its spans."""
    spans = doc["spans"]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    def self_time(names):
        return sum(dur(s) - sum(dur(c) for c in children.get(s["id"], ())) for s in spans if s["name"] in names)

    def count(name, key):
        return sum(s[key] for s in spans if s["name"] == name and key in s)

    main = next(s for s in spans if s["name"] == "cli.main")
    load = next(s for s in spans if s["name"] == "specfile.load_spec")
    after_setup = exit_time - load["end"]
    covered = sum(dur(c) for c in children[main["id"]] if c is not load)
    games = [s for s in spans if s["name"] == "chaos.run"]
    csv_s = total("raster.write_csv")
    csv_bytes = count("raster.write_csv", "bytes")
    return {
        "cli.import_s": total("cli.import"),
        "cli.self_s": self_time({"cli.main"}),
        "specfile.load_spec_s": total("specfile.load_spec"),
        "chaos.run_s": total("chaos.run"),
        "chaos.iterations": sum(s["iterations"] for s in games),
        "chaos.draws": sum(s["draws"] for s in games),
        "raster.rasterize_s": total("raster.rasterize"),
        "raster.write_ppm_s": total("raster.write_ppm"),
        "raster.overflow": count("raster.rasterize", "overflow"),
        "raster.write_csv_s": csv_s,
        "raster.csv_bytes": csv_bytes,
        "raster.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "ifs.iterate_hutchinson_s": total("ifs.iterate_hutchinson"),
        "ifs.oracle_points": count("ifs.iterate_hutchinson", "points"),
        "checks.nearest_componentwise_s": total("checks.nearest_componentwise"),
        "checks.replay_s": total("checks.replay_component_game"),
        "checks.attractor_membership_s": total("checks.attractor_membership"),
        "checks.tally_convergence_s": total("checks.tally_convergence"),
        "checks.decoupling_s": total("checks.decoupling"),
        "checks.self_s": self_time(
            {"checks.run_all", "checks.attractor_membership", "checks.tally_convergence", "checks.decoupling"}
        ),
        "trace.wall_s": exit_time - spawn,
        "trace.coverage": covered / after_setup,
    }


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "specfile.load_spec_s": "s",
    "rng.ns_per_draw": "ns",
    "rng.draws": "count",
    "chaos.run_s": "s",
    "chaos.self_s": "s",
    "chaos.ns_per_iter": "ns",
    "chaos.select_ns": "ns",
    "raster.rasterize_s": "s",
    "raster.write_ppm_s": "s",
    "raster.overflow": "count",
    "raster.write_csv_s": "s",
    "raster.csv_bytes": "B",
    "raster.csv_mb_per_s": "MB/s",
    "ifs.iterate_hutchinson_s": "s",
    "ifs.oracle_points": "count",
    "checks.nearest_componentwise_s": "s",
    "checks.replay_s": "s",
    "checks.attractor_membership_s": "s",
    "checks.tally_convergence_s": "s",
    "checks.decoupling_s": "s",
    "checks.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def measure_traced(bench, seconds):
    rows, walls = [], []

    def step():
        k = len(rows)
        wall, _, error = bench.run_checked(bench.cli_argv(), "cli")
        bench.fail("cli", error)
        walls.append(wall)
        spans = bench.work / f"spans-{k}.json"
        spawn = time.perf_counter()
        # A traced output that differs from the CLI's fails the agreement check.
        _, _, error = bench.run_checked(bench.traced_argv(spans, f"{bench.workload.name}-{k}"), "traced")
        exit_time = time.perf_counter()
        if not spans.exists():
            bench.fail("traced", error or "no spans written")
            return
        row = span_metrics(json.loads(spans.read_text()), spawn, exit_time)
        if not error and row["trace.coverage"] < MIN_COVERAGE:
            error = f"spans cover {row['trace.coverage']:.3f} of the wall after set-up"
        bench.fail("traced", error)

        out = bench.work / "calibrate.out"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), "calibrate", str(spans), str(bench.prepared.spec)]
        _, _, exit_code = run_child(argv, bench.work, bench.env, out)
        bench.attempted += 1
        cal = json.loads(out.read_text()) if exit_code == 0 else {"draws_exact": False}
        if not cal["draws_exact"]:
            bench.fail("calibrate", f"the recorded RNGs did not make the expected draws: {cal}")
            return
        row["rng.ns_per_draw"] = cal["ns_per_draw"]
        row["rng.draws"] = cal["draws"]
        row["chaos.select_ns"] = cal["select_ns"]
        # Computed, not traced: chaos time less the calibrated cost of its own draws.
        row["chaos.self_s"] = row["chaos.run_s"] - row["chaos.draws"] * cal["ns_per_draw"] * 1e-9
        row["chaos.ns_per_iter"] = 1e9 * row["chaos.run_s"] / row["chaos.iterations"]
        rows.append(row)

    until(seconds, step, 1)
    if not rows:
        raise SystemExit(f"bench: no traced run completed: {bench.failures}")
    med = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    med["trace.overhead_s"] = med["trace.wall_s"] - statistics.median(walls)
    metrics = {name: (med[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    samples = {"trace.wall_s": ("s", [r["trace.wall_s"] for r in rows]), "cli wall_s": ("s", walls)}
    return metrics, samples


def run_record(root):
    src = root / "src" / "splitchaos"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def _terminate(signum, _frame):
    # Raised inside run_child's wait, which then kills and reaps the child.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "splitchaos" / "cli.py").is_file():
        print(f"bench: {root} has no src/splitchaos; run from the root of a splitchaos checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("bench: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, args.seed, work)
    bench.setup_probe()  # compiles bytecode and warms the file cache; not timed
    measure = measure_traced if args.trace else measure_end_to_end
    metrics, samples = measure(bench, args.seconds)
    if bench.prepared.output:
        bench.prepared.output.unlink(missing_ok=True)

    record = run_record(root)
    failed = len(bench.failures)
    print(f"bench {workload.name} seed={args.seed} trace={args.trace} iterations={workload.iterations}")
    print("  record: " + " ".join(f"{k}={v}" for k, v in record.items()))
    print("  inputs: " + " ".join(f"{k}={v}" for k, v in bench.prepared.properties.items()))
    for name, (unit, values) in samples.items():
        print(
            f"  {name:<22} median {statistics.median(values):.6g} {unit}  n={len(values)}"
            f"  min {min(values):.6g}  max {max(values):.6g}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    if args.trace:
        print(f"  spans: {work}/spans-*.json")
    print(f"  failed_frac {failed / bench.attempted:.3g} ({failed}/{bench.attempted})")
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "record.json").write_text(
        json.dumps(
            {
                "record": record,
                "inputs": bench.prepared.properties,
                "samples": {name: values for name, (_, values) in samples.items()},
                "failures": bench.failures,
                "result": result,
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
