"""Benchmark of the simlabel CLI chain on seeded synthetic inputs.

Run from the repository root:

    python3 bench/run.py --workload mine --seed 1 --seconds 55 --trace 0

The package is run from this checkout's src/ (PYTHONPATH), never from an
installed copy. With --trace 0 the chain `split ranges calibrate match augment
train score evaluate report`, then `probe-grid probe-shell`, runs as one
subprocess per command, once in full and then again, command by command,
while --seconds allow; each end-to-end metric is built from the per-command
medians of times scaled to a nominal host speed (see measure). With --trace 1
the chain runs once as subprocesses (per-command times and peak RSS), then
twice in-process through simlabel.cli.main: untraced, then with spans around
the public functions of the library modules (per-layer times and counts).

Outputs are checked outside the timed region. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the input digests, the machine and the
per-repeat figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from check import Checker, digests
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHAIN = ("split", "ranges", "calibrate", "match", "augment", "train", "score", "evaluate", "report")
PROBES = ("probe-grid", "probe-shell")
COMMANDS = CHAIN + PROBES
SETUP_RUNS = 6
STARTUP_RUNS = 3
# The host's speed drifts by up to 40% over minutes, and every timed child is
# scaled by the speed of a fixed pure-Python loop run right before and right
# after it. REFERENCE_S is the loop's duration at the nominal speed that the
# end-to-end times are reported at.
REFERENCE_LOOPS = 2_000_000
REFERENCE_S = 0.2

SETUP_SNIPPET = (
    "import sys\n"
    "import simlabel\n"
    "schema = simlabel.load_schema(sys.argv[1])\n"
    "simlabel.load_dataset(sys.argv[2], schema)\n"
    "simlabel.load_dataset(sys.argv[3], schema)\n"
)

# artifact file name (or prefix) -> the command that writes it
PRODUCERS = (
    ("train.csv", "split"), ("test.csv", "split"), ("ranges.json", "ranges"),
    ("params.json", "calibrate"), ("match_", "match"), ("similar_", "augment"),
    ("augmented_", "augment"), ("model_", "train"), ("scores_", "score"),
    ("eval_report.json", "evaluate"), ("eval_report.txt", "report"),
    ("probe_grid_", "probe-grid"), ("shell_", "probe-shell"), ("recourse_", "probe-shell"),
)


def producer(artifact: str) -> str:
    return next((cmd for prefix, cmd in PRODUCERS if artifact.startswith(prefix)), "unknown")


def run_process(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB and exit code of one child.

    The RSS comes from this child's own rusage (wait4); RUSAGE_CHILDREN would
    be a running maximum over every child this process has had.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def reference() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def cli_argv(command: str, inputs: dict, out: Path) -> list[str]:
    # The match and shell thread pools run pure Python under the GIL; on two
    # shared cores two workers were 40-70% slower than one and far noisier.
    return [command, "--config", str(inputs["config"]), "--out-dir", str(out), "--workers", "1"]


def run_command(command: str, inputs: dict, out: Path) -> tuple[float, float, int]:
    return run_process(
        [sys.executable, "-m", "simlabel", *cli_argv(command, inputs, out)],
        out.parent / f"{out.name}.{command}.log",
    )


def load_oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    return oracles


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": revision(),
    }


def revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.exists() else ref[5:]
    return ref


class Tally:
    """Commands attempted, and the (run, command) pairs that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[tuple[str, str], str] = {}

    def commands(self, run: str, codes: dict[str, int]) -> None:
        self.attempted += len(codes)
        for command, code in codes.items():
            if code != 0:
                self.failed.setdefault((run, command), f"exit code {code}")

    def problems(self, run: str, problems: dict[str, str]) -> None:
        for command, problem in problems.items():
            self.failed.setdefault((run, command), problem)

    def same_artifacts(self, run: str, got: dict[str, str], want: dict[str, str], label: str) -> None:
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                self.failed.setdefault((run, producer(name)), f"{name} differs from {label}")


def checked(tally: Tally, checker: Checker, run: str, out: Path) -> dict:
    try:
        problems, counts = checker.check(out)
    except (OSError, KeyError, ValueError, IndexError) as err:
        tally.failed.setdefault((run, "check"), f"outputs unreadable: {err!r}")
        return {}
    tally.problems(run, problems)
    return counts


def measure(workload, inputs: dict, out: Path, seconds: float, tally: Tally, checker: Checker):
    """Run the chain once, then re-run its commands until `seconds` have passed.

    Every command is idempotent (same inputs, same output bytes), so the
    re-runs happen in place. They go round the commands longest first, since
    the longest carry most of each metric's noise, and skip any command whose
    median so far would end past the deadline; the run stops when none fits.
    Set-up time is sampled SETUP_RUNS times in fresh interpreters that load the
    inputs. A reference() loop runs before the first child and after each one;
    a child's time is scaled by REFERENCE_S over the mean of the loops on
    either side of it, which takes out the host's drift. Each figure is the
    median of its scaled times.
    """
    walls: dict[str, list[float]] = {name: [] for name in (*COMMANDS, "setup")}
    scaled: dict[str, list[float]] = {name: [] for name in walls}
    rss: dict[str, list[float]] = {command: [] for command in COMMANDS}
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, str(inputs["schema"]),
                  str(inputs["labeled"]), str(inputs["unlabeled"])]
    order: list[str] = []  # the name of each child, in the order they ran
    refs = [reference()]
    start = next_setup = time.perf_counter()

    def sample(name: str, wall: float) -> None:
        refs.append(reference())
        order.append(name)
        walls[name].append(wall)
        scaled[name].append(wall * REFERENCE_S / ((refs[-2] + refs[-1]) / 2))

    def run(command: str) -> None:
        nonlocal next_setup
        # set-up samples are spread over the window, so their median sees the
        # same machine as the commands' medians
        if time.perf_counter() >= next_setup:
            wall, _, code = run_process(setup_argv, out.parent / "setup.log")
            sample("setup", wall)
            tally.commands(f"setup{len(walls['setup'])}", {"setup": code})
            next_setup += seconds / SETUP_RUNS
        wall, peak, code = run_command(command, inputs, out)
        sample(command, wall)
        rss[command].append(peak)
        tally.commands(f"run{len(walls[command])}", {command: code})

    deadline = start + seconds
    for command in COMMANDS:
        run(command)
    first_pass = digests(out)
    misses = 0
    for command in itertools.cycle(sorted(COMMANDS, key=lambda c: -walls[c][0])):
        if misses == len(COMMANDS):
            break
        if time.perf_counter() + statistics.median(walls[command]) + refs[-1] > deadline:
            misses += 1
            continue
        misses = 0
        run(command)
    tally.same_artifacts("re-runs", digests(out), first_pass, "the first pass")
    checked(tally, checker, "final", out)

    median = {name: statistics.median(values) for name, values in scaled.items()}
    metrics = {
        "chain_s": sum(median[command] for command in CHAIN),
        "mine_rows_per_s": workload.pool / (median["calibrate"] + median["match"]),
        "probe_s": sum(median[command] for command in PROBES),
        "peak_rss_mb": max(statistics.median(values) for values in rss.values()),
        "setup_s": median["setup"],
    }
    return metrics, {"wall_s": walls, "reference_s": refs, "order": order}


def measure_traced(inputs: dict, work: Path, tally: Tally, checker: Checker, trace_file: Path):
    metrics: dict[str, float] = {}
    startups = [run_process([sys.executable, "-m", "simlabel", "--help"], work / "startup.log")
                for _ in range(STARTUP_RUNS)]
    metrics["cli.startup_s"] = statistics.median(wall for wall, _, _ in startups)
    tally.commands("startup", {f"--help {i}": code for i, (_, _, code) in enumerate(startups)})

    sub_out = work / "subprocess"
    results = {command: run_command(command, inputs, sub_out) for command in COMMANDS}
    tally.commands("subprocess", {cmd: r[2] for cmd, r in results.items()})
    for command, (wall, rss, _) in results.items():
        metrics[f"cli.{command}.s"] = wall
        metrics[f"cli.{command}.rss_mb"] = rss
    metrics.update(checked(tally, checker, "subprocess", sub_out))
    want = digests(sub_out)

    sys.path.insert(0, str(SRC))
    import simlabel
    import simlabel.cli
    import spans

    metrics["kernel.gower_similarity.us_per_pair"] = spans.gower_us_per_pair(simlabel, sub_out, inputs)
    untraced_wall, codes = spans.run_chain(
        simlabel.cli.main, {c: cli_argv(c, inputs, work / "untraced") for c in COMMANDS})
    tally.commands("untraced", codes)
    tally.same_artifacts("untraced", digests(work / "untraced"), want, "the subprocess run")

    recorder = spans.Recorder()
    recorder.install()
    traced_wall, codes = spans.run_chain(
        simlabel.cli.main, {c: cli_argv(c, inputs, work / "traced") for c in COMMANDS}, recorder)
    tally.commands("traced", codes)
    tally.same_artifacts("traced", digests(work / "traced"), want, "the subprocess run")
    recorder.write(trace_file)

    metrics.update(spans.layer_metrics(recorder, traced_wall))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    self_s = metrics.get("matcher.self_s")
    if self_s and "kernel.pairs_required" in metrics:
        metrics["matcher.pairs_per_s"] = metrics["kernel.pairs_required"] / self_s
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "simlabel" / "cli.py", ROOT / "tests" / "oracles.py"]
    absent = [str(path) for path in needed if not path.exists()]
    if absent:
        print(f"bench: missing {', '.join(absent)}; run from a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        inputs = generate(workload, args.seed, work / "inputs")
        tally = Tally()
        checker = Checker(inputs, load_oracles())
        # loads the interpreter and package files, and writes the bytecode unless
        # PYTHONDONTWRITEBYTECODE is set, so the first timed command does not pay for it
        run_process([sys.executable, "-m", "simlabel", "--help"], work / "warmup.log")
        if args.trace:
            trace_file = WORK / "traces" / f"{workload.name}-{args.seed}.jsonl"
            metrics = measure_traced(inputs, work, tally, checker, trace_file)
            samples = None
        else:
            metrics, samples = measure(workload, inputs, work / "out", args.seconds, tally, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units()[args.trace]
    unmeasured = [name for name in units if name not in metrics]
    if unmeasured:
        tally.failed[("metrics", "unmeasured")] = ", ".join(unmeasured)
    failed = len(tally.failed)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "config_seed": inputs["config_seed"],
        "inputs_sha256": inputs["sha256"],
        "machine": machine(),
        "failed_frac": failed / tally.attempted,
        "failures": [f"{run} {command}: {why}" for (run, command), why in tally.failed.items()],
        "samples": samples,
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


if __name__ == "__main__":
    sys.exit(main())
