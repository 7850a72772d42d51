"""fedcarbon benchmark: time the CLI end to end on seeded workloads.

Run from the root of a fedcarbon source tree:

    python3 perfbench/run.py --workload optimize-live-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

For one workload the run
  1. writes the workload's inputs from the seed in an untimed fresh
     interpreter, which also computes what the output checks expect,
  2. starts one worker interpreter that calls fedcarbon.cli.main in
     process: an untimed warm-up call, then timed calls for --seconds,
     each between two timings of a fixed reference kernel, checking the
     outputs of every call,
  3. measures set-up time in SETUP_SAMPLES more fresh interpreters (start
     to fedcarbon imported, inputs written and config loaded), half of
     them before step 2 and half after it, each between two timings of
     the set-up reference (reference.py),
  4. prints a report and, as its last line, one JSON object with the
     end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

With --trace 1 the worker alternates untraced calls with calls traced by
spans.py, so trace.overhead_pct compares the two in one process.
The exit code is 1 when any output check failed, 2 on a usage problem.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and the interpreters it starts;
# set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The registry override would change what named hardware means.
os.environ.pop("FEDCARBON_REGISTRY", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from reference import SETUP_REFERENCE_NOMINAL_S, setup_reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (not an output check failure)."""


def _child(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=cwd,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def _setup(workload: str, seed: int, directory: Path, root: Path,
           expect: bool = False) -> tuple[float, str]:
    """One fresh interpreter's set-up time and the digest of its inputs."""
    directory.mkdir(parents=True)
    cmd = ["setup", "--workload", workload, "--seed", str(seed), "--dir", str(directory)]
    if expect:
        cmd.append("--expect")
    start = time.monotonic()  # system-wide clock, comparable with the child's
    lines = _child(cmd, root).stdout.split()
    return float(lines[0]) - start, lines[1]


def _percentile_beyond_ten(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it."""
    best = None
    for q in (50, 75, 90, 95, 99):
        if len(values) * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(values, n=100)[q - 1])
    return best


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fedcarbon").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha(root),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """Set up, time and check one workload; return its figures."""
    work = root / ".perfbench" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    _, inputs_sha = _setup(workload, seed, inputs, root, expect=True)

    # Per set-up sample: (wall s, wall over the mean of the set-up
    # reference timed just before and just after it).
    setups: list[tuple[float, float]] = []

    def reference() -> float:
        try:
            return setup_reference_seconds()
        except (OSError, ValueError, subprocess.SubprocessError) as exc:
            raise BenchError(f"set-up reference failed: {exc!r}") from exc

    def measure_setups(count: int) -> None:
        before = reference()
        for _ in range(count):
            directory = work / f"setup-{len(setups)}"
            elapsed, sha = _setup(workload, seed, directory, root)
            shutil.rmtree(directory)
            if sha != inputs_sha:
                raise BenchError(f"seed {seed} gave different inputs in two interpreters")
            after = reference()
            setups.append((elapsed, elapsed / (0.5 * (before + after))))
            before = after

    # Half the set-up samples before the timed calls and half after, so
    # their median spans the run rather than a moment of it.
    measure_setups(SETUP_SAMPLES // 2)
    _child(["run", "--workload", workload, "--dir", str(inputs),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"], root)
    measure_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = json.loads((inputs / "result.json").read_text())
    result["setup_wall_s"] = [wall for wall, _ in setups]
    result["setup_s"] = [ratio * SETUP_REFERENCE_NOMINAL_S for _, ratio in setups]
    result["seed"] = seed
    result["workload"] = workload
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    return {
        "run_ref": (statistics.median(result["run_ref"]), "x"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    runs = result["layer_runs"]
    out = {name: (statistics.median(r[name] for r in runs), unit)
           for name, unit in spans.PER_LAYER_UNITS.items() if name in runs[0]}
    cells = result["cell_ms"]
    out["optimize.cell_ms.p50"] = (spans.percentile(cells, 50), "ms")
    out["optimize.cell_ms.p75"] = (spans.percentile(cells, 75), "ms")
    plain = statistics.median(result["run_ref"])
    traced = statistics.median(result["traced_run_ref"])
    out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    missing = set(spans.PER_LAYER_UNITS) - set(out)
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    return out


def report(result: dict, trace: bool) -> list[str]:
    """Human-readable block: every end-to-end figure by name, with its unit
    and sample count."""
    wl = WORKLOADS[result["workload"]]
    e2e = end_to_end(result)
    n = len(result["run_s"])
    lines = [f"== {result['workload']}  seed {result['seed']}  trace {int(trace)}"]

    def row(name, value, unit, note=""):
        lines.append(f"  {name:<22} {value:>14.6g} {unit:<10} {note}")

    run_s = statistics.median(result["run_s"])
    tail = _percentile_beyond_ten(result["run_s"])
    row("run_s", run_s, "s", f"median of {n} timed calls"
        + (f", p{tail[0]} {tail[1]:.6g} s" if tail else ""))
    row("run_ref", e2e["run_ref"][0], "x", f"median of {n} calls, each over the "
        "reference kernel timed around it")
    row("reference_s", statistics.median(s / r for s, r in zip(result["run_s"], result["run_ref"])),
        "s", "reference kernel, median")
    tp_name, tp_unit = wl.throughput
    row(tp_name, result["work_items"] / run_s, tp_unit,
        f"{result['work_items']} {wl.work_unit} per call / median run_s")
    row("setup_s", e2e["setup_s"][0], "s",
        f"median of {len(result['setup_s'])} fresh interpreters, each over the set-up "
        f"reference timed around it, times {SETUP_REFERENCE_NOMINAL_S} s")
    row("setup_wall_s", statistics.median(result["setup_wall_s"]), "s",
        "the same set-ups' wall time, median")
    row("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", "worker process, 1 sample")
    if result["accuracy"] is not None:
        row("accuracy", result["accuracy"], "", "deterministic for the seed")
    row("error_rate", result["failed"] / result["attempted"], "",
        f"{result['failed']} failed of {result['attempted']} checked calls")
    for problem in result["problems"]:
        lines.append(f"  check failed: {problem}")
    if trace:
        lines.append("  largest self time per call (traced):")
        by_span = sorted(result["self_s_by_span"].items(), key=lambda kv: -kv[1])
        for name, secs in by_span[:5]:
            lines.append(f"    {name:<28} {secs:.6g} s")
    lines.append("  digests " + json.dumps({
        "inputs_sha256": result["inputs_sha256"],
        "outputs_sha256": result["outputs_sha256"]}))
    return lines


def _line(metrics: dict[str, tuple[float, str]], correct: bool, attempted: int,
          failed: int) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fedcarbon" / "cli.py").is_file():
        print(f"error: {root} holds no fedcarbon source tree (src/fedcarbon); "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        results = [run_workload(name, args.seed, args.seconds, trace, root)
                   for name in names]
        figures = [per_layer(r) if trace else end_to_end(r) for r in results]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results:
        print("\n".join(report(result, trace)))
    print("provenance " + json.dumps({"seed": args.seed, **provenance(root)}))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = figures[0]
    else:
        metrics = {f"{r['workload']}/{k}": v for r, fig in zip(results, figures)
                   for k, v in fig.items()}
    print(_line(metrics, failed == 0, attempted, failed))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
