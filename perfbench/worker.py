"""One fresh interpreter of the benchmark; run.py starts it.

    worker.py setup --workload W --seed N --dir D [--expect]
        Import fedcarbon, write the workload's inputs to D and load its
        config, then print time.monotonic() at that point (run.py turns
        it into the set-up time).  With --expect, also write the checks'
        expectations and the inputs' digest to D/expect.json.

    worker.py run --workload W --dir D --seconds S --trace 0|1
        Call fedcarbon.cli.main in process: one untimed warm-up, then
        timed calls for about S seconds, each between two timings of the
        reference kernel (reference.py), checking the outputs of every
        call.  With --trace 1 untraced and traced calls alternate.
        Writes D/result.json, and D/spans.jsonl when tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import fedcarbon.cli  # noqa: E402
from fedcarbon.profiles import load_config  # noqa: E402

import spans  # noqa: E402
from reference import reference_seconds  # noqa: E402
from workloads import WORKLOADS, digest_files  # noqa: E402

MIN_TIMED_CALLS = 3


def setup(args: argparse.Namespace) -> None:
    workload = WORKLOADS[args.workload]
    directory = Path(args.dir)
    workload.generate(args.seed, directory)
    load_config(directory / "config.json")
    ready = time.monotonic()
    print(repr(ready), flush=True)
    inputs = digest_files(workload.input_files(directory))
    if args.expect:
        (directory / "expect.json").write_text(json.dumps(
            {"seed": args.seed, "inputs_sha256": inputs,
             **workload.expectations(args.seed)}))
    print(inputs, flush=True)


def _call(argv: list[str]) -> tuple[int, float]:
    # The CLI's messages (exit 3 explains itself on stderr) are not
    # benchmark output.
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = fedcarbon.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed


def run(args: argparse.Namespace) -> None:
    workload = WORKLOADS[args.workload]
    directory = Path(args.dir)
    expect = json.loads((directory / "expect.json").read_text())
    argv = workload.argv(directory)

    problems: list[str] = []
    attempted = failed = 0
    first_digest: str | None = None
    accuracy = None
    work_items = 0

    def checked(code: int) -> None:
        nonlocal attempted, failed, first_digest, accuracy, work_items
        attempted += 1
        outcome = workload.check(directory, code, expect)
        if not outcome.problems:
            digest = digest_files(workload.output_files(directory))
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                outcome.problems.append("outputs differ from the first call's")
        if outcome.problems:
            failed += 1
            problems.extend(outcome.problems)
        else:
            accuracy, work_items = outcome.accuracy, outcome.work_items

    checked(_call(argv)[0])  # warm-up: untimed, checked

    # Per timed call: (traced, wall s, wall over the mean of the reference
    # kernel timed just before and just after it).
    calls: list[tuple[bool, float, float]] = []
    layer_runs: list[dict[str, float]] = []
    cells: list[float] = []
    self_by_name: dict[str, float] = {}
    all_spans: list[spans.Span] = []

    def count(traced: bool) -> int:
        return sum(1 for c in calls if c[0] == traced)

    ref_before = reference_seconds()
    start = time.perf_counter()
    last = 0.0
    # Start a call only if it should end within the budget, so a run lasts
    # about --seconds however slow one call is.
    while (time.perf_counter() - start + last <= args.seconds
           or count(False) < MIN_TIMED_CALLS
           or (args.trace and count(True) < MIN_TIMED_CALLS)):
        traced = bool(args.trace) and count(True) < count(False)
        if traced:
            rec = spans.Recorder()
            rec.invocation = count(True)
            with spans.Tracer(rec):
                root = rec.begin("cli.main")
                code, elapsed = _call(argv)
                rec.end(root)
            layer_runs.append(spans.invocation_metrics(rec.spans))
            cells.extend(spans.cell_ms(rec.spans))
            for name, own in spans.self_time_by_name(rec.spans).items():
                self_by_name[name] = self_by_name.get(name, 0.0) + own
            all_spans.extend(rec.spans)
        else:
            code, elapsed = _call(argv)
        ref_after = reference_seconds()
        calls.append((traced, elapsed, elapsed / (0.5 * (ref_before + ref_after))))
        last = elapsed + ref_after
        ref_before = ref_after
        checked(code)

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "run_s": [c[1] for c in calls if not c[0]],
        "run_ref": [c[2] for c in calls if not c[0]],
        "traced_run_s": [c[1] for c in calls if c[0]],
        "traced_run_ref": [c[2] for c in calls if c[0]],
        "accuracy": accuracy,
        "work_items": work_items,
        "outputs_sha256": first_digest,
        "inputs_sha256": expect["inputs_sha256"],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layer_runs"] = layer_runs
        result["cell_ms"] = cells
        result["self_s_by_span"] = {k: v / count(True) for k, v in self_by_name.items()}
        spans.write_spans(directory / "spans.jsonl", all_spans)
    (directory / "result.json").write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--expect", action="store_true")
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    (setup if args.mode == "setup" else run)(args)


if __name__ == "__main__":
    main()
