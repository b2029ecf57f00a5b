"""The ordmaps benchmark: one workload, one seed, one closed-loop run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it measures the ``src/ordmaps`` next to this directory.
Set-up generates the workload's inputs from the seed and warms the
interpreter's bytecode cache, nine times, reporting the median. Then one
client runs operations back to back for S seconds (and at least two), one in
flight:

* a CLI workload runs ``python -m ordmaps ...`` as a fresh process per
  operation, with ``--out-dir`` in a work directory under the checkout;
* ``symbolize-batch`` runs chunks of 10^4 of 10^5 tiny series in one worker
  process.

Every operation's outputs are checked after it ends, outside the timing.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` operations alternate between untraced and traced
ones (spans recorded around the calls into each ordmaps module) and the JSON
holds the per-layer metrics of the median traced operation. The lines before
it list the same metrics for people, with every operation's time,
``fail_ratio`` and the ``output_sha256`` of the outputs.

``op_s`` is the median over the run's untraced operations: on a shared host,
other tenants slow identical work by a third or more in phases of seconds to
minutes, so a long run and its median are the steadiest estimate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spans
from checkout import SRC, WORK_PARENT, BenchError, assert_measured_package, child_env, run, wait
from checks import Expect, check_run_dir, digests
from inputs import BATCH_CHUNK, NOISE_SAMPLES, write_noise

HERE = Path(__file__).resolve().parent
SETUPS = 9
MIN_OPS = 2  # a run measures for --seconds and at least this many operations
RUN_DEADLINE_S = 170.0  # no operation may run past this point of a run
PROBE = "import sys, ordmaps.cli; sys.stdout.write(ordmaps.__file__)"

END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")]

_ANALYSIS_FILES = {"symbols.csv", "partitions.csv", "entropy_curve.csv", "opn_edges.csv", "opn_nodes.csv"}
_LEVEL_FILES = {"level_sequence.csv", "level_network.csv"}
_PIPELINE_FILES = {"series.csv", "frm_all.csv", "diagonal_summary.json", "embedded.csv"}


@dataclass(frozen=True)
class CliWorkload:
    args: tuple[str, ...]  # "{seed}" and "{input}" are filled in per run
    noise_input: bool
    expect: Expect


CLI_WORKLOADS = {
    "pipeline-lorenz": CliWorkload(
        ("pipeline", "lorenz", "--seed", "{seed}"),
        False,
        Expect(100_000, 4, 6, 1, frozenset(_ANALYSIS_FILES | _LEVEL_FILES | _PIPELINE_FILES)),
    ),
    "levels-noise-m7": CliWorkload(
        ("levels", "{input}", "--m", "7", "--tau", "1"),
        True,
        Expect(NOISE_SAMPLES, 7, 1, 1, frozenset(_LEVEL_FILES)),
    ),
    "analyze-noise-m7": CliWorkload(
        ("analyze", "{input}", "--m", "7", "--tau", "1"),
        True,
        Expect(NOISE_SAMPLES, 7, 1, 1, frozenset(_ANALYSIS_FILES)),
    ),
}
WORKLOADS = (*CLI_WORKLOADS, "symbolize-batch")


@dataclass
class Result:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # untraced operations, in order
    rss_mb: list[float] = field(default_factory=list)
    call_us: list[tuple[float, float]] = field(default_factory=list)  # per-call (p50, p99) of each batch operation
    traced: list[tuple[float, dict[str, float]]] = field(default_factory=list)  # (wall, per-layer metrics)
    attempted: int = 0
    failed: int = 0
    output_sha256: str | None = None

    def typical(self) -> int:
        """Index of the median untraced operation (the lower one of an even count)."""
        order = sorted(range(len(self.op_s)), key=self.op_s.__getitem__)
        return order[(len(order) - 1) // 2]


def _tail(path: Path, limit: int = 600) -> str:
    text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
    return text[-limit:].strip()


def measure_cli(workload: CliWorkload, seed: int, seconds: float, trace: bool, work: Path, t0: float) -> Result:
    env = child_env(work)
    result = Result()
    for k in range(SETUPS):
        start = time.perf_counter()
        setup_dir = work / f"setup{k}"
        setup_dir.mkdir()
        input_path = setup_dir / "noise.csv"
        if workload.noise_input:
            write_noise(input_path, seed)
        code, _, _, _ = run([sys.executable, "-c", PROBE], work, env, setup_dir / "probe", 60.0)
        if code != 0:
            raise BenchError(f"cannot import ordmaps from {SRC}: {_tail(setup_dir / 'probe.err')}")
        assert_measured_package((setup_dir / "probe.out").read_text(encoding="utf-8"), SRC)
        result.setup_s.append(time.perf_counter() - start)
    args = [a.format(seed=seed, input=input_path) for a in workload.args]

    first_raw = None
    spans_path = work / "spans.json"
    traced_count = 0
    began = time.perf_counter()
    while True:
        if time.perf_counter() - t0 >= RUN_DEADLINE_S:
            break
        if time.perf_counter() - began >= seconds and result.attempted >= MIN_OPS and (traced_count or not trace):
            break
        index = result.attempted
        traced = trace and len(result.op_s) > traced_count
        out_dir = work / f"op{index}"
        entry = [str(HERE / "traced_cli.py"), str(spans_path), str(SRC)] if traced else ["-m", "ordmaps"]
        argv = [sys.executable, *entry, *args, "--out-dir", str(out_dir)]
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - t0))
        code, start, wall, rss = run(argv, work, env, work / f"op{index}", timeout)
        result.attempted += 1
        traced_count += traced

        problems = [] if code == 0 else [f"exit code {code}: {_tail(work / f'op{index}.err')}"]
        if (work / "runs").exists():
            problems.append("wrote to runs/<digest> instead of --out-dir")
            shutil.rmtree(work / "runs")
        if code == 0:
            problems += check_run_dir(out_dir, workload.expect)
            raw, portable = digests(out_dir)
            first_raw = first_raw or raw
            result.output_sha256 = result.output_sha256 or portable
            if raw != first_raw:
                problems.append("outputs differ from the run's first operation")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            result.failed += 1
            print(f"perfbench: operation {index} failed: " + "; ".join(problems), file=sys.stderr)
        elif traced:
            child_spans, counts = spans.load(spans_path)
            tree = spans.adopt(layers.OP_ROOT, start, start + wall, child_spans)
            for problem in spans.tree_problems(tree, layers.CLI_PARENTS, layers.CLI_MAX_ROOT_SELF):
                print(f"perfbench: trace of operation {index}: {problem}", file=sys.stderr)
            result.traced.append((wall, layers.operation_metrics(tree, counts)))
        if not traced:
            result.op_s.append(wall)
            result.rss_mb.append(rss)
    return result


def measure_batch(seed: int, seconds: float, trace: bool, work: Path, t0: float) -> Result:
    env = child_env(work)
    result = Result()
    argv = [sys.executable, str(HERE / "batch_worker.py"), str(SRC), str(seed)]
    for k in range(SETUPS):
        measured = k == SETUPS - 1
        with open(work / f"worker{k}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True
            )
            # the watchdog also covers the reads below
            watchdog = threading.Timer(max(1.0, RUN_DEADLINE_S - (start - t0)), proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                result.setup_s.append(time.perf_counter() - start)
                line = ""
                if ready.strip() == "ready" and measured:
                    proc.stdin.write(json.dumps({"seconds": seconds, "trace": int(trace)}) + "\n")
                proc.stdin.close()
                if measured:
                    line = proc.stdout.readline()
                proc.stdout.close()
                code, rss = wait(proc, RUN_DEADLINE_S)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    wait(proc, 10.0)
        if ready.strip() != "ready" or code != 0:
            raise BenchError(f"symbolize-batch worker failed (exit {code}): {_tail(work / f'worker{k}.err')}")
    report = json.loads(line)
    result.op_s = [wall for wall, _, _ in report["plain"]]
    result.call_us = [(p50, p99) for _, p50, p99 in report["plain"]]
    result.rss_mb = [rss]
    result.traced = [(wall, metrics) for wall, metrics in report["traced"]]
    result.attempted = report["attempted"]
    result.failed = report["failed"]
    result.output_sha256 = report["output_sha256"]
    return result


def end_to_end(result: Result) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result.setup_s),
        "op_s": statistics.median(result.op_s),
        "peak_rss_mb": statistics.median(result.rss_mb),
    }


def per_layer(result: Result) -> dict[str, float]:
    if not result.traced:
        return {name: 0.0 for name, _ in layers.PER_LAYER}
    traced = sorted(result.traced, key=lambda t: t[0])
    _, metrics = traced[(len(traced) - 1) // 2]
    overhead = statistics.median(wall for wall, _ in traced) - statistics.median(result.op_s)
    return {**metrics, "bench.trace_overhead_s": overhead}


def report_lines(result: Result) -> list[tuple[str, str]]:
    """Human-readable extras printed before the JSON line."""
    lines = [
        ("op_s fastest", f"{min(result.op_s):.6g} s"),
        ("op_s of each operation", " ".join(f"{v:.4g}" for v in result.op_s) + " s"),
    ]
    if result.call_us:  # symbolize-batch: per-call figures of the median operation
        p50, p99 = result.call_us[result.typical()]
        lines += [
            ("series_per_s", f"{BATCH_CHUNK / statistics.median(result.op_s):.6g} 1/s"),
            ("call_us.p50", f"{p50:.6g} us"),
            ("call_us.p99", f"{p99:.6g} us"),
        ]
    lines += [
        ("fail_ratio", f"{result.failed / result.attempted:.6g} ({result.failed} of {result.attempted})"),
        ("output_sha256", str(result.output_sha256)),
    ]
    return lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally blocks that stop children


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "ordmaps" / "__init__.py").is_file():
        print(f"perfbench: no ordmaps package under {SRC}", file=sys.stderr)
        return 2

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_PARENT))
    try:
        if args.workload == "symbolize-batch":
            result = measure_batch(args.seed, args.seconds, bool(args.trace), work, t0)
        else:
            workload = CLI_WORKLOADS[args.workload]
            result = measure_cli(workload, args.seed, args.seconds, bool(args.trace), work, t0)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    if not result.op_s:
        print("perfbench: no untraced operation completed", file=sys.stderr)
        return 2

    if args.trace:
        metrics, units = per_layer(result), layers.UNITS
    else:
        metrics, units = end_to_end(result), dict(END_TO_END)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(result.op_s)} untraced and {len(result.traced)} traced operations, {time.perf_counter() - t0:.1f} s"
    )
    for name, value in metrics.items():
        print(f"  {name:34} {value:.6g} {units[name]}")
    for name, text in report_lines(result):
        print(f"  {name:34} {text}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
