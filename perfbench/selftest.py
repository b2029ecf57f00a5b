"""Self-tests of the benchmark's own machinery, on small inputs (a few seconds).

Usage: ``python3 perfbench/selftest.py``; exits 1 if any check fails.

* Spans nest under the right parent, self times are non-negative, and the
  spans of a traced CLI operation account for its wall time except at most
  ``layers.CLI_MAX_ROOT_SELF`` seconds of interpreter start and exit.
* A traced operation writes byte-identical files to an untraced one, so the
  wrapping changes no behaviour; the same holds for traced batch calls.
* BENCHMARK.json names the metrics the code reports and workloads it runs.
* The output checks accept real outputs and reject damaged ones, and the
  independent ordinal encoding agrees with a brute-force one.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import spans
from batch_worker import time_calls
from checkout import SRC, WORK_PARENT, assert_measured_package, child_env, run
from checks import Expect, check_run_dir, digests, ordinal_codes
from inputs import batch_rows, write_noise

HERE = Path(__file__).resolve().parent
FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)
        print(f"FAIL {message}")


def test_benchmark_json() -> None:
    from run import END_TO_END, WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END, "end_to_end differs from run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER, "per_layer differs from layers.py")
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "a workload is unknown to run.py")


def test_tracer_nesting() -> None:
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer", lambda t, a, k, r: t.count("n", len(r)))
    root = tracer.begin("root")
    outer()
    tracer.end(root)
    names = [(s[0], None if s[3] is None else tracer.spans[s[3]][0]) for s in tracer.spans]
    expect(
        names == [("root", None), ("outer", "root")] + [("inner", "outer")] * 3 + [("bench.count", "root")],
        f"tracer nesting {names}",
    )
    expect(tracer.counts == {"n": 3}, f"tracer counts {dict(tracer.counts)}")
    expect(not spans.tree_problems(tracer.spans, {"inner": "outer"}), "synthetic tree has problems")
    expect(spans.tree_problems(tracer.spans, {"inner": "root"}) != [], "wrong parent not reported")
    own = spans.self_times(tracer.spans)
    expect(min(own) >= 0.0, f"negative self time {own}")
    expect(abs(sum(own) - (tracer.spans[0][2] - tracer.spans[0][1])) < 1e-9, "self times do not sum to the root")


def _cli_cases(work: Path) -> list[tuple[str, list[str], Expect]]:
    noise = work / "noise.csv"
    write_noise(noise, seed=5, samples=5_000)
    pipeline = ["pipeline", "lorenz", "--seed", "1", "--points", "30000"]
    return [
        ("pipeline", pipeline, Expect(3_000, 4, 6, 1, frozenset({"partitions.csv", "embedded.csv"}))),
        ("analyze", ["analyze", str(noise), "--m", "5", "--tau", "1"], Expect(5_000, 5, 1, 1, frozenset({"opn_edges.csv"}))),
        ("levels", ["levels", str(noise), "--m", "5", "--tau", "1"], Expect(5_000, 5, 1, 1, frozenset({"level_network.csv"}))),
    ]


def test_traced_cli(work: Path) -> None:
    env = child_env(work)
    for name, args, want in _cli_cases(work):
        plain_dir, traced_dir, spans_path = work / f"{name}-plain", work / f"{name}-traced", work / f"{name}.json"
        code, _, _, _ = run([sys.executable, "-m", "ordmaps", *args, "--out-dir", str(plain_dir)], work, env, work / name, 60.0)
        expect(code == 0, f"{name}: untraced exit {code}")
        traced = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(SRC), *args, "--out-dir", str(traced_dir)]
        code, start, wall, _ = run(traced, work, env, work / f"{name}-t", 60.0)
        expect(code == 0, f"{name}: traced exit {code}")
        if code != 0:
            continue
        expect(check_run_dir(plain_dir, want) == [], f"{name}: checks {check_run_dir(plain_dir, want)}")
        expect(digests(plain_dir) == digests(traced_dir), f"{name}: traced outputs differ from untraced ones")
        child_spans, counts = spans.load(spans_path)
        tree = spans.adopt(layers.OP_ROOT, start, start + wall, child_spans)
        problems = spans.tree_problems(tree, layers.CLI_PARENTS, layers.CLI_MAX_ROOT_SELF)
        expect(problems == [], f"{name}: span tree {problems[:3]}")
        unexpected = {s[0] for s in tree[1:]} - set(layers.CLI_PARENTS)
        expect(not unexpected, f"{name}: spans without an expected parent {unexpected}")
        metrics = layers.operation_metrics(tree, counts)
        expect(metrics["cli.import_s"] > 0 and metrics["cli.self_s"] > 0, f"{name}: cli spans missing")
        expect(metrics["encoding.windows"] > 0 and metrics["exports.bytes"] > 0, f"{name}: counts missing")
        if name != "levels":
            expect(
                metrics["ranking.weighted_entropies_calls"] == metrics["ranking.partitions"] == metrics["encoding.patterns"],
                f"{name}: one weighted_entropies call per occurring pattern",
            )


def test_checks_reject_damage(work: Path) -> None:
    name, args, want = _cli_cases(work)[1]
    run_dir = work / "damaged"
    code, _, _, _ = run([sys.executable, "-m", "ordmaps", *args, "--out-dir", str(run_dir)], work, child_env(work), work / "damaged", 60.0)
    expect(code == 0 and check_run_dir(run_dir, want) == [], "analyze outputs fail their checks")
    (run_dir / "extra.csv").write_text("x\n")
    expect(check_run_dir(run_dir, want) != [], "an unlisted file is not reported")
    (run_dir / "extra.csv").unlink()
    partitions = run_dir / "partitions.csv"
    lines = partitions.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = str(int(cells[1]) + 1)  # O of the first partition
    partitions.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    expect(check_run_dir(run_dir, want) != [], "a wrong occurrence sum is not reported")
    cells[1] = str(int(cells[1]) - 1)
    cells[8] = "9"  # level_w beyond max_levels
    partitions.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    expect(check_run_dir(run_dir, want) != [], "a level label beyond max_levels is not reported")


def test_batch_pass() -> None:
    sys.path.insert(0, str(SRC))
    import ordmaps

    assert_measured_package(ordmaps.__file__, SRC)

    values, lengths, rows = batch_rows(seed=7, count=3_000)
    reference = ordinal_codes(values, lengths, 3)
    brute = []
    for row in rows:
        for k in range(len(row) - 2):
            window = list(row[k : k + 3])
            order = sorted(range(3), key=lambda i: (window[i], i))
            brute.append(sum((i + 1) * 4 ** (2 - rank) for rank, i in enumerate(order)))
    expect(reference.tolist() == brute, "independent encoding disagrees with brute force")

    cfg = ordmaps.WindowConfig(m=3, tau=1)
    _, plain, _, failed = time_calls(rows, ordmaps.TimeSeries, ordmaps.symbolize, cfg)
    expect(failed == 0 and np.array_equal(np.concatenate(plain), reference), "symbolize disagrees with the reference")
    tracer = spans.Tracer()
    root = tracer.begin(layers.OP_ROOT)
    construct = tracer.wrap(ordmaps.TimeSeries, "series.construct")
    encode = tracer.wrap(ordmaps.symbolize, "encoding.symbolize")
    _, traced, _, failed = time_calls(rows, construct, encode, cfg)
    tracer.end(root)
    expect(failed == 0 and all(np.array_equal(a, b) for a, b in zip(plain, traced)), "traced calls changed the codes")
    expect(spans.tree_problems(tracer.spans, layers.BATCH_PARENTS) == [], "batch span tree has problems")
    expect(len(tracer.spans) == 1 + 2 * len(rows), f"batch spans {len(tracer.spans)}")


def main() -> int:
    test_benchmark_json()
    test_tracer_nesting()
    test_batch_pass()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_PARENT))
    try:
        test_traced_cli(work)
        test_checks_reject_damage(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass
    print(json.dumps({"selftest": "fail" if FAILURES else "ok", "failures": len(FAILURES)}))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
