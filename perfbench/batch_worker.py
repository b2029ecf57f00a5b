"""The symbolize-batch worker: many tiny series through the library in process.

Usage: ``batch_worker.py SRC_DIR SEED``. Set-up generates the series from
the seed, imports ordmaps and warms the call path, then prints ``ready``. It
then reads one JSON line ``{"seconds": S, "trace": 0|1}`` from stdin (end of
input means exit), runs operations until S seconds have passed and every
series has been through an untraced one, checks every returned code array,
and prints one JSON line of results.

One operation calls ``symbolize(TimeSeries(row, dt=1.0), WindowConfig(m=3,
tau=1))`` once for each of the next 10^4 series, cycling through the 10^5,
one call in flight. With ``trace`` 1, operations alternate between untraced
and traced, where the traced ones record spans ``series.construct`` and
``encoding.symbolize`` around each call.
"""

import json
import sys
import time

import numpy as np

from checkout import assert_measured_package
from checks import batch_failures, codes_sha256, ordinal_codes
from inputs import BATCH_CHUNK, batch_rows
from layers import OP_ROOT, operation_metrics
from spans import Tracer

M = 3
WARMUP_SERIES = 2_000


def time_calls(rows, construct, encode, cfg):
    """Time one call per row: (seconds, codes per row, per-call ns, failed calls)."""
    results = [None] * len(rows)
    latencies = [0] * len(rows)
    failed = 0
    clock = time.perf_counter_ns
    start = time.perf_counter()
    for i, row in enumerate(rows):
        t0 = clock()
        try:
            results[i] = encode(construct(row, dt=1.0), cfg).codes
        except Exception as exc:  # a failing call is counted, not fatal
            failed += 1
            if failed == 1:
                print(f"perfbench: series {i} failed: {exc!r}", file=sys.stderr)
        latencies[i] = clock() - t0
    return time.perf_counter() - start, results, latencies, failed


def main() -> int:
    src_dir, seed = sys.argv[1], int(sys.argv[2])
    import ordmaps

    assert_measured_package(ordmaps.__file__, src_dir)
    values, lengths, rows = batch_rows(seed)
    cfg = ordmaps.WindowConfig(m=M, tau=1)
    time_calls(rows[:WARMUP_SERIES], ordmaps.TimeSeries, ordmaps.symbolize, cfg)
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line:
        return 0
    request = json.loads(line)
    seconds, trace = float(request["seconds"]), bool(request["trace"])

    expected = ordinal_codes(values, lengths, M)  # reference for every chunk, untimed
    ends = np.cumsum(np.maximum(lengths - M + 1, 0))  # end of each series' codes in `expected`
    chunks = range(0, len(rows), BATCH_CHUNK)
    plain, traced_chunks = [], []  # [seconds, call p50 us, call p99 us], [seconds, per-layer metrics]
    first_codes = {}  # chunk start -> codes of its first untraced run, for output_sha256
    attempted = failed = 0
    began = time.perf_counter()
    while (
        time.perf_counter() - began < seconds
        or len(plain) < len(chunks)
        or (trace and not traced_chunks)
    ):
        traced = trace and len(plain) > len(traced_chunks)
        a = chunks[(len(traced_chunks) if traced else len(plain)) % len(chunks)]
        b = min(a + BATCH_CHUNK, len(rows))
        if traced:
            tracer = Tracer()
            root = tracer.begin(OP_ROOT)
            construct = tracer.wrap(ordmaps.TimeSeries, "series.construct")
            encode = tracer.wrap(ordmaps.symbolize, "encoding.symbolize")
            wall, results, lat, call_failures = time_calls(rows[a:b], construct, encode, cfg)
            tracer.end(root)
        else:
            wall, results, lat, call_failures = time_calls(rows[a:b], ordmaps.TimeSeries, ordmaps.symbolize, cfg)
        attempted += b - a
        want = expected[ends[a - 1] if a else 0 : ends[b - 1]]
        failed += batch_failures(results, lengths[a:b], want, M)  # raised calls included
        if traced:
            codes = [r for r in results if r is not None]
            tracer.counts["encoding.windows"] = float(sum(len(r) for r in codes))
            tracer.counts["encoding.patterns"] = float(np.unique(np.concatenate(codes)).size)
            traced_chunks.append([wall, operation_metrics(tracer.spans, tracer.counts)])
        else:
            plain.append([wall, *(np.percentile(lat, [50, 99]) / 1e3).tolist()])
            if call_failures == 0:
                first_codes.setdefault(a, np.concatenate(results))
    output_sha256 = None
    if len(first_codes) == len(chunks):
        output_sha256 = codes_sha256(lengths, np.concatenate([first_codes[a] for a in chunks]))
    print(
        json.dumps(
            {
                "plain": plain,
                "traced": traced_chunks,
                "attempted": attempted,
                "failed": failed,
                "output_sha256": output_sha256,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
