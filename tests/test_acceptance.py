"""Acceptance suite: one test per release criterion.

Each test measures its quantities, records one PASS/FAIL line through
_record (printed at the end of the run and written to
acceptance_report.txt), then asserts. Known-red criteria stay red; the
recorded detail carries the measured values.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import ordmaps as om
from ordmaps import cli, manifest
from ordmaps.ranking import rank_partitions
import oracles

RESULTS: list[tuple[int, str, bool, str]] = []

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"


def _record(num: int, name: str, ok: bool, detail: str) -> None:
    RESULTS.append((num, name, ok, detail))


def format_results() -> list[str]:
    lines = []
    for num, name, ok, detail in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        lines.append(f"criterion {num:02d} {status} {name}: {detail}")
    return lines


@pytest.fixture(scope="session", autouse=True)
def acceptance_report():
    yield
    if RESULTS:
        REPORT_PATH.write_text("\n".join(format_results()) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def rossler_series():
    return om.integrate_rossler(cfg=om.SimulationConfig(seed=1))


@pytest.fixture(scope="module")
def mackey_series():
    return om.integrate_mackey_glass(cfg=om.SimulationConfig())


def test_c01_symbolize_matches_bruteforce_oracle(rng):
    start = time.perf_counter()
    # memoized oracle: every possible window content maps to its pattern,
    # stored as the packed code so comparison needs no decoding
    table = {}
    for m in (2, 3):
        for win in itertools.product((1.0, 2.0, 3.0), repeat=m):
            table[(m, win)] = oracles.encode(oracles.chronological(win), m)
    mismatches = 0
    checked = 0
    for n in range(2, 13):
        m = 2 if n < 3 else 3
        cfg = om.WindowConfig(m=m, tau=1, w=1)
        grid = np.array(list(itertools.product((1.0, 2.0, 3.0), repeat=n)))
        for row in grid:
            seq = om.symbolize(om.TimeSeries(row, dt=1.0), cfg)
            values = tuple(row)
            expected = [
                table[(m, values[k : k + m])] for k in range(0, n - m + 1)
            ]
            checked += 1
            if seq.codes.tolist() != expected:
                mismatches += 1

    random_checked = 0
    for _ in range(1000):
        n = int(rng.integers(5, 51))
        values = np.round(rng.normal(size=n), 1)  # rounding forces ties
        while True:
            m = int(rng.integers(2, 7))
            tau = int(rng.integers(1, 5))
            w = int(rng.integers(1, 4))
            if oracles.window_count(n, m, tau, w) >= 1:
                break
        seq = om.symbolize(om.TimeSeries(values, dt=1.0), om.WindowConfig(m=m, tau=tau, w=w))
        expected = oracles.symbolize(values.tolist(), m, tau, w, "chronological")
        random_checked += 1
        if [s.perm for s in seq.symbols] != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _record(
        1,
        "symbolize oracle equivalence",
        ok,
        f"{checked} exhaustive + {random_checked} random series, "
        f"{mismatches} mismatches, {elapsed:.1f}s (budget 30s)",
    )
    assert ok


def test_c02_entropy_matches_shannon_oracle(rng):
    codes_pool = [om.pattern_code(om.OrdinalPattern(p)) for p in itertools.permutations((1, 2, 3))]
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        codes = rng.choice(codes_pool, size=n).astype(np.int64)
        seq = om.SymbolSequence(codes=codes, config=om.WindowConfig(m=3, tau=1, w=1))
        got = om.permutation_entropy(om.occupancy(seq))
        perms = [om.decode_pattern(int(c), 3).perm for c in codes]
        want = oracles.shannon(oracles.occupancy_probs(perms).values())
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    _record(2, "entropy matches independent Shannon computation", ok,
            f"200 random sequences (length <= 30), worst |delta| = {worst:.2e} (tol 1e-12)")
    assert ok


def test_c03_window_count_identity(rng):
    bad = 0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        tau = int(rng.integers(1, 9))
        w = int(rng.integers(1, 6))
        span = (m - 1) * tau
        n = span + 1 + int(rng.integers(0, 300))
        got = om.window_count(n, om.WindowConfig(m=m, tau=tau, w=w))
        if got != (n - span - 1) // w + 1:
            bad += 1
    ok = bad == 0
    _record(3, "window-count identity", ok, f"1000 random (N, m, tau, w), {bad} mismatches")
    assert ok


def test_c04_pattern_bound(rng, lorenz_analysis):
    _, reports = lorenz_analysis
    violations = []
    if len(reports) > math.factorial(4):
        violations.append(f"lorenz run has {len(reports)} patterns")
    for _ in range(200):
        n = int(rng.integers(10, 200))
        m = int(rng.integers(2, 6))
        values = rng.integers(0, 6, size=n).astype(float)
        seq = om.symbolize(om.TimeSeries(values, dt=1.0), om.WindowConfig(m=m, tau=1, w=1))
        if len(om.distinct_patterns(seq)) > math.factorial(m):
            violations.append(f"m={m} exceeded m!")
    mono = om.symbolize(om.TimeSeries(np.arange(40.0), dt=1.0), om.WindowConfig(m=4, tau=2, w=1))
    if len(om.distinct_patterns(mono)) != 1:
        violations.append("monotone input gave more than one pattern")
    ok = not violations
    _record(4, "pattern count bounded by m!", ok,
            "; ".join(violations) if violations else
            f"200 random runs + monotone + lorenz ({len(reports)} of 24 patterns)")
    assert ok, violations


def _convergence_ratio(integrate) -> float:
    def run(dt, points):
        cfg = om.SimulationConfig(dt=dt, total_points=points, discard_fraction=0.0,
                                  initial_state=(1.0, 1.0, 1.0))
        return integrate(cfg=cfg).samples

    coarse = run(0.01, 101)
    mid = run(0.005, 201)
    fine = run(0.0025, 401)
    e1 = float(np.sqrt(np.mean((coarse - mid[::2]) ** 2)))
    e2 = float(np.sqrt(np.mean((mid[::2] - fine[::4]) ** 2)))
    return e1 / e2


def test_c05_integrator_convergence():
    r_lorenz = _convergence_ratio(om.integrate_lorenz)
    r_rossler = _convergence_ratio(om.integrate_rossler)

    cfg = om.SimulationConfig(dt=0.01, total_points=1001, discard_fraction=0.0)
    ts = om.integrate_mackey_glass(params=om.MackeyGlassParams(history_value=1.0), cfg=cfg)
    mg_dev = float(np.abs(ts.samples - 1.0).max())

    ok = 12.0 <= r_lorenz <= 20.0 and 12.0 <= r_rossler <= 20.0 and mg_dev <= 1e-9
    _record(5, "integrator step-halving order", ok,
            f"ratio lorenz {r_lorenz:.2f}, rossler {r_rossler:.2f} (need [12, 20]); "
            f"constant-history deviation {mg_dev:.1e} over 10 time units (tol 1e-9)")
    assert ok


def test_c06_descending_partition_range():
    start = time.perf_counter()
    series = om.integrate_lorenz(cfg=om.SimulationConfig(seed=1))
    seq = om.symbolize(series, om.WindowConfig())
    sub = om.extract_subseries(series, seq, om.OrdinalPattern((4, 3, 2, 1)))
    elapsed = time.perf_counter() - start
    lo, hi = float(sub.samples.min()), float(sub.samples.max())
    ok = -9.3 <= lo and hi <= 19.5 and elapsed < 60.0
    _record(6, "descending-partition sub-series range", ok,
            f"[{lo:.3f}, {hi:.3f}] within [-9.3, 19.5], {elapsed:.1f}s (budget 60s)")
    assert ok


def test_c07_partition_frm_matches_maxima_frm(lorenz_series, lorenz_analysis):
    seq, reports = lorenz_analysis
    report = next(r for r in reports if r.pattern.perm == (4, 3, 2, 1))
    part_rm = om.frm_from_entries(lorenz_series, report.entry_indices)
    max_rm = om.maxima_frm(lorenz_series)

    p = part_rm.pairs
    q = max_rm.pairs
    bbox = q.max(axis=0) - q.min(axis=0)
    diag = float(np.hypot(*bbox))
    # nearest maxima-FRM point for every partition-FRM point
    d2 = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
    mean_nn = float(np.sqrt(d2.min(axis=1)).mean())

    max_idx = om.local_maxima_indices(lorenz_series)
    gaps = np.abs(report.entry_indices[:, None] - max_idx[None, :]).min(axis=1)
    near_share = float((gaps <= 18).mean())

    ok = mean_nn < 0.05 * diag and near_share >= 0.95
    _record(7, "partition FRM equals maxima FRM", ok,
            f"mean NN distance {mean_nn:.4f} < {0.05 * diag:.4f} (5% of diagonal); "
            f"{near_share:.1%} of entries within 18 samples of a maximum (need 95%)")
    assert ok


def test_c08_three_entropy_levels(lorenz_analysis):
    _, reports = lorenz_analysis
    levels = {r.transition_level for r in reports}
    var_w = float(np.var([r.weighted_entropy for r in reports]))
    var_wt = float(np.var([r.transition_entropy for r in reports]))
    ok = levels == {1, 2, 3} and var_w > var_wt
    _record(8, "three entropy levels and variance ordering", ok,
            f"h_wt levels {sorted(levels)}; var(h_w) = {var_w:.4f} > var(h_wt) = {var_wt:.4f}")
    assert ok


def test_c09_level_network_forbidden_edges(lorenz_analysis):
    seq, reports = lorenz_analysis
    net = om.build_level_network(om.level_sequence(seq, reports))
    total = net.total()
    w23 = net.weight(2, 3)
    w33 = net.weight(3, 3)
    ok = w23 <= 0.01 * total and w33 <= 0.01 * total
    _record(9, "level network starves 2->3 and 3->3", ok,
            f"w(2->3) = {w23}, w(3->3) = {w33} of {total} transitions "
            f"({w23 / total:.4%}, {w33 / total:.4%}; cap 1% each)")
    assert ok


def test_c10_wing_confinement_by_level(lorenz_series, lorenz_analysis):
    _, reports = lorenz_analysis
    violations = []
    evaluated = 0
    for r in sorted(reports, key=lambda r: r.pattern.perm):
        if len(r.entry_indices) < 2:
            continue
        evaluated += 1
        split = om.wing_split(om.frm_from_entries(lorenz_series, r.entry_indices))
        straddles = split.above_count > 0 and split.below_count > 0
        if r.transition_level in (1, 2) and not straddles:
            violations.append(f"{r.pattern.dashed()} (level {r.transition_level}) one-sided")
        elif r.transition_level == 3 and straddles:
            violations.append(
                f"{r.pattern.dashed()} (level 3) straddles "
                f"{split.above_count}/{split.below_count}"
            )
    ok = len(violations) <= 1
    _record(10, "FRM wing confinement by level", ok,
            f"{evaluated} partitions, {len(violations)} violations (allow 1)"
            + (f": {'; '.join(violations)}" if violations else ""))
    assert ok, violations


def test_c11_secondary_system_levels(rossler_series, mackey_series, lorenz_series):
    clauses = []

    seq = om.symbolize(rossler_series, om.window_from_embedding(om.ROSSLER_EMBEDDING, 4))
    reports = om.analyze_partitions(rossler_series, seq)
    ros_w = len({r.weighted_level for r in reports})
    ros_wt = len({r.transition_level for r in reports})
    ros_ok = ros_w == 3 and ros_wt == 2
    clauses.append((ros_ok, f"rossler h_w {ros_w} levels (need 3), h_wt {ros_wt} (need 2)"))

    seq = om.symbolize(mackey_series, om.window_from_embedding(om.MACKEY_GLASS_EMBEDDING, 4))
    reports = om.analyze_partitions(mackey_series, seq)
    mg_w = len({r.weighted_level for r in reports})
    mg_wt = len({r.transition_level for r in reports})
    mg_ok = mg_w == 1 and mg_wt == 1
    ranked = rank_partitions(reports, "weighted_entropy")
    top_gap = ranked[1].weighted_entropy - ranked[2].weighted_entropy
    clauses.append((
        mg_ok,
        f"mackey-glass expected one level, detector finds {mg_w} (h_w) / {mg_wt} (h_wt): "
        f"the two monotone patterns dominate occurrence, and the drop after them "
        f"({top_gap:.3f} from a top value of {ranked[0].weighted_entropy:.3f}) "
        f"exceeds the 0.15 gap fraction; no seed is involved (constant prehistory), "
        f"and m in {{3, 4, 5}} behaves the same, so the cliff is structural",
    ))

    seq = om.symbolize(lorenz_series, om.window_from_embedding(om.LORENZ_EMBEDDING, 10))
    reports = om.analyze_partitions(lorenz_series, seq)
    count_ok = len(reports) <= math.factorial(10)
    top = [r for r in reports if r.transition_level == 1]
    frm_ok = all(
        len(r.entry_indices) >= 2
        and len(om.frm_from_entries(lorenz_series, r.entry_indices)) >= 1
        for r in top
    )
    m10_ok = count_ok and frm_ok and len(top) > 0
    clauses.append((m10_ok,
                    f"lorenz m=10: {len(reports)} patterns <= 10!, "
                    f"{len(top)} top-level partitions, all FRMs non-empty"))

    ok = all(c for c, _ in clauses)
    _record(11, "benchmark system level counts", ok, " | ".join(d for _, d in clauses))
    assert ok, clauses[1][1]


def test_c12_pipeline_rerun_byte_identical(tmp_path, trajectory_cache, monkeypatch):
    # the pipeline integrates and stores its tail (a miss); the rerun reads it back (a hit)
    first = tmp_path / "first"
    again = tmp_path / "again"
    rc = cli.main(["pipeline", "lorenz", "--seed", "1", "--out-dir", str(first)])
    assert rc == 0
    assert (trajectory_cache / "lorenz.f8").exists()
    monkeypatch.setattr(cli, "integrate_lorenz", None)  # a rerun that integrated would fail
    rc = cli.main(["rerun", str(first / "manifest.json"), "--out-dir", str(again)])
    assert rc == 0

    names = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in again.iterdir())
    diffs = [n for n in names if (first / n).read_bytes() != (again / n).read_bytes()]
    ok = names == names2 and not diffs
    _record(12, "pipeline rerun is byte-identical", ok,
            f"{len(names)} files compared" + (f", diffs: {diffs}" if diffs else ", no differences"))
    assert ok, diffs
