"""Naive reference implementations for test expectations.

Everything here favours obviousness over speed: per-window python sorts,
dict counters and direct formula transcription. Tests freeze oracle
outputs or compare package results against them; the package never
imports this module, which borrows only the package's error types and
series container, and for :func:`partition_reports` and
:func:`partition_columns` its configs, ``symbolize`` and key packing.
"""

import math
import re
from collections import namedtuple
from dataclasses import replace

import numpy as np

from ordmaps import encoding, ranking
from ordmaps.errors import ConfigError, DivergenceError, ParseError, TooShortError
from ordmaps.series import TimeSeries


def cells(column):
    """Per-cell text by dtype: float64 via "{:.17g}".format, integers via str, others as they are."""
    if column.dtype == np.float64:
        return map("{:.17g}".format, column.tolist())
    if column.dtype.kind in "iu":
        return map(str, column.tolist())
    return column.tolist()


def csv_text(header, columns):
    """A header line, then each row's cells joined by commas, one line per row."""
    rows = zip(*map(cells, columns), strict=True)
    return "".join(line + "\n" for line in [",".join(header), *map(",".join, rows)])


def series_text(samples, dt):
    """The canonical series file: a dt comment, the header x, one sample per line."""
    return f"# dt={dt:.17g}\n" + csv_text(["x"], [samples])


def load_series(path, format="csv", dt=None):
    """A series file read line by line: one float per row, comments, one header row.

    The same rules and messages as ``ordmaps.load_series``, which converts
    whole batches of rows at once.
    """
    header_dt = None
    header_skipped = False
    values = []
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = re.search(r"dt\s*=\s*([^\s,]+)", line)
                if match:
                    try:
                        header_dt = float(match.group(1))
                    except ValueError:
                        raise ParseError(
                            f"cannot parse dt {match.group(1)!r} at row {lineno}", row=lineno
                        ) from None
                continue
            cells = line.split(",") if format == "csv" else line.split()
            cells = [c.strip() for c in cells if c.strip()]
            if len(cells) != 1:
                raise ParseError(
                    f"expected one value per row, row {lineno} has {len(cells)}", row=lineno
                )
            try:
                value = float(cells[0])
            except ValueError:
                if not values and not header_skipped:
                    header_skipped = True
                    continue
                raise ParseError(
                    f"non-numeric value {cells[0]!r} at row {lineno}", row=lineno
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value at row {lineno}", row=lineno)
            values.append(value)
    if len(values) < 2:
        raise TooShortError(f"{path} holds {len(values)} samples; at least 2 required")
    if dt is None:
        dt = header_dt
    if dt is None:
        raise ConfigError(f"dt not given and no '# dt=...' header found in {path}")
    return TimeSeries(np.asarray(values), dt)


def window_count(n, m, tau, w):
    span = (m - 1) * tau
    if span + 1 > n:
        return 0
    return (n - span - 1) // w + 1


def windows(values, m, tau, w):
    out = []
    for k in range(window_count(len(values), m, tau, w)):
        start = k * w
        out.append(tuple(values[start + j * tau] for j in range(m)))
    return out


def chronological(window):
    """1-based positions sorted by ascending value; tied values keep index order."""
    order = sorted(range(len(window)), key=lambda j: (window[j], j))
    return tuple(j + 1 for j in order)


def amplitude(window):
    """Per-position ranks, 1 for the largest value.

    A tie is counted as if the earlier sample were slightly smaller, the
    same convention chronological() uses.
    """
    m = len(window)
    ranks = []
    for j in range(m):
        beats = sum(
            1
            for i in range(m)
            if window[i] > window[j] or (window[i] == window[j] and i > j)
        )
        ranks.append(beats + 1)
    return tuple(ranks)


def symbolize(values, m, tau, w, ranking="chronological"):
    rank = chronological if ranking == "chronological" else amplitude
    return [rank(win) for win in windows(values, m, tau, w)]


def encode(perm, m):
    code = 0
    for r in perm:
        code = code * (m + 1) + r
    return code


def decode(code, m):
    """Inverse of :func:`encode`: the m base-(m+1) digits of the key, most significant first."""
    digits = []
    for _ in range(m):
        code, digit = divmod(code, m + 1)
        digits.append(int(digit))
    return tuple(reversed(digits))


def chron_to_amplitude(perm):
    """Amplitude ranks of a chronological permutation: position j of ascending rank r_j gets m + 1 - r_j."""
    m = len(perm)
    ascending_rank = [0] * m
    for rank, idx in enumerate(perm, start=1):
        ascending_rank[idx - 1] = rank
    return tuple(m + 1 - r for r in ascending_rank)


def amplitude_to_chron(perm):
    """Inverse of :func:`chron_to_amplitude`."""
    m = len(perm)
    chron = [0] * m
    for idx, amp_rank in enumerate(perm, start=1):
        chron[m - amp_rank] = idx
    return tuple(chron)


def pair_counts(symbols):
    counts = {}
    for a, b in zip(symbols, symbols[1:]):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def occupancy_probs(symbols):
    """Row-sum occupancy of the transition-count matrix, keyed by symbol."""
    counts = pair_counts(symbols)
    total = sum(counts.values())
    rows = {}
    for (a, _), c in counts.items():
        rows[a] = rows.get(a, 0) + c
    return {a: c / total for a, c in rows.items()}


def shannon(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def weighted(probs, share):
    """Direct transcription of the share-scaled entropy sum."""
    return -sum(
        share * p * (math.log2(p) + math.log2(share)) for p in probs if p > 0
    )


def entry_positions(symbols):
    return [
        k for k, s in enumerate(symbols) if k == 0 or symbols[k - 1] != s
    ]


def maxima(values):
    """Strict interior maxima after compressing equal-value runs."""
    runs = []
    for i, v in enumerate(values):
        if not runs or runs[-1][1] != v:
            runs.append((i, v))
    out = []
    for r in range(1, len(runs) - 1):
        if runs[r][1] > runs[r - 1][1] and runs[r][1] > runs[r + 1][1]:
            out.append(runs[r][0])
    return out


def levels(sorted_vals, gap_fraction=0.15, max_levels=3):
    n = len(sorted_vals)
    gaps = [
        (sorted_vals[i] - sorted_vals[i + 1], i) for i in range(n - 1)
    ]
    qualifying = [g for g in gaps if g[0] > gap_fraction * sorted_vals[0]]
    qualifying.sort(key=lambda g: (-g[0], g[1]))
    cuts = sorted(i for _, i in qualifying[: max_levels - 1])
    labels = []
    level = 1
    for i in range(n):
        labels.append(level)
        if i in cuts:
            level += 1
    return labels


PartitionRow = namedtuple(
    "PartitionRow",
    "pattern occurrence entries occurrence_share entry_share entropy weighted_entropy transition_entropy "
    "entry_indices degenerate weighted_level transition_level",
)


def partition_reports(series, seq, sub_cfg=None, level_cfg=None):
    """Every partition as one :class:`PartitionRow`, with one entropy sum per partition.

    The per-partition path that ``ordmaps.ranking.partition_table`` replaced:
    windows split by pattern, terms and entry indices split per partition,
    each block summed on its own, and levels set row by row after two key
    sorts.
    """
    sub_cfg = sub_cfg or ranking.SubSeriesConfig()
    level_cfg = level_cfg or ranking.LevelConfig()
    grouped = np.argsort(seq.inverse, kind="stable")
    groups = np.split(grouped, np.cumsum(np.bincount(seq.inverse))[:-1])
    order = np.concatenate(groups)
    occurrence = np.array([len(g) for g in groups])
    owner = np.repeat(np.arange(len(groups)), occurrence)
    offset = np.arange(len(order)) - np.repeat(np.cumsum(occurrence) - occurrence, occurrence)
    span = sub_cfg.window().span
    counted = (offset % sub_cfg.w == 0) & (offset + span + sub_cfg.w < occurrence[owner])
    entered = seq.entries[order]
    entries = np.bincount(owner[entered], minlength=len(groups))
    shares = np.array([occurrence / len(seq), entries / seq.entry_count])
    sums = np.zeros((len(groups), 3))
    if counted.any():
        sub = TimeSeries(series.samples[seq.start_indices[order]], series.dt)
        codes = encoding.symbolize(sub, replace(sub_cfg.window(), w=1)).codes[counted[: len(order) - span]]
        secondary, dense = np.unique(codes, return_inverse=True)
        pair, count = np.unique(owner[counted] * len(secondary) + dense, return_counts=True)
        row = pair // len(secondary)
        p = count / np.bincount(owner[counted])[row]
        log_p = np.log2(p)
        log_shares = np.array([[math.log2(k) for k in ks] for ks in shares.tolist()])
        terms = np.stack([p * log_p, *(k[row] * p * (log_p + log_k[row]) for k, log_k in zip(shares, log_shares))])
        blocks = np.split(terms, np.cumsum(np.bincount(row, minlength=len(groups)))[:-1], axis=1)
        sums = np.array([block.sum(axis=1) for block in blocks])
    entry_indices = np.split(seq.start_indices[order[entered]], np.cumsum(entries)[:-1])
    rows = [
        PartitionRow(pattern, o, e, k, k_hat, h, h_w, h_wt, idx, o < sub_cfg.min_samples(), 1, 1)
        for pattern, o, e, k, k_hat, (h, h_w, h_wt), idx in zip(
            seq.patterns, occurrence.tolist(), entries.tolist(), *shares.tolist(), (-sums + 0.0).tolist(), entry_indices
        )
    ]
    for by, attr in zip(ranking.RANK_KEYS, ranking.LEVEL_KEYS):
        ranked = sorted(range(len(rows)), key=lambda i: (-getattr(rows[i], by), rows[i].pattern.perm))
        labels = levels([getattr(rows[i], by) for i in ranked], level_cfg.gap_fraction, level_cfg.max_levels)
        for i, label in zip(ranked, labels):
            rows[i] = rows[i]._replace(**{attr: label})
    return rows


def symbolize_one_shot(series, cfg):
    """Codes and start indices of every window, all gathered, argsorted and encoded at once.

    The one-shot body of ``ordmaps.encoding.symbolize`` before it ranked a
    block of windows at a time; it holds several n x m arrays.
    """
    count = encoding.window_count(len(series.samples), cfg)
    starts = np.arange(0, count * cfg.w, cfg.w, dtype=np.int64)
    offsets = np.arange(0, cfg.span + 1, cfg.tau, dtype=np.int64)
    windows = series.samples[starts[:, None] + offsets[None, :]]
    order = windows.argsort(axis=1, kind="stable")
    return encoding.encode_perm_rows(order + 1), starts


def delay_embed(samples, dim, lag):
    """Embedding points gathered by index: row k holds samples k, k + lag, ..., k + (dim - 1) * lag.

    The gather of ``ordmaps.embedding.delay_embed`` before it copied the rows
    of ``ordmaps.encoding.window_view``.
    """
    count = len(samples) - (dim - 1) * lag
    idx = np.arange(count, dtype=np.int64)[:, None] + np.arange(dim, dtype=np.int64)[None, :] * lag
    return samples[idx]


def partition_columns(series, seq, sub_cfg=None, level_cfg=None):
    """Every column of ``ordmaps.ranking.partition_table``, all partitions measured in one pass.

    The one-pass body that the block-at-a-time table replaced: the windows
    sorted by partition once, every sub-series laid end to end and symbolized
    by :func:`symbolize_one_shot`, the (partition, secondary pattern) pairs
    counted by ``np.unique``, and the terms of the partitions with the same
    number of pairs summed as one batch. Levels as ``partition_table`` sets
    them, by :func:`levels` in descending entropy order.
    """
    sub_cfg = sub_cfg or ranking.SubSeriesConfig()
    level_cfg = level_cfg or ranking.LevelConfig()
    order = np.argsort(seq.inverse, kind="stable")
    occurrence = np.bincount(seq.inverse)
    count = len(occurrence)
    owner = np.repeat(np.arange(count), occurrence)
    offset = np.arange(len(order)) - np.repeat(np.cumsum(occurrence) - occurrence, occurrence)
    span = sub_cfg.window().span
    counted = (offset % sub_cfg.w == 0) & (offset + span + sub_cfg.w < occurrence[owner])
    entered = seq.entries[order]
    entries = np.bincount(owner[entered], minlength=count)
    shares = np.array([occurrence / len(seq), entries / seq.entry_count])
    sums = np.zeros((3, count))
    if counted.any():
        sub = TimeSeries(series.samples[seq.start_indices[order]], series.dt)
        codes = symbolize_one_shot(sub, replace(sub_cfg.window(), w=1))[0][counted[: len(order) - span]]
        secondary, dense = np.unique(codes, return_inverse=True)
        pair, pairs = np.unique(owner[counted] * len(secondary) + dense, return_counts=True)
        row = pair // len(secondary)
        p = pairs / np.bincount(owner[counted])[row]
        log_p = np.log2(p)
        log_shares = np.array([[math.log2(k) for k in ks] for ks in shares.tolist()])
        terms = np.stack([p * log_p, *(k[row] * p * (log_p + log_k[row]) for k, log_k in zip(shares, log_shares))])
        lengths = np.bincount(row, minlength=count)
        first = np.cumsum(lengths) - lengths
        for length in np.unique(lengths[lengths > 0]).tolist():
            which = np.flatnonzero(lengths == length)
            block = np.ascontiguousarray(terms[:, first[which, None] + np.arange(length)])
            sums[:, which] = block.sum(axis=2)
    entropy, weighted_entropy, transition_entropy = -sums + 0.0
    columns = {
        "occurrence": occurrence,
        "entries": entries,
        "occurrence_share": shares[0],
        "entry_share": shares[1],
        "entropy": entropy,
        "weighted_entropy": weighted_entropy,
        "transition_entropy": transition_entropy,
        "degenerate": occurrence < sub_cfg.min_samples(),
        "weighted_level": np.ones(count, dtype=np.int64),
        "transition_level": np.ones(count, dtype=np.int64),
        "entry_starts": seq.start_indices[order[entered]],
        "entry_offsets": np.concatenate([[0], np.cumsum(entries)]),
    }
    for by, attr in zip(ranking.RANK_KEYS, ranking.LEVEL_KEYS):
        ranked = np.argsort(-columns[by], kind="stable")
        columns[attr][ranked] = levels(columns[by][ranked].tolist(), level_cfg.gap_fraction, level_cfg.max_levels)
    return columns


def lorenz(sigma, rho, beta, state, dt, total_points):
    """x at every grid point of the Lorenz flow, one list append per RK4 step."""
    x, y, z = state
    half, sixth = 0.5 * dt, dt / 6.0
    xs = [x]
    for _ in range(1, total_points):
        k1x = sigma * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z
        ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = sigma * (ay - ax)
        k2y = ax * (rho - az) - ay
        k2z = ax * ay - beta * az
        bx, by, bz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = sigma * (by - bx)
        k3y = bx * (rho - bz) - by
        k3z = bx * by - beta * bz
        cx, cy, cz = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = sigma * (cy - cx)
        k4y = cx * (rho - cz) - cy
        k4z = cx * cy - beta * cz
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        xs.append(x)
    return xs


def rossler(alpha, beta, gamma, state, dt, total_points):
    """x at every grid point of the Rossler flow, one list append per RK4 step."""
    x, y, z = state
    half, sixth = 0.5 * dt, dt / 6.0
    xs = [x]
    for _ in range(1, total_points):
        k1x = -y - z
        k1y = x + alpha * y
        k1z = beta + (x - gamma) * z
        ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = -ay - az
        k2y = ax + alpha * ay
        k2z = beta + (ax - gamma) * az
        bx, by, bz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = -by - bz
        k3y = bx + alpha * by
        k3z = beta + (bx - gamma) * bz
        cx, cy, cz = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = -cy - cz
        k4y = cx + alpha * cy
        k4z = beta + (cx - gamma) * cz
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        xs.append(x)
    return xs


def mackey_glass(beta, gamma, n, d, hv, x, dt, total_points):
    """Mackey-Glass under RK4 with the whole history kept and indexed d steps back.

    Indices before 0 read the constant pre-history hv.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    xs = [x]
    for step in range(1, total_points):
        j0 = step - 1 - d
        j1 = j0 + 1
        xd0 = xs[j0] if j0 >= 0 else hv
        xd1 = xs[j1] if j1 >= 0 else hv
        xdh = 0.5 * (xd0 + xd1)
        p0 = beta * xd0 / (1.0 + xd0**n)
        ph = beta * xdh / (1.0 + xdh**n)
        p1 = beta * xd1 / (1.0 + xd1**n)
        k1 = p0 - gamma * x
        k2 = ph - gamma * (x + half * k1)
        k3 = ph - gamma * (x + half * k2)
        k4 = p1 - gamma * (x + dt * k3)
        x += sixth * (k1 + 2.0 * (k2 + k3) + k4)
        xs.append(x)
    return xs


def mackey_glass_ring(params, past, cfg):
    """The Mackey-Glass stream as it was before each delayed power was reused.

    Every step checks both delayed values and raises all three to their power,
    so it stands in for ``ordmaps.sources._mackey_glass`` with the same
    arguments, outputs and divergence steps.
    """
    beta, gamma, n = params.beta, params.gamma, params.exponent
    x = past[-1]
    dt = cfg.dt
    half, sixth = 0.5 * dt, dt / 6.0
    yield x
    for step in range(1, cfg.total_points):
        xd0, xd1 = past[0], past[1]
        if xd0 < 0.0 or xd1 < 0.0:
            raise DivergenceError("mackey-glass state left the nonnegative domain", step=step)
        xdh = 0.5 * (xd0 + xd1)
        try:
            p0 = beta * xd0 / (1.0 + xd0**n)
            ph = beta * xdh / (1.0 + xdh**n)
            p1 = beta * xd1 / (1.0 + xd1**n)
        except OverflowError:
            raise DivergenceError("mackey-glass delayed term overflowed", step=step) from None
        k1 = p0 - gamma * x
        k2 = ph - gamma * (x + half * k1)
        k3 = ph - gamma * (x + half * k2)
        k4 = p1 - gamma * (x + dt * k3)
        x += sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(x):
            raise DivergenceError("mackey-glass state became non-finite", step=step)
        past.append(x)
        yield x
