"""Session construction: synthetic vMF streams, NC/ND/NCD splits, VMFS files.

Hidden domain labels ride along in ``FeatureRecords.domain`` strictly as an
evaluation channel: training and memory-selection code never reads them (a
test pins that), matching the premise that domain labels are unknown at
training time.

VMFS file layout (all little-endian): magic "VMFS", u32 version, u32 dim,
u64 record count, then per record u64 example id, u32 class, i32 domain
(-1 = unknown), u8 role (0 train / 1 test / 2 memory) and dim float32
feature entries. ``write_stream`` writes one role for the whole file.
``read_stream`` rejects a record with a role above 2 or a non-finite feature
entry, and does not keep the role byte, as no run reads it: a record in
memory is ``ids, x, y, domain``. Payloads are float32 on disk, and a read
keeps them float32: a pool is held once, at the precision its file gives.
Synthetic pools are float64. Compute widens features with ``np.asarray(x,
dtype=np.float64)`` at the point of use, and float32 to float64 is exact, so
a pool read from a file computes the same bits as that pool held in float64.
``FeatureRecords`` keeps a float32 or float64 ``x`` as it is given (any
other real dtype becomes float64) and casts the integer columns to their
dtypes; it raises ValueError where a cast would wrap or truncate a value or
drop an imaginary part.

No full-size transient is held next to a pool: ``generate_synthetic`` draws
each cluster into its slice of the preallocated pools, and ``write_stream``
and ``read_stream`` encode and decode ``PREDICT_BLOCK_ROWS`` records at a
time, the reader straight into the output columns.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import check_ranges
from .errors import ConfigError, ParseError
from .mixture import PREDICT_BLOCK_ROWS
from .vmf import normalize_rows

STREAM_MAGIC = b"VMFS"
STREAM_VERSION = 1
ROLE_TRAIN, ROLE_TEST, ROLE_MEMORY = 0, 1, 2
_HEADER = struct.Struct("<4sIIQ")


@dataclass
class FeatureRecords:
    """Column-oriented labeled feature records."""

    ids: np.ndarray  # (n,) uint64, globally unique
    x: np.ndarray  # (n, d) float32 or float64
    y: np.ndarray  # (n,) int64 class labels
    domain: np.ndarray  # (n,) int32, -1 = unknown; evaluation-only

    def __post_init__(self):
        self.ids = _integer_column(self.ids, np.uint64, "example ids")
        self.x = _feature_matrix(self.x)
        self.y = _integer_column(self.y, np.int64, "class labels")
        self.domain = _integer_column(self.domain, np.int32, "domain labels")
        n = self.ids.shape[0]
        if self.x.ndim != 2 or any(a.shape[0] != n for a in (self.x, self.y, self.domain)):
            raise ValueError("record columns must share their leading dimension")

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "FeatureRecords":
        return FeatureRecords(self.ids[idx], self.x[idx], self.y[idx], self.domain[idx])


def _integer_column(values, dtype, name: str) -> np.ndarray:
    """``values`` as an array of ``dtype``; a cast raises ValueError instead of wrapping or truncating."""
    a = np.asarray(values)
    if a.dtype == dtype:  # nothing to check: subsets and concatenations stay free
        return a
    if a.size:
        info = np.iinfo(dtype)
        lo, hi = a.min().item(), a.max().item()
        if not (info.min <= lo and hi <= info.max):  # a NaN fails too
            raise ValueError(f"{name} must lie in [{info.min}, {info.max}] to fit {np.dtype(dtype)}")
        if a.dtype.kind == "f" and not np.array_equal(a, np.trunc(a)):
            raise ValueError(f"{name} must be whole numbers")
    return a.astype(dtype)


def _feature_matrix(values) -> np.ndarray:
    """``values`` as they are when float32 or float64, else cast to float64; ValueError for a
    nonzero imaginary part, which the cast would drop."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        if np.any(a.imag != 0):
            raise ValueError("features must be real numbers")
        a = a.real
    if a.dtype in (np.float32, np.float64):
        return a
    return a.astype(np.float64)


def concat_records(*parts: FeatureRecords) -> FeatureRecords:
    return FeatureRecords(
        np.concatenate([p.ids for p in parts]),
        np.vstack([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.domain for p in parts]),
    )


@dataclass
class SplitPlan:
    """Which (class, domain) pairs each session introduces."""

    sessions: list[list[tuple[int, int]]]


@dataclass
class SynthConfig:
    num_classes: int = field(metadata={"key": "classes", "range": "[1, inf)"})  # config file key
    domains_per_class: int = field(metadata={"range": "[1, inf)"})
    dim: int = field(metadata={"range": "[2, inf)"})
    # Wood's sampler also bounds it from above, by dim; sample_vmf checks that per cluster
    kappa_true: float = field(metadata={"range": "(0, inf)"})
    train_per_pair: int = field(metadata={"range": "[1, inf)"})
    test_per_pair: int = field(metadata={"range": "[0, inf)"})
    min_angle_deg: float = field(default=0.0, metadata={"range": "[0, 180]"})
    max_angle_deg: float | None = field(default=None, metadata={"range": "(0, 180]"})  # cone around the center
    seed: int = field(default=0, metadata={"range": "[0, inf)"})

    def __post_init__(self):
        check_ranges(self)


def sample_vmf(rng: np.random.Generator, mu: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Exact vMF sampling around ``mu`` via Wood's rejection scheme.

    ValueError unless ``mu`` is a finite unit vector (within 1e-9) with d >= 2 and
    ``kappa`` >= 0; ConfigError when ``kappa`` leaves Wood's ``b`` or ``c`` non-finite
    (NaN, inf, or past about 6e8 at d = 16), as no draw would then be accepted.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 1 or mu.shape[0] < 2 or not abs(np.linalg.norm(mu) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"mu must be a finite unit vector of dimension at least 2, got {mu}")
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    d = mu.shape[0]
    # kappa = 0 needs no branch: b = 1 and x0 = c = 0 accept every w = 1 - 2z, the uniform marginal
    kappa = np.float64(kappa)  # 4 kappa^2 overflows to inf instead of raising OverflowError
    with np.errstate(all="ignore"):
        b = (-2.0 * kappa + np.sqrt(4.0 * kappa**2 + (d - 1) ** 2)) / (d - 1)
        x0 = (1.0 - b) / (1.0 + b)
        c = kappa * x0 + (d - 1) * np.log(1.0 - x0**2)
    if not (math.isfinite(b) and math.isfinite(c)):
        raise ConfigError(f"cannot sample a vMF at kappa={kappa} in dimension {d}: out of float range")

    ws = np.empty(n)
    have = 0
    while have < n:
        todo = n - have
        z = rng.beta(0.5 * (d - 1), 0.5 * (d - 1), size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(todo)
        ok = kappa * w + (d - 1) * np.log1p(-x0 * w) - c >= np.log(u)
        took = int(np.sum(ok))
        ws[have : have + took] = w[ok]
        have += took

    tangent = normalize_rows(rng.standard_normal((n, d - 1))) if d > 2 else np.sign(
        rng.standard_normal((n, 1))
    )
    samples = np.concatenate([ws[:, None], np.sqrt(np.maximum(0.0, 1.0 - ws[:, None] ** 2)) * tangent], axis=1)

    # Householder reflection carrying e1 onto mu
    e1 = np.zeros(d)
    e1[0] = 1.0
    u_ref = e1 - mu
    nrm = np.linalg.norm(u_ref)
    if nrm > 1e-12:
        u_ref = u_ref / nrm
        samples = samples - 2.0 * np.outer(samples @ u_ref, u_ref)
    return normalize_rows(samples)


def _draw_centers(rng: np.random.Generator, count: int, dim: int, min_angle_deg: float) -> np.ndarray:
    """Random unit centers with a guaranteed minimum pairwise angle.

    Each restart draws uniform directions and then repeatedly rotates the
    worst-separated pair apart (in their common plane) until every pair
    clears the threshold; restarts shrink the extra margin aimed past the
    threshold. Plain sequential rejection stalls beyond a handful of
    near-orthogonal centers, so the repair loop does the work; everything
    remains a pure function of the generator state. Configurations close to
    the optimal packing bound can exhaust the bounded retries and raise
    ConfigError even if a packing exists.
    """
    theta_min = np.deg2rad(min_angle_deg)
    max_dot = np.cos(theta_min)
    # any n >= 2 unit vectors have a pair with dot >= -1/(n-1), in any dimension, more than
    # dim + 1 of them a pair with dot >= 0 (Rankin 1955), and more than 2 * dim a pair with
    # dot > 0: the best 2 * dim + 1 keep a worst dot of ~0.31 at dim 2, 0.21 at dim 3, ~0.1 up to
    # dim 32, far past the 1e-12 slack; cos 90 deg rounds to 6.1e-17, so that rule compares degrees
    floors = ([-1.0 / (count - 1)] if count >= 2 else []) + ([0.0] if count > dim + 1 else [])
    for floor in floors:
        if max_dot + 1e-12 < floor or (floor == 0.0 and count > 2 * dim and min_angle_deg >= 90):
            raise ConfigError(f"cannot place {count} centers with pairwise separation >= {min_angle_deg} deg "
                              f"in dimension {dim}: some pair is within {np.degrees(np.arccos(floor)):.2f} deg")
    for margin_deg in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.0):
        target = min(np.pi, theta_min + np.deg2rad(margin_deg))
        x = normalize_rows(rng.standard_normal((count, dim)))
        for _ in range(5000):
            dots = x @ x.T
            np.fill_diagonal(dots, -2.0)
            i, j = np.unravel_index(int(np.argmax(dots)), dots.shape)
            dot = float(dots[i, j])
            if dot <= max_dot + 1e-12:
                return x
            a, b = x[i].copy(), x[j].copy()
            if dot > 1.0 - 1e-12:  # coincident pair: random kick first
                b = b + 1e-3 * rng.standard_normal(dim)
                b /= np.linalg.norm(b)
                dot = float(a @ b)
            theta = np.arccos(np.clip(dot, -1.0, 1.0))
            delta = 0.5 * (target - theta)
            w = b - dot * a
            w /= np.linalg.norm(w)
            x[i] = np.cos(delta) * a - np.sin(delta) * w
            w = a - dot * b
            w /= np.linalg.norm(w)
            x[j] = np.cos(delta) * b - np.sin(delta) * w
            x[i] /= np.linalg.norm(x[i])
            x[j] /= np.linalg.norm(x[j])
    raise ConfigError(
        f"could not place {count} centers with pairwise separation >= {min_angle_deg} deg in dimension {dim}"
    )


def _sample_cluster(rng, center, cfg: SynthConfig, out: np.ndarray):
    """Fill ``out`` (n, dim) with one cluster draw, optionally truncated to a cone around the center."""
    n = out.shape[0]
    min_dot = -np.inf if cfg.max_angle_deg is None else np.cos(np.deg2rad(cfg.max_angle_deg))
    have = 0
    for _ in range(1000):
        draw = sample_vmf(rng, center, cfg.kappa_true, n - have)
        keep = draw[draw @ center >= min_dot]
        out[have : have + keep.shape[0]] = keep
        have += keep.shape[0]
        if have == n:
            return
    raise ConfigError(
        f"kappa_true={cfg.kappa_true} puts almost no mass within {cfg.max_angle_deg} deg of a center"
    )


def generate_synthetic(cfg: SynthConfig):
    """Build train/test pools of vMF clusters with known centers.

    Returns (train records, test records, centers) with centers shaped
    (num_classes, domains_per_class, dim). Deterministic in ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    centers = _draw_centers(rng, cfg.num_classes * cfg.domains_per_class, cfg.dim, cfg.min_angle_deg)
    centers = centers.reshape(cfg.num_classes, cfg.domains_per_class, cfg.dim)

    # records run pair by pair, class-major, as the clusters are drawn
    pair_class = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), cfg.domains_per_class)
    pair_domain = np.tile(np.arange(cfg.domains_per_class, dtype=np.int32), cfg.num_classes)

    def pool(per_pair: int, first_id: int) -> FeatureRecords:
        n = pair_class.size * per_pair
        return FeatureRecords(
            np.arange(first_id, first_id + n, dtype=np.uint64), np.empty((n, cfg.dim)),
            np.repeat(pair_class, per_pair), np.repeat(pair_domain, per_pair),
        )

    tr, te = cfg.train_per_pair, cfg.test_per_pair
    train = pool(tr, 0)
    test = pool(te, len(train))
    for p, (c, z) in enumerate(zip(pair_class.tolist(), pair_domain.tolist())):
        _sample_cluster(rng, centers[c, z], cfg, train.x[p * tr : (p + 1) * tr])
        if te:
            _sample_cluster(rng, centers[c, z], cfg, test.x[p * te : (p + 1) * te])
    return train, test, centers


def pair_index(pool: FeatureRecords) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The pool's distinct (class, domain) pairs, ascending, and each record's position among them.

    ``pairs[codes[i]] == (y[i], domain[i])``. After one sort by class then domain, a pair starts
    wherever either column changes. A run keeps the test pool's codes, so they take the smallest
    unsigned dtype that holds the pair count (uint8 up to 255 pairs).
    """
    order = np.lexsort((pool.domain, pool.y))
    y, z = pool.y[order], pool.domain[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (y[1:] != y[:-1]) | (z[1:] != z[:-1])
    pairs = list(zip(y[starts].tolist(), z[starts].tolist()))
    codes = np.empty(len(order), dtype=np.min_scalar_type(len(pairs)))
    codes[order] = np.cumsum(starts, dtype=codes.dtype) - 1
    return pairs, codes


def _front_loaded(classes: list[int], num_sessions: int, rng: np.random.Generator) -> list[list[int]]:
    """``classes`` shuffled and cut into ``num_sessions`` runs, larger first, sizes within one."""
    order = [classes[i] for i in rng.permutation(len(classes))]
    base, rem = divmod(len(classes), num_sessions)
    cuts = [s * base + min(s, rem) for s in range(num_sessions + 1)]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def make_splits(pool: FeatureRecords, mode: str, num_sessions: int | None, seed: int):
    """Partition a pool's records into sessions for one of the three regimes.

    NC: each session brings previously unseen classes (all their domains).
    ND: every session has every class, each gaining exactly one new domain,
    so the grid must have exactly ``num_sessions`` domains per class (None:
    the first class's domain count; NC and NCD need a number).
    NCD: every (class, domain) pair appears exactly once, with new-class
    counts per session non-increasing (new classes are front-loaded).

    Returns (SplitPlan, rows): ``rows[s]`` is session ``s``'s ascending int64
    row index into ``pool``, so ``pool.subset(rows[s])`` cuts its records
    when they are needed and no session is copied here.
    Raises ConfigError when the pool's grid cannot satisfy the requested regime,
    first, before any planning, for a count below 1 or above the pool's pair
    count: every session of every regime needs a (class, domain) pair of its own.
    """
    if num_sessions is None and mode != "ND":
        raise ConfigError(f"{mode} split requires an explicit session count")
    pairs, codes = pair_index(pool)
    grid: dict[int, list[int]] = {}  # class -> its domains, ascending
    for c, z in pairs:
        grid.setdefault(c, []).append(z)
    classes = list(grid)
    if num_sessions is None:
        num_sessions = len(grid[classes[0]]) if classes else 0
    if num_sessions < 1:
        raise ConfigError("need at least one session")
    if num_sessions > len(pairs):
        raise ConfigError(
            f"{num_sessions} sessions, but the train pool has {len(pairs)} (class, domain) pairs "
            "and each session needs one of its own"
        )
    if mode in ("ND", "NCD") and any(z < 0 for _, z in pairs):
        raise ConfigError(f"{mode} requires known domain labels")
    rng = np.random.default_rng(seed)
    if mode == "NC":
        if len(classes) < num_sessions:
            raise ConfigError(
                f"NC needs at least one fresh class per session: {len(classes)} classes, {num_sessions} sessions"
            )
        plan = [[(c, z) for c in sorted(chunk) for z in grid[c]]
                for chunk in _front_loaded(classes, num_sessions, rng)]
    elif mode == "ND":
        counts = {len(zs) for zs in grid.values()}
        if counts != {num_sessions}:
            raise ConfigError(
                f"ND needs exactly one new domain per class per session: domain counts {sorted(counts)}, "
                f"{num_sessions} sessions"
            )
        perms = {c: [grid[c][i] for i in rng.permutation(num_sessions)] for c in classes}
        plan = [[(c, perms[c][s]) for c in classes] for s in range(num_sessions)]
    elif mode == "NCD":
        counts = {len(zs) for zs in grid.values()}
        if len(counts) != 1:
            raise ConfigError("NCD needs a uniform class x domain grid")
        n_domains = counts.pop()
        intro_span = num_sessions - n_domains + 1
        if intro_span < 1:
            raise ConfigError(
                f"NCD with {n_domains} domains per class needs at least {n_domains} sessions, got {num_sessions}"
            )
        plan = [[] for _ in range(num_sessions)]
        for s0, chunk in enumerate(_front_loaded(classes, intro_span, rng)):
            for c in chunk:
                zs = [grid[c][i] for i in rng.permutation(n_domains)]
                plan[s0].append((c, zs[0]))
                free = list(range(s0 + 1, num_sessions))
                for z in zs[1:]:
                    s = min(free, key=lambda s: (len(plan[s]), s))
                    free.remove(s)
                    plan[s].append((c, z))
        plan = [sorted(p) for p in plan]
        if any(not p for p in plan):
            raise ConfigError("NCD schedule left an empty session; use fewer sessions")
    else:
        raise ConfigError(f"unknown split mode {mode!r} (expected NC, ND or NCD)")

    session_of = {p: s for s, session_pairs in enumerate(plan) for p in session_pairs}  # every pair is dealt
    record_session = np.array([session_of[p] for p in pairs])[codes]
    return SplitPlan(plan), [np.flatnonzero(record_session == s) for s in range(len(plan))]


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("y", "<u4"), ("z", "<i4"), ("role", "u1"), ("x", "<f4", (dim,))])


def _first_repeated_id(ids: np.ndarray) -> int | None:
    """Index of the first record whose id an earlier record already has, or None; valid
    ids cost one sorted copy, and only a repeat pays for locating it."""
    sorted_ids = np.sort(ids)
    if not np.any(sorted_ids[1:] == sorted_ids[:-1]):
        return None
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    return int(np.min(order[1:][sorted_ids[1:] == sorted_ids[:-1]]))


def write_stream(path, records: FeatureRecords, role: int = ROLE_TRAIN):
    """Serialize records to a VMFS file (features quantized to float32), every record with ``role``.

    Records are encoded ``PREDICT_BLOCK_ROWS`` at a time into one reused
    buffer, so writing holds no copy of the whole file. What the reader
    would reject raises ValueError before the file is opened: a role outside
    0-2, a feature entry that is not finite in float32 (NaN, infinite, or
    past float32 range), checked one block at a time, and a repeated example id.
    """
    if role not in (ROLE_TRAIN, ROLE_TEST, ROLE_MEMORY):
        raise ValueError(f"role must be {ROLE_TRAIN}, {ROLE_TEST} or {ROLE_MEMORY}, got {role!r}")
    dim, n = records.dim, len(records)
    if n and (records.y.min() < 0 or records.y.max() > np.iinfo(np.uint32).max):
        raise ValueError("class labels must be nonnegative and fit in 32 bits")
    for lo in range(0, n, PREDICT_BLOCK_ROWS):
        with np.errstate(over="ignore"):  # an entry past float32 range casts to inf, as on disk
            finite = np.isfinite(records.x[lo : lo + PREDICT_BLOCK_ROWS].astype(np.float32)).all(axis=1)
        if not finite.all():
            i = lo + int(np.argmin(finite))
            raise ValueError(f"record {i} has a feature entry that is not finite in float32")
    first = _first_repeated_id(records.ids)
    if first is not None:
        raise ValueError(f"duplicate example id {records.ids[first]} in record {first}")
    chunk = np.empty(min(n, PREDICT_BLOCK_ROWS), dtype=_record_dtype(dim))
    chunk["role"] = role
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(STREAM_MAGIC, STREAM_VERSION, dim, n))
        for lo in range(0, n, PREDICT_BLOCK_ROWS):
            part = chunk[: min(PREDICT_BLOCK_ROWS, n - lo)]
            rows = slice(lo, lo + len(part))
            part["id"] = records.ids[rows]
            part["y"] = records.y[rows]
            part["z"] = records.domain[rows]
            part["x"] = records.x[rows]
            fh.write(part)


def read_stream(path) -> FeatureRecords:
    """Parse a VMFS file; raises ParseError with the failing byte offset.

    The body is read ``PREDICT_BLOCK_ROWS`` records at a time into one reused
    buffer and decoded straight into the output columns, which are sized
    from the file length; the features stay float32, as on disk, and the
    role byte is checked but not kept. A record with a role above
    ``ROLE_MEMORY`` or a non-finite feature entry is rejected at its offset,
    and a repeated example id at the first record whose id an earlier record
    already has; on a valid file the id check holds one sorted copy of the ids.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ParseError("file too short for a VMFS header", offset=len(head))
        magic, version, dim, count = _HEADER.unpack(head)
        if magic != STREAM_MAGIC:
            raise ParseError("bad magic, not a VMFS stream", offset=0)
        if version != STREAM_VERSION:
            raise ParseError(f"unsupported VMFS version {version}", offset=4)
        try:
            rec_dtype = _record_dtype(dim)
        except ValueError:  # the record size overflows a C int
            raise ParseError(f"record dimension {dim} is too large", offset=8) from None
        size = rec_dtype.itemsize
        whole, tail = divmod(os.fstat(fh.fileno()).st_size - _HEADER.size, size)
        if tail != 0:
            raise ParseError("truncated record", offset=_HEADER.size + whole * size)
        if whole != count:
            raise ParseError(f"record count mismatch: header says {count}, file holds {whole}")
        records = FeatureRecords(
            np.empty(count, np.uint64), np.empty((count, dim), np.float32), np.empty(count, np.int64),
            np.empty(count, np.int32),
        )
        chunk = np.empty(min(count, PREDICT_BLOCK_ROWS), dtype=rec_dtype)
        for lo in range(0, count, PREDICT_BLOCK_ROWS):
            part = chunk[: min(PREDICT_BLOCK_ROWS, count - lo)]
            got = fh.readinto(part)
            if got < part.nbytes:  # the file shrank since it was sized
                raise ParseError("truncated record", offset=_HEADER.size + (lo + got // size) * size)
            finite = np.isfinite(part["x"])
            known = part["role"] <= ROLE_MEMORY
            if not (finite.all() and known.all()):  # whole-chunk reductions first: the per-row one is slower
                i = int(np.argmin(known & finite.all(axis=1)))
                what = "non-finite feature" if known[i] else f"role {part['role'][i]} (not 0, 1 or 2)"
                raise ParseError(f"{what} in record {lo + i}", offset=_HEADER.size + (lo + i) * size)
            rows = slice(lo, lo + len(part))
            records.ids[rows] = part["id"]
            records.y[rows] = part["y"]
            records.domain[rows] = part["z"]
            records.x[rows] = part["x"]
    first = _first_repeated_id(records.ids)
    if first is not None:
        raise ParseError(f"duplicate example id {records.ids[first]}", offset=_HEADER.size + first * size)
    return records
