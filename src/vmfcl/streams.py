"""Session construction: synthetic vMF streams, NC/ND/NCD splits, VMFS files.

Hidden domain labels ride along in ``FeatureRecords.domain`` strictly as an
evaluation channel: training and memory-selection code never reads them (a
test pins that), matching the premise that domain labels are unknown at
training time.

VMFS file layout (all little-endian): magic "VMFS", u32 version, u32 dim,
u64 record count, then per record u64 example id, u32 class, i32 domain
(-1 = unknown), u8 role (0 train / 1 test / 2 memory) and dim float32
feature entries. Payloads are float32 on disk; reads are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError
from .vmf import normalize_rows

STREAM_MAGIC = b"VMFS"
STREAM_VERSION = 1
ROLE_TRAIN, ROLE_TEST, ROLE_MEMORY = 0, 1, 2
_HEADER = struct.Struct("<4sIIQ")


@dataclass
class FeatureRecords:
    """Column-oriented labeled feature records."""

    ids: np.ndarray  # (n,) uint64, globally unique
    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int64 class labels
    domain: np.ndarray  # (n,) int32, -1 = unknown; evaluation-only
    role: np.ndarray  # (n,) uint8

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.uint64)
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.domain = np.asarray(self.domain, dtype=np.int32)
        self.role = np.asarray(self.role, dtype=np.uint8)
        n = self.ids.shape[0]
        if self.x.ndim != 2 or any(a.shape[0] != n for a in (self.x, self.y, self.domain, self.role)):
            raise ValueError("record columns must share their leading dimension")

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "FeatureRecords":
        return FeatureRecords(self.ids[idx], self.x[idx], self.y[idx], self.domain[idx], self.role[idx])

    @classmethod
    def empty(cls, dim: int) -> "FeatureRecords":
        return cls(
            np.zeros(0, np.uint64), np.zeros((0, dim)), np.zeros(0, np.int64),
            np.zeros(0, np.int32), np.zeros(0, np.uint8),
        )


def concat_records(*parts: FeatureRecords) -> FeatureRecords:
    return FeatureRecords(
        np.concatenate([p.ids for p in parts]),
        np.vstack([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.domain for p in parts]),
        np.concatenate([p.role for p in parts]),
    )


@dataclass
class SessionDataset:
    """Labeled records arriving at one incremental session."""

    index: int
    records: FeatureRecords

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SplitPlan:
    """Which (class, domain) pairs each session introduces."""

    mode: str
    sessions: list[list[tuple[int, int]]]


@dataclass
class SynthConfig:
    num_classes: int = field(metadata={"key": "classes"})  # config file key
    domains_per_class: int
    dim: int
    kappa_true: float
    train_per_pair: int
    test_per_pair: int
    min_angle_deg: float = 0.0
    max_angle_deg: float | None = None  # truncate clusters to a cone around their center
    seed: int = 0

    def __post_init__(self):
        if not self.kappa_true > 0:  # also rejects NaN
            raise ConfigError("kappa_true must be positive")
        if self.num_classes < 1 or self.domains_per_class < 1:
            raise ConfigError("need at least one class and one domain per class")
        if self.dim < 2:
            raise ConfigError("dim must be at least 2")
        if self.train_per_pair < 1 or self.test_per_pair < 0:
            raise ConfigError("train_per_pair must be >= 1 and test_per_pair >= 0")
        if self.max_angle_deg is not None and not 0.0 < self.max_angle_deg <= 180.0:
            raise ConfigError("max_angle_deg must lie in (0, 180]")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def sample_vmf(rng: np.random.Generator, mu: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Exact vMF sampling around ``mu`` via Wood's rejection scheme."""
    mu = np.asarray(mu, dtype=np.float64)
    d = mu.shape[0]
    if kappa == 0.0:
        return normalize_rows(rng.standard_normal((n, d)))
    b = (-2.0 * kappa + np.sqrt(4.0 * kappa**2 + (d - 1) ** 2)) / (d - 1)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1) * np.log(1.0 - x0**2)

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
    if count == 1:
        return normalize_rows(rng.standard_normal((1, dim)))
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


def _sample_cluster(rng, center, cfg: SynthConfig, n: int) -> np.ndarray:
    """One cluster draw, optionally truncated to a cone around the center."""
    if cfg.max_angle_deg is None:
        return sample_vmf(rng, center, cfg.kappa_true, n)
    min_dot = np.cos(np.deg2rad(cfg.max_angle_deg))
    out = np.empty((n, cfg.dim))
    have = 0
    for _ in range(1000):
        draw = sample_vmf(rng, center, cfg.kappa_true, n - have)
        keep = draw[draw @ center >= min_dot]
        out[have : have + keep.shape[0]] = keep
        have += keep.shape[0]
        if have == n:
            return out
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

    tr_x, tr_y, tr_z, te_x, te_y, te_z = [], [], [], [], [], []
    for c in range(cfg.num_classes):
        for z in range(cfg.domains_per_class):
            tr_x.append(_sample_cluster(rng, centers[c, z], cfg, cfg.train_per_pair))
            tr_y.append(np.full(cfg.train_per_pair, c))
            tr_z.append(np.full(cfg.train_per_pair, z))
            if cfg.test_per_pair:
                te_x.append(_sample_cluster(rng, centers[c, z], cfg, cfg.test_per_pair))
                te_y.append(np.full(cfg.test_per_pair, c))
                te_z.append(np.full(cfg.test_per_pair, z))

    n_train = cfg.num_classes * cfg.domains_per_class * cfg.train_per_pair
    n_test = cfg.num_classes * cfg.domains_per_class * cfg.test_per_pair
    train = FeatureRecords(
        np.arange(n_train, dtype=np.uint64), np.vstack(tr_x), np.concatenate(tr_y),
        np.concatenate(tr_z), np.full(n_train, ROLE_TRAIN, np.uint8),
    )
    test = FeatureRecords(
        np.arange(n_train, n_train + n_test, dtype=np.uint64),
        np.vstack(te_x) if te_x else np.zeros((0, cfg.dim)),
        np.concatenate(te_y) if te_y else np.zeros(0, np.int64),
        np.concatenate(te_z) if te_z else np.zeros(0, np.int32),
        np.full(n_test, ROLE_TEST, np.uint8),
    )
    return train, test, centers


def _grid(pool: FeatureRecords) -> dict[int, list[int]]:
    grid: dict[int, list[int]] = {}
    for c in sorted(np.unique(pool.y).tolist()):
        grid[c] = sorted(np.unique(pool.domain[pool.y == c]).tolist())
    return grid


def make_splits(pool: FeatureRecords, mode: str, num_sessions: int, seed: int):
    """Partition a pool into per-session datasets for one of the three regimes.

    NC: each session brings previously unseen classes (all their domains).
    ND: every session has every class, each gaining exactly one new domain,
    so the grid must have exactly ``num_sessions`` domains per class.
    NCD: every (class, domain) pair appears exactly once, with new-class
    counts per session non-increasing (new classes are front-loaded).

    Returns (SplitPlan, list of SessionDataset). Raises ConfigError when the
    pool's grid cannot satisfy the requested regime.
    """
    if num_sessions < 1:
        raise ConfigError("need at least one session")
    rng = np.random.default_rng(seed)
    grid = _grid(pool)
    classes = list(grid)
    if mode == "NC":
        if len(classes) < num_sessions:
            raise ConfigError(
                f"NC needs at least one fresh class per session: {len(classes)} classes, {num_sessions} sessions"
            )
        order = [classes[i] for i in rng.permutation(len(classes))]
        base, rem = divmod(len(classes), num_sessions)
        pairs, at = [], 0
        for s in range(num_sessions):
            take = base + (1 if s < rem else 0)
            chunk = sorted(order[at : at + take])
            at += take
            pairs.append([(c, z) for c in chunk for z in grid[c]])
    elif mode == "ND":
        counts = {len(zs) for zs in grid.values()}
        if counts != {num_sessions}:
            raise ConfigError(
                f"ND needs exactly one new domain per class per session: domain counts {sorted(counts)}, "
                f"{num_sessions} sessions"
            )
        if any(z < 0 for zs in grid.values() for z in zs):
            raise ConfigError("ND requires known domain labels")
        perms = {c: [grid[c][i] for i in rng.permutation(num_sessions)] for c in classes}
        pairs = [[(c, perms[c][s]) for c in classes] for s in range(num_sessions)]
    elif mode == "NCD":
        counts = {len(zs) for zs in grid.values()}
        if len(counts) != 1:
            raise ConfigError("NCD needs a uniform class x domain grid")
        if any(z < 0 for zs in grid.values() for z in zs):
            raise ConfigError("NCD requires known domain labels")
        n_domains = counts.pop()
        intro_span = num_sessions - n_domains + 1
        if intro_span < 1:
            raise ConfigError(
                f"NCD with {n_domains} domains per class needs at least {n_domains} sessions, got {num_sessions}"
            )
        order = [classes[i] for i in rng.permutation(len(classes))]
        base, rem = divmod(len(classes), intro_span)
        intro_session: dict[int, int] = {}
        at = 0
        for s in range(intro_span):
            take = base + (1 if s < rem else 0)
            for c in order[at : at + take]:
                intro_session[c] = s
            at += take
        pairs = [[] for _ in range(num_sessions)]
        load = [0] * num_sessions
        for c in order:
            zs = [grid[c][i] for i in rng.permutation(n_domains)]
            s0 = intro_session[c]
            pairs[s0].append((c, zs[0]))
            load[s0] += 1
            free = list(range(s0 + 1, num_sessions))
            for z in zs[1:]:
                s = min(free, key=lambda s: (load[s], s))
                free.remove(s)
                pairs[s].append((c, z))
                load[s] += 1
        pairs = [sorted(p) for p in pairs]
        if any(not p for p in pairs):
            raise ConfigError("NCD schedule left an empty session; use fewer sessions")
    else:
        raise ConfigError(f"unknown split mode {mode!r} (expected NC, ND or NCD)")

    sessions = []
    for t, session_pairs in enumerate(pairs):
        mask = np.zeros(len(pool), dtype=bool)
        for c, z in session_pairs:
            mask |= (pool.y == c) & (pool.domain == z)
        sessions.append(SessionDataset(t, pool.subset(mask)))
    return SplitPlan(mode, pairs), sessions


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("y", "<u4"), ("z", "<i4"), ("role", "u1"), ("x", "<f4", (dim,))])


def write_stream(path, records: FeatureRecords):
    """Serialize records to a VMFS file (features quantized to float32)."""
    dim = records.dim
    rec_dtype = _record_dtype(dim)
    if np.any(records.y < 0):
        raise ValueError("class labels must be nonnegative")
    arr = np.empty(len(records), dtype=rec_dtype)
    arr["id"] = records.ids
    arr["y"] = records.y
    arr["z"] = records.domain
    arr["role"] = records.role
    arr["x"] = records.x
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(STREAM_MAGIC, STREAM_VERSION, dim, len(records)))
        fh.write(arr.tobytes())


def read_stream(path) -> FeatureRecords:
    """Parse a VMFS file; raises ParseError with the failing byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ParseError("file too short for a VMFS header", offset=len(data))
    magic, version, dim, count = _HEADER.unpack_from(data, 0)
    if magic != STREAM_MAGIC:
        raise ParseError("bad magic, not a VMFS stream", offset=0)
    if version != STREAM_VERSION:
        raise ParseError(f"unsupported VMFS version {version}", offset=4)
    try:
        rec_dtype = _record_dtype(dim)
    except ValueError:  # the record size overflows a C int
        raise ParseError(f"record dimension {dim} is too large", offset=8) from None
    body = data[_HEADER.size :]
    whole, tail = divmod(len(body), rec_dtype.itemsize)
    if tail != 0:
        raise ParseError("truncated record", offset=_HEADER.size + whole * rec_dtype.itemsize)
    if whole != count:
        raise ParseError(f"record count mismatch: header says {count}, file holds {whole}")
    arr = np.frombuffer(body, dtype=rec_dtype)
    order = np.argsort(arr["id"], kind="stable")
    repeats = order[1:][arr["id"][order[1:]] == arr["id"][order[:-1]]]
    if repeats.size:
        first = int(np.min(repeats))
        raise ParseError(
            f"duplicate example id {arr['id'][first]}",
            offset=_HEADER.size + first * rec_dtype.itemsize,
        )
    return FeatureRecords(
        arr["id"].copy(),
        arr["x"].astype(np.float64),
        arr["y"].astype(np.int64),
        arr["z"].copy(),
        arr["role"].copy(),
    )
