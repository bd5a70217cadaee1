"""Property test: a mutated shipped config either loads or fails with ``ConfigError``.

The VMFS reader passes corruption properties; this is the same
check for config text. Hypothesis takes one of the shipped configs and
flips bytes, truncates it, duplicates a line, adds an unknown key or
section, or gives a key an extreme numeral. ``load_run_config`` (which
parses, checks the schema, coerces every value and validates) must return
a ``RunConfig`` or raise ``ConfigError``; any other exception fails the
test. Nothing is trained and nothing is sized by a drawn value.
"""

import os
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from vmfcl.bench import RunConfig, load_run_config
from vmfcl.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {name: (CONFIG_DIR / name).read_bytes() for name in ("nd_gain.cfg", "ncd_purity.cfg")}

NUMERALS = [
    "0", "-0", "-1", "1", "2", "4294967296", "-4294967297", "100000000000000000000", "9" * 5000,
    "1e308", "1e309", "-1e309", "1e-320", "3.5e38", "nan", "-nan", "inf", "-inf", "infinity",
    "0x10", "1_000", "1.5", ".", "", "+", "1e", "١٢", "None", "true",
]


def key_lines(lines: list[bytes]) -> list[int]:
    return [i for i, line in enumerate(lines) if b"=" in line and not line.lstrip().startswith(b"#")]


@st.composite
def mutated_configs(draw) -> bytes:
    text = SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))]
    lines = text.split(b"\n")
    kind = draw(st.sampled_from(["flip", "truncate", "duplicate", "unknown", "numeral"]))
    if kind == "flip":
        raw = bytearray(text)
        for _ in range(draw(st.integers(1, 4))):
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return bytes(raw)
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if kind == "duplicate":
        line = lines[draw(st.sampled_from(key_lines(lines)))]
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif kind == "unknown":
        extra = draw(st.sampled_from([b"bogus = 1", b"[bogus]", b"[]", b"= 1", b"no equals sign"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    else:
        at = draw(st.sampled_from(key_lines(lines)))
        key = lines[at].partition(b"=")[0]
        lines[at] = key + b"= " + draw(st.sampled_from(NUMERALS)).encode()
    return b"\n".join(lines)


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_configs())
def test_mutated_config_loads_or_raises_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            cfg = load_run_config(path)
        except ConfigError:
            event("ConfigError")
            return
    event("loaded")
    assert isinstance(cfg, RunConfig)
