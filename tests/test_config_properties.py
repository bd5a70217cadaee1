"""Property test: a mutated shipped config either loads or fails with ``ConfigError``.

The VMFS reader passes corruption properties; this is the same
check for config text. Hypothesis takes one of the shipped configs and
flips bytes, truncates it, duplicates a line, adds an unknown key or
section, or gives a key an extreme numeral. ``load_run_config`` (which
parses, checks the schema, coerces every value and validates) must return
a ``RunConfig`` or raise ``ConfigError``; any other exception fails the
test. Nothing is trained and nothing is sized by a drawn value.

The range rules are declared once, in the metadata of the config
dataclasses' fields. Two tests hold them to that: every numeral put in
every number key of the shipped configs loads exactly when ``coerce`` and
the key's declared range accept it, and the README's per-key range list is
the one the declarations give.
"""

import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vmfcl.bench import _KEYS, _SECTIONS, RunConfig, load_run_config
from vmfcl.config import _in_range, coerce
from vmfcl.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
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


def number_keys(text: bytes) -> list[tuple[int, str, str]]:
    """(line index, section, key) of every int or float key set in a config's text."""
    found, section = [], None
    for i, line in enumerate(text.decode().split("\n")):
        line = line.strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line and not line.startswith("#"):
            key = line.partition("=")[0].strip()
            if _KEYS[(section, key)][2] in (int, float):
                found.append((i, section, key))
    return found


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_a_numeral_loads_exactly_when_coerce_and_the_declared_range_accept_it(tmp_path, name):
    lines = SHIPPED[name].split(b"\n")
    keys = number_keys(SHIPPED[name])
    assert {section for _, section, _ in keys} == {"run", "synth", "train", "structure"}
    path = tmp_path / name
    for at, section, key in keys:
        _, f, kind = _KEYS[(section, key)]
        interval = f.metadata["range"]  # every number key declares one
        for numeral in NUMERALS:
            try:
                accept = _in_range(coerce(section, key, numeral, kind, path), interval)
            except ConfigError:
                accept = False
            path.write_bytes(b"\n".join([*lines[:at], f"{key} = {numeral}".encode(), *lines[at + 1:]]))
            try:
                load_run_config(path)
                loaded = True
            except ConfigError:
                loaded = False
            assert loaded == accept, (section, key, numeral)


@pytest.mark.parametrize("interval,inside,outside", [
    ("[0, 180]", [0, 0.0, 180, 180.0], [-1e-300, 180.00000000000003, math.nan]),
    ("(0, 180]", [5e-324, 180], [0, -0.0]),
    ("(0, 2)", [1e-300, 1.9999999999999998], [0.0, 2, 2.0]),
    ("[1, inf)", [1, 10**400], [0, math.inf, math.nan]),
    ("[1, 9223372036854775807]", [1, 2**63 - 1], [2**63, float(2**63 - 1)]),
    ("[0, 3.4028234663852886e+38]", [0.0, 3.4028234663852886e+38], [3.402823466385289e+38]),
])
def test_interval_end_points(interval, inside, outside):
    # a bracket keeps its end point and a parenthesis leaves it out; whole ends compare exactly
    assert [_in_range(v, interval) for v in inside] == [True] * len(inside)
    assert [_in_range(v, interval) for v in outside] == [False] * len(outside)


def declared_rules() -> list[str]:
    """The README's range list, rebuilt from the declarations: one line per declared key,
    by section in the order of ``_SECTIONS``."""
    lines = []
    for name in _SECTIONS:
        for (section, key), (_, f, _) in _KEYS.items():
            if section == name and "choices" in f.metadata:
                lines.append(f"- `[{section}] {key}`: one of " + ", ".join(f"`{c}`" for c in f.metadata["choices"]))
            elif section == name and "range" in f.metadata:
                lines.append(f"- `[{section}] {key}`: `{f.metadata['range']}`")
    return lines


def test_readme_range_list_is_the_declared_one():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = [line for line in readme.splitlines() if re.match(r"- `\[\w+\] \w+`: ", line)]
    assert listed == declared_rules()
