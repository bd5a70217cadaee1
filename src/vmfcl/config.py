"""Strict key=value configuration files with bracketed section headers.

Anything unexpected (bad syntax, duplicate keys, unknown sections or keys, a
value outside its key's range) raises ConfigError: experiments should fail
loudly on misconfiguration instead of silently running with defaults. Each
config dataclass declares a key's rule once, in its field's metadata: a
``range`` interval such as ``"[1, inf)"`` (a bracket includes its end point,
a parenthesis leaves it out) or a ``choices`` tuple; ``check_ranges`` applies them.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .errors import ConfigError


def parse_sections(path) -> dict[str, dict[str, str]]:
    """Parse a UTF-8 config file (a byte order mark is skipped) into {section: {key: raw value}}."""
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not valid UTF-8 ({e.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if current in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def check_schema(sections: dict[str, dict[str, str]], keys, path):
    """Reject sections and keys that are not among the (section, key) pairs of ``keys``."""
    known = {section for section, _ in keys}
    for section, entries in sections.items():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in entries:
            if (section, key) not in keys:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")


def coerce(section: str, key: str, value: str, kind, path):
    """Convert a raw value; conversion failures and non-finite floats are ConfigErrors."""
    try:
        out = kind(value)
    except ValueError:
        raise ConfigError(
            f"{path}: [{section}] {key} = {value!r} is not a valid {kind.__name__}"
        ) from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{path}: [{section}] {key} = {value!r} is not finite")
    return out


def check_ranges(obj):
    """ConfigError, naming the file key and its rule, for the first field of the dataclass
    ``obj`` whose value breaks its declared ``range`` or ``choices``; None (a key left unset) passes."""
    for f in fields(obj):
        value, key, rule = getattr(obj, f.name), f.metadata.get("key", f.name), f.metadata
        if value is not None and "choices" in rule and value not in rule["choices"]:
            raise ConfigError(f"{key} must be one of {rule['choices']}, got {value!r}")
        if value is not None and "range" in rule and not _in_range(value, rule["range"]):
            raise ConfigError(f"{key} must lie in {rule['range']}, got {value!r}")


def _in_range(value, interval: str) -> bool:
    """Whether ``value`` lies in ``interval`` (NaN lies in none). A whole end point stays an
    int, so it compares exactly past 2**53."""
    lo, hi = (int(end) if end.lstrip("-").isdigit() else float(end) for end in interval[1:-1].split(", "))
    above = lo < value if interval[0] == "(" else lo <= value
    return above and (value < hi if interval[-1] == ")" else value <= hi)
