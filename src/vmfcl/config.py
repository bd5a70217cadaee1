"""Strict key=value configuration files with bracketed section headers.

Anything unexpected (bad syntax, duplicate keys, unknown sections or keys)
raises ConfigError: experiments should fail loudly on misconfiguration
instead of silently running with defaults.
"""

from __future__ import annotations

import math

from .errors import ConfigError


def parse_sections(path) -> dict[str, dict[str, str]]:
    """Parse a UTF-8 config file into {section: {key: raw string value}}."""
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
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
