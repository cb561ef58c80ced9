"""Experiment configuration files.

Plain INI: one section per experiment (``[qp]``, ``[cutest]``, ``[logreg]``,
``[toy]``), flat key=value pairs inside.  Values are coerced against the
experiment's defaults table, so the defaults double as the schema: an int
default means the key parses as int, a float as float, and ``methods`` is a
comma-separated list.  Unknown keys and unparseable values raise ConfigError;
the ranges of the values are checked by the experiment that takes them.
"""

from __future__ import annotations

import configparser
import os


class ConfigError(Exception):
    """Unreadable config file, unknown key, or malformed value."""


def load_config(path):
    """Parse an INI file into {section: {key: raw string value}}."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def coerce_params(section, defaults):
    """Coerce raw string values from one config section against a defaults table.

    Returns a new dict with only the overridden keys, typed like their
    defaults.  Booleans are not used in any schema; lists (only ``methods``)
    split on commas with whitespace stripped.
    """
    out = {}
    for key, raw in section.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise ConfigError(f"unknown key '{key}' (known: {known})")
        template = defaults[key]
        try:
            if isinstance(template, list):
                out[key] = [part.strip() for part in raw.split(",") if part.strip()]
            elif isinstance(template, int):
                out[key] = int(raw)
            elif isinstance(template, float):
                out[key] = float(raw)
            else:
                out[key] = raw
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {raw!r}") from exc
    return out
