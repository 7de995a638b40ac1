"""Flat key-value configuration files mapped onto :class:`SimConfig`.

The format is one ``section.key = value`` assignment per line (commas may
separate several assignments on one line, ``#`` starts a comment).
Unknown keys and keys set twice in one text are rejected; every error
names the offending key and line.
Resolution order is CLI override > file > built-in default.

The keys are not listed here: :data:`KEYS` is built from the fields of
:class:`driver.SimConfig`'s sections, each declared once with
:func:`phasefield.param` (default and range), and a key is its section's
name and its field's name.  A key's parser comes from its field's
annotation, and a value is checked against its field's own range.
"""

from __future__ import annotations

from dataclasses import fields as dc_fields, replace

from . import driver


class ConfigError(ValueError):
    def __init__(self, message, key=None, line=None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        super().__init__(message + where)
        self.key = key
        self.line = line


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS = {"float": float, "int": int, "str": str, "bool": _bool}

# key -> (section attr, field, parser), in SimConfig's field order
KEYS = {
    f"{section.name}.{f.name}": (section.name, f, _PARSERS[f.type])
    for section in dc_fields(driver.SimConfig)
    for f in dc_fields(section.default)
}


def _assignments(text):
    """Yield (lineno, key, raw value) from config text."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for chunk in body.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ConfigError("expected 'section.key = value'",
                                  key=chunk, line=lineno)
            key, value = (part.strip() for part in chunk.split("=", 1))
            yield lineno, key, value


def parse_config(text: str, overrides: dict[str, str] | None = None
                 ) -> driver.SimConfig:
    """Build a fully resolved SimConfig from file text plus CLI overrides."""
    staged: dict[str, dict] = {}

    def stage(key, raw, lineno):
        if key not in KEYS:
            raise ConfigError("unknown configuration key", key=key, line=lineno)
        section, f, parser = KEYS[key]
        try:
            value = parser(raw)
        except ValueError:
            raise ConfigError(
                f"cannot parse {raw!r} as {parser.__name__.lstrip('_')}",
                key=key, line=lineno) from None
        test, why = f.metadata["range"]
        if not test(value):
            raise ConfigError(f"value {value!r} {why}", key=key, line=lineno)
        staged.setdefault(section, {})[f.name] = value

    seen = set()
    for lineno, key, raw in _assignments(text):
        if key in seen:
            raise ConfigError("key set twice", key=key, line=lineno)
        seen.add(key)
        stage(key, raw, lineno)
    for key, raw in (overrides or {}).items():
        stage(key, str(raw), None)

    sections = {}
    for section in dc_fields(driver.SimConfig):
        try:
            sections[section.name] = replace(section.default,
                                             **staged.get(section.name, {}))
        except ValueError as exc:
            raise ConfigError(
                f"invalid '{section.name}' section: {exc}") from exc
    return driver.SimConfig(**sections)


def serialize_config(config: driver.SimConfig) -> str:
    """Canonical text with every key spelled out; reparses to an equal config."""
    lines = []
    current = None
    for key, (section, f, _) in KEYS.items():
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"# [{section}]")
            current = section
        value = getattr(getattr(config, section), f.name)
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def describe_keys() -> str:
    """Human-readable key reference for the README / --help."""
    out = []
    for key, (_, f, parser) in KEYS.items():
        tname = parser.__name__.lstrip("_")
        out.append(f"{key:32s} {tname:6s} default={_fmt(f.default)}")
    return "\n".join(out)
