"""Flat key-value configuration files mapped onto :class:`SimConfig`.

The format is one ``section.key = value`` assignment per line (commas may
separate several assignments on one line, ``#`` starts a comment).
Unknown keys are rejected; every error names the offending key and line.
Resolution order is CLI override > file > built-in default.
"""

from __future__ import annotations

from dataclasses import fields as dc_fields

from . import driver, phasefield as pf


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


# key -> (section attr, field attr, parser, constraint, description)
_positive = (lambda v: v > 0, "must be > 0")
_nonneg = (lambda v: v >= 0, "must be >= 0")
_any = (lambda v: True, "")

KEYS = {
    "material.mu": ("material", "mu", float, _positive),
    "material.G_c": ("material", "g_c", float, _positive),
    "material.c_v": ("material", "c_v", float, _positive),
    "material.eta": ("material", "eta", float, _positive),
    "regularization.mode": ("regularization", "mode", str,
                            (lambda v: v in ("fixed", "global", "field"),
                             "must be fixed, global or field")),
    "regularization.zeta": ("regularization", "zeta", float, _nonneg),
    "regularization.alpha": ("regularization", "alpha", float, _positive),
    "regularization.xi_fixed": ("regularization", "xi_fixed", float, _positive),
    "regularization.xi_min": ("regularization", "xi_min", float, _positive),
    "regularization.xi_max": ("regularization", "xi_max", float, _positive),
    "regularization.xi_refine": ("regularization", "xi_refine", float,
                                 _positive),
    "mesh.level_start": ("mesh", "level_start", int, _positive),
    "mesh.level_max": ("mesh", "level_max", int, _positive),
    "mesh.crack_y_tip": ("mesh", "crack_y_tip", float,
                         (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
    "loading.c": ("loading", "c", float, _nonneg),
    "loading.dt": ("loading", "dt", float, _positive),
    "loading.n_max": ("loading", "n_max", int, _nonneg),
    "solver.staggered_tol": ("solver", "staggered_tol", float, _positive),
    "solver.staggered_max_iter": ("solver", "staggered_max_iter", int,
                                  _positive),
    "solver.linear_tol": ("solver", "linear_tol", float, _positive),
    "solver.linear_max_iter": ("solver", "linear_max_iter", int, _positive),
    "solver.method": ("solver", "method", str,
                      (lambda v: v in ("direct", "pcg"),
                       "must be direct or pcg")),
    "solver.crack_tol": ("solver", "crack_tol", float, _positive),
    "amr.enabled": ("amr", "enabled", _bool, _any),
    "output.cadence": ("output", "cadence", int, _positive),
}

_SECTION_TYPES = {
    "material": pf.MaterialParams,
    "regularization": pf.RegularizationParams,
    "mesh": driver.MeshParams,
    "loading": driver.LoadingParams,
    "solver": driver.SolverParams,
    "amr": driver.AmrParams,
    "output": driver.OutputParams,
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
    staged: dict[str, tuple] = {}

    def stage(key, raw, lineno):
        if key not in KEYS:
            raise ConfigError("unknown configuration key", key=key, line=lineno)
        section, attr, parser, (check, why) = KEYS[key]
        try:
            value = parser(raw)
        except ValueError:
            raise ConfigError(
                f"cannot parse {raw!r} as {parser.__name__.lstrip('_')}",
                key=key, line=lineno) from None
        if not check(value):
            raise ConfigError(f"value {value!r} {why}", key=key, line=lineno)
        staged[key] = (section, attr, value, lineno)

    for lineno, key, raw in _assignments(text):
        stage(key, raw, lineno)
    for key, raw in (overrides or {}).items():
        stage(key, str(raw), None)

    kwargs: dict[str, dict] = {}
    for section, attr, value, _ in staged.values():
        kwargs.setdefault(section, {})[attr] = value
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        try:
            sections[name] = cls(**kwargs.get(name, {}))
        except ValueError as exc:
            raise ConfigError(f"invalid '{name}' section: {exc}") from exc
    return driver.SimConfig(**sections)


def serialize_config(config: driver.SimConfig) -> str:
    """Canonical text with every key spelled out; reparses to an equal config."""
    lines = []
    current = None
    for key, (section, attr, _, _) in KEYS.items():
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"# [{section}]")
            current = section
        value = getattr(getattr(config, section), attr)
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def describe_keys() -> str:
    """Human-readable key reference for the README / --help."""
    out = []
    for key, (section, attr, parser, _) in KEYS.items():
        default = getattr(getattr(driver.SimConfig(), section), attr)
        tname = getattr(parser, "__name__", "str").lstrip("_")
        out.append(f"{key:32s} {tname:6s} default={_fmt(default)}")
    return "\n".join(out)
