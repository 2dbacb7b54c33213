"""Flat key = value scenario configs and the bundled presets.

Grammar: one `key = value` pair per line, `#` starts a comment. Signal
coefficients use sparse keys (`c0`, `c.3`, `d.5`), operator coefficients
`A.0`, `A.1`, ... Numeric values may be plain numbers or the tokens `pi`,
`-pi`, `pi/<int>` (an integer >= 1) for common observation times. Unknown or
duplicate keys are rejected with their line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .fourier import FourierSignal
from .model import ScenarioConfig
from .noise import NoiseParams
from .spectral import OperatorSpec

PRESETS = ("ex41", "ex42", "ex43")

ESTIMATOR_MEAN = "mean"
ESTIMATOR_INFINITE = "infinite"

_ENUM_KEYS = {
    "kernel": ("mean_reverting", "growth"),
    "observation": ("grid", "fourier"),
    "sampler": ("exact", "series"),
    "series_variant": ("variance_matched", "paper_faithful"),
    "estimator": (ESTIMATOR_MEAN, ESTIMATOR_INFINITE),
}
_INT_KEYS = {"n", "K", "G", "seed", "quasi_base", "series_terms", "window", "n_max", "quasi"}
_FLOAT_KEYS = {"l", "c0", "sigma", "t0", "epsilon"}
_LIST_KEYS = {"sigma_grid"}
# prefixes of the indexed keys c.<k>, d.<k> (signal) and A.<n> (operator)
_INDEXED = frozenset(("c.", "d.", "A."))


@dataclass(frozen=True)
class RunConfig:
    """A parsed scenario plus command-level run parameters."""

    scenario: ScenarioConfig
    sigma_grid: tuple[float, ...] = ()
    estimator: str = ESTIMATOR_MEAN
    epsilon: float = 1e-3
    window: int = 4
    n_max: int = 10000
    text: str = ""


def parse_number(token: str) -> float:
    """A number: float(token), or pi, -pi, pi/<int> or -pi/<int> with an integer >= 1.

    A token without "pi" goes straight to float(), since no float literal
    contains "pi".
    """
    token = token.strip()
    if "pi" not in token:
        return float(token)
    sign, body = 1.0, token
    if body.startswith("-"):
        sign, body = -1.0, body[1:].strip()
    if body == "pi":
        return sign * math.pi
    head, slash, divisor = body.partition("/")
    divisor = divisor.strip()
    if slash and head.rstrip() == "pi" and divisor.isdecimal():
        if int(divisor) < 1:
            raise ValueError(f"pi/<int> needs an integer >= 1, got {token!r}")
        return sign * math.pi / int(divisor)
    return float(token)


def _valid_key(key: str) -> bool:
    """key is a name (a letter, then letters, digits or _), then optionally .<digits>."""
    name, dot, index = key.partition(".")
    return (key.isascii() and name[:1].isalpha() and name.replace("_", "0").isalnum()
            and (not dot or index.isdigit()))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse a config in one pass over its lines.

    Line structure (the `key = value` shape, the key, duplicates, empty
    values) is checked on every line before any value is: a value error is
    kept and raised only once the whole text is known to be well formed.
    """
    seen: dict[str, int] = {}
    values: dict = {}
    theta_cos: dict[int, float] = {}
    theta_sin: dict[int, float] = {}
    op_coeffs: dict[int, float] = {}
    value_error: ConfigError | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = (raw.partition("#")[0] if "#" in raw else raw).partition("=")
        key = key.strip()
        if not eq:
            if key:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno, source)
            continue
        value = value.strip()
        head = key[:2]
        indexed = head in _INDEXED
        if not (key[2:].isdigit() and key.isascii() if indexed else _valid_key(key)):
            raise ConfigError(f"malformed key {key!r}", lineno, source)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first given on line {seen[key]})",
                              lineno, source)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno, source)
        seen[key] = lineno
        if value_error is not None:
            continue
        try:
            if indexed:
                index = int(key[2:])
                if index < 1 and head != "A.":
                    raise ConfigError("mode indices start at 1; use c0 for the constant term",
                                      lineno, source)
                target = op_coeffs if head == "A." else theta_cos if head == "c." else theta_sin
                target[index] = float(value) if "pi" not in value else parse_number(value)
            elif key in _ENUM_KEYS:
                if value not in _ENUM_KEYS[key]:
                    raise ConfigError(
                        f"{key} must be one of {', '.join(_ENUM_KEYS[key])}; got {value!r}",
                        lineno, source)
                values[key] = value
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = parse_number(value)
            elif key in _LIST_KEYS:
                values[key] = tuple(parse_number(tok) for tok in value.split(","))
            else:
                raise ConfigError(f"unknown key {key!r}", lineno, source)
        except ValueError as exc:  # ConfigError included
            value_error = exc if isinstance(exc, ConfigError) else ConfigError(
                f"bad value for {key!r}: {exc}", lineno, source)
    if value_error is not None:
        raise value_error

    if "A.0" not in seen:
        raise ConfigError("operator needs at least A.0", source=source)
    if "t0" not in seen:
        raise ConfigError("observation time t0 is required", source=source)

    top_order = max(op_coeffs)
    coeffs = [op_coeffs.get(i, 0.0) for i in range(top_order + 1)]
    try:
        op = OperatorSpec.of(*coeffs)
        half_period = values.get("l", math.pi)
        mode_count = values.get("K", 20)
        theta = FourierSignal.build(half_period, values.get("c0", 0.0), theta_cos, theta_sin,
                                    mode_count=mode_count)
        noise = NoiseParams(
            sigma=values.get("sigma", 0.0),
            a0=op.a0,
            kernel=values.get("kernel", "mean_reverting"),
            series_terms=values.get("series_terms", 999),
        )
        scenario = ScenarioConfig(
            theta=theta,
            op=op,
            noise=noise,
            t0=values["t0"],
            n=values.get("n", 1),
            mode_count=mode_count,
            grid_points=values.get("G", 200),
            seed=values.get("seed"),
            quasi=bool(values.get("quasi", 0)),
            quasi_base=values.get("quasi_base", 1),
            observation_form=values.get("observation", "grid"),
            sampler=values.get("sampler", "exact"),
            series_variant=values.get("series_variant", "variance_matched"),
        )
        for sigma in values.get("sigma_grid", ()):  # each sweep entry is checked up front
            scenario.with_sigma(sigma)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), source=source) from exc

    return RunConfig(
        scenario=scenario,
        sigma_grid=values.get("sigma_grid", ()),
        estimator=values.get("estimator", ESTIMATOR_MEAN),
        epsilon=values.get("epsilon", 1e-3),
        window=values.get("window", 4),
        n_max=values.get("n_max", 10000),
        text=text,
    )


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return resources.files(__package__).joinpath(f"presets/{name}.cfg").read_text()


def load_config(path_or_preset: str) -> RunConfig:
    """Load a config file, or one of the bundled presets by bare name."""
    if path_or_preset in PRESETS:
        return parse_config_text(preset_text(path_or_preset), source=f"preset:{path_or_preset}")
    try:
        with open(path_or_preset) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=str(path_or_preset)) from exc
    return parse_config_text(text, source=str(path_or_preset))
