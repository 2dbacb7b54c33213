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
from .model import OBSERVATIONS, SAMPLERS, ScenarioConfig
from .noise import KERNELS, VARIANTS, NoiseParams
from .spectral import OperatorSpec

PRESETS = ("ex41", "ex42", "ex43")

ESTIMATORS = ("mean", "infinite")
ESTIMATOR_MEAN, ESTIMATOR_INFINITE = ESTIMATORS

# prefixes of the indexed keys c.<k>, d.<k> (signal) and A.<n> (operator)
_INDEXED = frozenset(("c.", "d.", "A."))
_MAX_ORDER = 1000  # the largest n of A.<n>: the operator's order sizes mode_spectrum's work
# the bytes of each row a size key sets: 2K + 2 coefficients (K), G grid values (G) and
# series_terms + 1 series Gaussians (series_terms), each 8 bytes
_ROW_BYTES = 1 << 20


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


class _Refused(ValueError):
    """A well-formed value that its key does not allow; the message follows the key's name."""


def _one_of(allowed: tuple[str, ...]):
    """The parser of a key whose value is one of allowed."""
    def parse(text: str) -> str:
        if text not in allowed:
            raise _Refused(f"must be one of {', '.join(allowed)}; got {text!r}")
        return text
    return parse


def _flag(text: str) -> bool:
    if int(text) not in (0, 1):
        raise _Refused(f"must be 0 or 1; got {text!r}")
    return int(text) == 1


def _seed(text: str) -> int:
    if int(text) < 0:
        raise _Refused(f"must be an integer >= 0; got {text!r}")
    return int(text)


# Each non-indexed key: the class whose field it sets, that field and its text's parser. A
# config passes on only the keys it gives, so each default is the field's (or build's) own.
_KEYS = {
    "l": (FourierSignal, "half_period", parse_number),
    "c0": (FourierSignal, "c0", parse_number),
    "sigma": (NoiseParams, "sigma", parse_number),
    "kernel": (NoiseParams, "kernel", _one_of(KERNELS)),
    "series_terms": (NoiseParams, "series_terms", int),
    "t0": (ScenarioConfig, "t0", parse_number),
    "n": (ScenarioConfig, "n", int),
    "K": (ScenarioConfig, "mode_count", int),
    "G": (ScenarioConfig, "grid_points", int),
    "seed": (ScenarioConfig, "seed", _seed),
    "quasi": (ScenarioConfig, "quasi", _flag),
    "quasi_base": (ScenarioConfig, "quasi_base", int),
    "observation": (ScenarioConfig, "observation_form", _one_of(OBSERVATIONS)),
    "sampler": (ScenarioConfig, "sampler", _one_of(SAMPLERS)),
    "series_variant": (ScenarioConfig, "series_variant", _one_of(VARIANTS)),
    "sigma_grid": (RunConfig, "sigma_grid", lambda text: tuple(map(parse_number, text.split(",")))),
    "estimator": (RunConfig, "estimator", _one_of(ESTIMATORS)),
    "epsilon": (RunConfig, "epsilon", parse_number),
    "window": (RunConfig, "window", int),
    "n_max": (RunConfig, "n_max", int),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse a config in one pass over its lines.

    Line structure (the `key = value` shape, the key, duplicates, empty
    values) is checked on every line before any value is: a value error is
    kept and raised only once the whole text is known to be well formed.
    """
    # the line of each key given: by name, or by index in its prefix's dict, so that
    # c.1 and c.01 are one key
    seen: dict = {head: {} for head in _INDEXED}
    # the fields given, by owner; a config without a seed leaves it to the command line
    given: dict = {FourierSignal: {}, NoiseParams: {}, ScenarioConfig: {"seed": None},
                   RunConfig: {}}
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
        try:
            lines, ident = (seen[head], int(key[2:])) if indexed else (seen, key)
        except ValueError:  # more digits than int() converts
            raise ConfigError(f"malformed key {key!r}", lineno, source) from None
        if ident in lines:
            raise ConfigError(f"duplicate key {key!r} (first given on line {lines[ident]})",
                              lineno, source)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno, source)
        lines[ident] = lineno
        if value_error is not None:
            continue
        try:
            if indexed:
                index = ident
                if index < 1 and head != "A.":
                    raise ConfigError("mode indices start at 1; use c0 for the constant term",
                                      lineno, source)
                if index > _MAX_ORDER and head == "A.":
                    raise ConfigError(f"operator order {index} is above the limit of "
                                      f"{_MAX_ORDER}", lineno, source)
                target = op_coeffs if head == "A." else theta_cos if head == "c." else theta_sin
                target[index] = float(value) if "pi" not in value else parse_number(value)
            elif key in _KEYS:
                owner, name, parse = _KEYS[key]
                given[owner][name] = parse(value)
            else:
                raise ConfigError(f"unknown key {key!r}", lineno, source)
        except _Refused as exc:
            value_error = ConfigError(f"{key} {exc}", lineno, source)
        except ValueError as exc:  # ConfigError included
            value_error = exc if isinstance(exc, ConfigError) else ConfigError(
                f"bad value for {key!r}: {exc}", lineno, source)
    if value_error is not None:
        raise value_error

    if 0 not in seen["A."]:
        raise ConfigError("operator needs at least A.0", source=source)
    if "t0" not in seen:
        raise ConfigError("observation time t0 is required", source=source)

    coeffs = [op_coeffs.get(i, 0.0) for i in range(max(op_coeffs) + 1)]
    scenario = given[ScenarioConfig]
    modes = scenario.get("mode_count", ScenarioConfig.mode_count)  # the config's, else the field's
    _check_sizes(modes, scenario.get("grid_points", ScenarioConfig.grid_points),
                 given[NoiseParams].get("series_terms", NoiseParams.series_terms), seen, source)
    half_period = given[FourierSignal].get("half_period", math.pi)
    if 0 < half_period < math.inf and not math.isfinite(modes * (math.pi / half_period)):
        raise ConfigError(f"l = {half_period:g} is too small for K = {modes}: the wavenumber "
                          "K pi / l of mode K is not finite", seen["l"], source)
    try:
        op = OperatorSpec.of(*coeffs)
        theta = FourierSignal.build(cos=theta_cos, sin=theta_sin, **given[FourierSignal],
                                    mode_count=modes)
        noise = NoiseParams(a0=op.a0, **given[NoiseParams])
        run = RunConfig(ScenarioConfig(theta=theta, op=op, noise=noise, **scenario),
                        text=text, **given[RunConfig])
        for sigma in run.sigma_grid:  # each sweep entry is checked up front
            run.scenario.with_sigma(sigma)
    except ValueError as exc:
        raise ConfigError(str(exc), source=source) from exc
    return run


def _check_sizes(modes: int, points: int, terms: int, lines: dict, source: str) -> None:
    """Refuse, before any array is built, a K or series_terms below 1, a row past _ROW_BYTES
    and a grid that cannot resolve the modes, naming the key and its line (a size outside
    its bounds was given)."""
    for key, value in (("K", modes), ("series_terms", terms)):
        if value < 1:
            raise ConfigError(f"{key} = {value} must be >= 1", lines[key], source)
    for key, value, doubles in (("K", modes, 2 * modes + 2), ("G", points, points),
                                ("series_terms", terms, terms + 1)):
        if 8 * doubles > _ROW_BYTES:
            raise ConfigError(f"{key} = {value} sets rows of {doubles} doubles; a row may hold "
                              f"at most {_ROW_BYTES // 8} ({_ROW_BYTES >> 20} MiB)",
                              lines[key], source)
    if points < 2 * modes + 1:
        raise ConfigError(f"G = {points} cannot resolve K = {modes} modes; need G >= 2K + 1 = "
                          f"{2 * modes + 1}", lines.get("G", lines.get("K")), source)


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
