"""Analysis configuration and its INI-style file format.

    [analysis]
    alpha = 0.05
    aggregation = mean            # mean | median (per_test_mean only)
    observation_unit = per_sample # per_sample | per_test_mean
    top_k_tests = 100             # omit to analyze every aligned test

    [api_rules]
    android. = android
    java. = java

    [power_clock_offset_us]
    com.example.FooTest::testBar = 125.0

Only ``=`` delimits keys from values (test names contain ``::``), ``#``
starts a comment, and key case is preserved.  Emission is canonical:
parse -> emit -> parse is the identity and emit is byte-stable.

The synth spec format shares this dialect through ``read_ini`` and
``section_values``: unknown keys and non-finite numbers are rejected.
"""

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from .apimetric import ApiClassifier, ApiRule
from .trace import _checked_test_name

DEFAULT_API_RULES = (
    ApiRule("android.", "android"),
    ApiRule("java.", "java"),
    ApiRule("javax.", "javax"),
    ApiRule("dalvik.", "dalvik"),
)

AGGREGATIONS = ("mean", "median")
OBSERVATION_UNITS = ("per_sample", "per_test_mean")


class ConfigError(ValueError):
    """The configuration file is malformed or holds an invalid value."""


class _AnalysisFields(NamedTuple):
    api_rules: tuple[ApiRule, ...] = DEFAULT_API_RULES
    alpha: float = 0.05
    aggregation: str = "mean"
    observation_unit: str = "per_sample"
    top_k_tests: Optional[int] = None
    power_clock_offset_us: Mapping[str, float] = MappingProxyType({})  # shared, so read-only


class AnalysisConfig(_AnalysisFields):
    """The checked configuration: building one checks every field."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {AGGREGATIONS}")
        if self.observation_unit not in OBSERVATION_UNITS:
            raise ConfigError(f"observation_unit must be one of {OBSERVATION_UNITS}")
        if self.aggregation != "mean" and self.observation_unit == "per_sample":
            raise ConfigError(f"aggregation = {self.aggregation} needs observation_unit = per_test_mean")
        if self.top_k_tests is not None and self.top_k_tests < 1:
            raise ConfigError(f"top_k_tests must be >= 1, got {self.top_k_tests}")
        try:  # the one check of the API rules; not a field, so not compared
            self.classifier = ApiClassifier(self.api_rules)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for test_name in self.power_clock_offset_us:
            try:
                _checked_test_name(test_name)
            except ValueError as exc:
                raise ConfigError(
                    f"[power_clock_offset_us] key {test_name!r} is not a test name: {exc}"
                ) from None
        return self


def read_ini(text: str) -> dict[str, dict[str, str]]:
    """The sections of INI text in file order, each a key -> raw value dict."""
    import configparser  # only INI input needs it, so it stays off start-up

    parser = configparser.RawConfigParser(
        delimiters=("=",), comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad INI text: {exc}") from None
    return {name: dict(parser[name]) for name in parser.sections()}


def _convert_value(section: str, key: str, raw: str, kind: type):
    """``raw`` as ``kind``: an int, a str or a finite float."""
    try:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from None
    return value


def section_values(cls: type, section: str, items: Mapping[str, str], **fixed) -> dict:
    """Keyword arguments for NamedTuple record ``cls`` from one INI section.

    The keys are the int, float and str fields of ``cls`` (or Optional
    ones) not given in ``fixed``; a missing key keeps the field's default.
    """
    kinds = {}
    hints = get_type_hints(cls)
    for name in cls._fields:
        kind = get_args(hints[name])[0] if get_origin(hints[name]) is Union else hints[name]
        if kind in (int, float, str) and name not in fixed:
            kinds[name] = kind
            if name not in cls._field_defaults and name not in items:
                raise ConfigError(f"[{section}] is missing {name}")
    unknown = set(items) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown [{section}] keys: {sorted(unknown)}")
    for key, raw in items.items():
        fixed[key] = _convert_value(section, key, raw, kinds[key])
    return fixed


def parse_config(text: str) -> AnalysisConfig:
    sections = read_ini(text)
    unknown = set(sections) - {"analysis", "api_rules", "power_clock_offset_us"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    kwargs = section_values(AnalysisConfig, "analysis", sections.get("analysis", {}))
    if "api_rules" in sections:
        kwargs["api_rules"] = tuple(
            ApiRule(prefix, label) for prefix, label in sections["api_rules"].items()
        )
    kwargs["power_clock_offset_us"] = {
        test_name: _convert_value("power_clock_offset_us", test_name, raw, float)
        for test_name, raw in sections.get("power_clock_offset_us", {}).items()
    }
    return AnalysisConfig(**kwargs)


def emit_config(config: AnalysisConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = [
        "[analysis]",
        f"alpha = {config.alpha!r}",
        f"aggregation = {config.aggregation}",
        f"observation_unit = {config.observation_unit}",
    ]
    if config.top_k_tests is not None:
        lines.append(f"top_k_tests = {config.top_k_tests}")
    lines.append("")
    lines.append("[api_rules]")
    for rule in config.api_rules:
        lines.append(f"{rule.prefix} = {rule.label}")
    if config.power_clock_offset_us:
        lines.append("")
        lines.append("[power_clock_offset_us]")
        for test_name in sorted(config.power_clock_offset_us):
            lines.append(f"{test_name} = {config.power_clock_offset_us[test_name]!r}")
    return "\n".join(lines) + "\n"
