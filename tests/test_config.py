import pytest

from tracewatt.apimetric import ApiRule
from tracewatt.config import (
    AnalysisConfig,
    ConfigError,
    emit_config,
    parse_config,
)
from tracewatt.trace import MethodId

SAMPLE = """
[analysis]
alpha = 0.01
aggregation = median
observation_unit = per_test_mean
top_k_tests = 100

[api_rules]
android. = android
java.util. = collections

[power_clock_offset_us]
com.example.FooTest::testBar = 125.0
"""


def test_defaults():
    config = AnalysisConfig()
    assert config.alpha == 0.05
    assert config.aggregation == "mean"
    assert config.observation_unit == "per_sample"
    assert config.top_k_tests is None
    assert any(r.prefix == "android." for r in config.api_rules)


def test_parse_sample():
    config = parse_config(SAMPLE)
    assert config.alpha == 0.01
    assert config.aggregation == "median"
    assert config.top_k_tests == 100
    assert config.api_rules == (
        ApiRule("android.", "android"),
        ApiRule("java.util.", "collections"),
    )
    assert config.power_clock_offset_us == {"com.example.FooTest::testBar": 125.0}


def test_round_trip_is_stable():
    config = parse_config(SAMPLE)
    emitted = emit_config(config)
    assert parse_config(emitted) == config
    assert emit_config(parse_config(emitted)) == emitted


def test_empty_text_gives_defaults():
    assert parse_config("") == AnalysisConfig()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config("[mystery]\nx = 1\n")


def test_unknown_analysis_key_rejected():
    with pytest.raises(ConfigError, match="unknown .analysis. keys"):
        parse_config("[analysis]\nbogus = 1\n")


def test_bad_alpha_rejected():
    with pytest.raises(ConfigError):
        parse_config("[analysis]\nalpha = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[analysis]\nalpha = zero\n")


def test_bad_aggregation_rejected():
    with pytest.raises(ConfigError):
        parse_config("[analysis]\naggregation = mode\n")


def test_aggregation_needs_per_test_mean():
    with pytest.raises(
        ConfigError, match="aggregation = median needs observation_unit = per_test_mean"
    ):
        parse_config("[analysis]\naggregation = median\n")
    config = AnalysisConfig(aggregation="median", observation_unit="per_test_mean")
    assert config.aggregation == "median"


def test_duplicate_prefixes_rejected():
    with pytest.raises(ConfigError, match="duplicate API rule prefix 'java.'"):
        AnalysisConfig(api_rules=(ApiRule("java.", "a"), ApiRule("java.", "b")))


def test_classifier_is_built_from_the_api_rules():
    with pytest.raises(ConfigError, match="need at least one API rule"):
        parse_config("[api_rules]\n")
    config = parse_config("[api_rules]\njava. = java\njava.util. = collections\n")
    assert config.classifier.classify(MethodId("java.util", "List", "add")) == "collections"
    assert config.classifier.classify(MethodId("android.os", "Handler", "post")) is None


def test_test_name_keys_preserve_case_and_colons():
    config = parse_config(
        "[power_clock_offset_us]\ncom.Example.FooTest::testBar = -12.5\n"
    )
    assert config.power_clock_offset_us == {"com.Example.FooTest::testBar": -12.5}


def test_offset_keys_must_be_test_names():
    with pytest.raises(ConfigError, match=r"\[power_clock_offset_us\] key 'not a name'"):
        parse_config("[power_clock_offset_us]\nno.Such::test = 5\nnot a name = 1\n")
    with pytest.raises(ConfigError, match="'Foo::bar' is not a test name"):
        AnalysisConfig(power_clock_offset_us={"Foo::bar": 1.0})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ConfigError, match="is not a finite number"):
        parse_config(f"[analysis]\nalpha = {value}\n")
    with pytest.raises(ConfigError, match=r"\[power_clock_offset_us\] a.B::t = "):
        parse_config(f"[power_clock_offset_us]\na.B::t = {value}\n")


def test_non_integer_top_k_rejected():
    with pytest.raises(ConfigError, match=r"\[analysis\] top_k_tests = '2.5' is not an integer"):
        parse_config("[analysis]\ntop_k_tests = 2.5\n")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError, match="bad INI text"):
        parse_config("[analysis]\nalpha = 0.1\nalpha = 0.2\n")
