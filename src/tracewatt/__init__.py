"""tracewatt: mine API interactions from dynamic call traces, attribute
measured power to methods, and test whether API-utilization shifts track
energy changes across software revisions."""

from .apimetric import ApiClassifier, ApiRule, UapiProfile, uapi
from .callgraph import CallNode, CallTree, build_call_trees, node_intervals
from .config import AnalysisConfig, ConfigError, emit_config, parse_config
from .energy import (
    AttributionError,
    PowerFormatError,
    PowerProfile,
    PowerSample,
    attribute,
    integrate,
    parse_power,
    shift_profile,
    write_power,
)
from .evolution import (
    AnalysisError,
    ComparisonReport,
    ExecutionRecord,
    ProxyScore,
    RevisionDataset,
    RevisionSummary,
    align_tests,
    compare,
    normalize_ruapi,
    proxy_eval,
    revision_summaries,
    select_top_energy_tests,
)
from .ingest import LayoutError, analyze_revision, scan_revision_dir
from .stats import AnovaResult, ConvergenceError, TukeyPair, anova, f_upper_tail, ptukey, tukey_hsd
from .synth import SplitMix64, SynthSpec, RevisionSpec, generate, load_spec, verify_fixture
from .trace import EventKind, MethodId, TestTrace, TraceEvent, TraceFormatError, parse_trace, validate_trace, write_trace

__version__ = "0.1.0"
