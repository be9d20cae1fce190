"""Command-line front end.

Commands:
    tracewatt analyze <revision_dir>   per-method and per-test records
    tracewatt evolve <root_dir>        cross-revision comparison report
    tracewatt synth <spec> <out_dir>   generate a synthetic fixture
    tracewatt report <evolve_out>      plot CSV + human-readable summary

Flags (TRACEWATT_CONFIG, TRACEWATT_ALPHA or TRACEWATT_OUT fills its flag
when the command takes that flag; flags win):
    --config FILE   analysis configuration file (analyze, evolve)
    --alpha X       significance level override (evolve)
    --out DIR       output directory (analyze, evolve, report)

analyze and evolve spread their executions over the CPUs the process
may run on, with the outputs, exit codes and error lines of a run on one
CPU; README.md states the fan-out's rules and their reasons, and
``ingest._analyze_executions`` follows them.

Importing this module registers ``gc.freeze`` to run at exit, so the
interpreter's finalization leaves the heap to the OS instead of walking
and freeing it.  main() itself returns as any function does.  The
caveat: at exit, reference cycles are neither collected nor finalized,
so no output may wait on a cycle's finalizer to be flushed or closed.

Exit codes: 0 success; 2 layout/configuration errors; 3 parse errors;
4 attribution errors; 5 statistical degeneracy (no common tests, top-k
selection leaving no test, too few observations, or quadrature that
does not converge).
"""

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

from . import ingest
from .config import AnalysisConfig, ConfigError, parse_config
from .energy import AttributionError
from .ingest import METHOD_COLUMNS, ExecutionRecord, LayoutError, analyze_revision, csv_text
from .trace import LineFormatError

EXIT_OK = 0
EXIT_LAYOUT = 2
EXIT_PARSE = 3
EXIT_ATTRIBUTION = 4
EXIT_STATS = 5

ENV_PREFIX = "TRACEWATT_"
REPORT_NAME = "report.json"
SUMMARIES_CSV = "revision_summaries.csv"


# Objects alive at exit leave the cyclic collector's reach, which spares
# finalization a walk over the heap the OS reclaims anyway (see above).
atexit.register(gc.freeze)


def _write_csv(
    path: Path, header: "list[str] | tuple[str, ...]", rows: list, body: str = ""
) -> None:
    """The header line, one line per row, then ``body``, CSV text already
    formed (ingest.csv_text)."""
    path.write_text(csv_text([header, *rows]) + body, encoding="utf-8", newline="")


def _load_analysis_config(config_file: "str | None") -> AnalysisConfig:
    if config_file is None:
        return AnalysisConfig()
    path = Path(config_file)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config(path.read_text(encoding="utf-8"))


def _scan_revisions(
    config: AnalysisConfig, revision_dirs: list[Path]
) -> list[tuple[str, list[ingest.Execution]]]:
    """Scan every revision directory, then check that each
    [power_clock_offset_us] key names a test found by some scan, so both
    layout and key errors come before any file is parsed.  Returns each
    revision's name with its executions."""
    scans = [(d.name, ingest.scan_revision_dir(d)) for d in revision_dirs]
    tests = {name for _, executions in scans for name, *_ in executions}
    for test_name in sorted(config.power_clock_offset_us.keys() - tests):
        raise ConfigError(f"[power_clock_offset_us] key {test_name!r} names no analyzed test")
    return scans


def _out_dir(args, default: "Path | str" = "tracewatt-out") -> Path:
    """The command's --out directory, else ``default``; the command
    creates it once its outputs are ready."""
    return Path(args.out if args.out is not None else default)


def _write_report_files(report: "evolution.ComparisonReport", out_dir: Path) -> None:
    import json
    from . import evolution

    payload = evolution.report_to_json_dict(report)
    (out_dir / REPORT_NAME).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for metric, comparison in report.metrics.items():
        _write_csv(
            out_dir / f"pairwise_{metric}.csv",
            evolution.TukeyPair._fields,
            [(p.group_a, p.group_b, p.mean_diff, p.q, p.p_adj,
              "true" if p.significant else "false") for p in comparison.pairs],
        )
    _write_csv(
        out_dir / "proxy_scores.csv",
        ["target", *evolution.ProxyScore._fields],
        [[t, *s] for t, s in report.proxy.items()],
    )
    _write_csv(out_dir / SUMMARIES_CSV, evolution.RevisionSummary._fields, report.summaries)


def _summary_text(report: "evolution.ComparisonReport") -> str:
    lines = [
        f"revisions: {len(report.revisions)} ({', '.join(report.revisions)})",
        f"analyzed tests: {len(report.analysis_tests)}"
        f" of {len(report.aligned_tests)} aligned",
        f"observations per metric: {report.n_observations}"
        f" ({report.observation_unit})",
        f"alpha: {report.alpha!r}",
        "",
    ]
    if not report.metrics:
        lines.append("no comparisons (single revision)")
        lines.append("")
    else:
        lines.append(f"{'metric':<14} {'F':>14} {'p':>12} {'significant pairs':>18}")
        for metric, comparison in report.metrics.items():
            a = comparison.anova
            n_sig = sum(1 for p in comparison.pairs if p.significant)
            f_text = "degenerate" if a.degenerate else f"{a.F:.4g}"
            lines.append(
                f"{metric:<14} {f_text:>14} {a.p:>12.4g} "
                f"{n_sig:>10}/{len(comparison.pairs)}"
            )
        lines.append("")
        for target, score in report.proxy.items():
            parts = [
                f"accuracy {score.accuracy:.4g}",
                f"precision {score.precision:.4g}" if score.precision is not None else "precision n/a",
                f"recall {score.recall:.4g}" if score.recall is not None else "recall n/a",
                f"f1 {score.f1:.4g}" if score.f1 is not None else "f1 n/a",
            ]
            lines.append(
                f"ruapi proxy vs {target}: {', '.join(parts)} "
                f"(tp {score.tp} fp {score.fp} fn {score.fn} tn {score.tn})"
            )
        lines.append("")
    lines.append(f"{'revision':<16} {'mean_energy_mj':>16} {'mean_power_mw':>16} {'sum_ruapi':>12}")
    for s in report.summaries:
        lines.append(
            f"{s.revision:<16} {s.mean_energy_mj:>16.6g} "
            f"{s.mean_power_mw:>16.6g} {s.sum_ruapi:>12.6g}"
        )
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    config = _load_analysis_config(args.config)
    revision_dir = Path(args.revision_dir)
    if not revision_dir.is_dir():
        raise LayoutError(f"{revision_dir} is not a directory")
    [dataset], methods_csv = analyze_revision(
        _scan_revisions(config, [revision_dir]), config, with_rows=True
    )
    dataset = ingest.normalize_ruapi(dataset.revision, dataset.records, dataset.test_names())
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "methods.csv", METHOD_COLUMNS, [], methods_csv)
    _write_csv(out_dir / "tests.csv", ExecutionRecord._fields, dataset.records)
    print(
        f"analyzed revision {dataset.revision}: "
        f"{len(dataset.records)} executions -> {out_dir}"
    )
    return EXIT_OK


def _prepare_compare(revisions: int) -> None:
    """The work of evolution.compare that reads no record: load it, with
    stats, and build the Tukey table of ``revisions`` groups.  evolve's
    parent runs it while its children analyze, where the analysis leaves
    a CPU idle; else all of it happens on first use."""
    from . import evolution, stats  # noqa: F401  evolution for compare

    stats.build_range_cdf_table(revisions)


def cmd_evolve(args) -> int:
    config = _load_analysis_config(args.config)
    if args.alpha is not None:
        # built anew, not by _replace, which would skip the config's checks
        config = AnalysisConfig(**{**config._asdict(), "alpha": args.alpha})
    root = Path(args.root_dir)
    if not root.is_dir():
        raise LayoutError(f"{root} is not a directory")
    out_dir = _out_dir(args)  # it may lie in the root, but is no revision
    skip = out_dir.resolve()
    revision_dirs = sorted(d for d in root.iterdir() if d.is_dir() and d.resolve() != skip)
    if len(revision_dirs) < 2:
        raise LayoutError(
            f"{root}: need at least 2 revision subdirectories, "
            f"found {len(revision_dirs)}"
        )
    datasets, _ = analyze_revision(
        _scan_revisions(config, revision_dirs), config, with_rows=False,
        setup=lambda: _prepare_compare(len(revision_dirs)),
    )
    from . import evolution  # and stats: analyze runs no statistics

    report = evolution.compare(datasets, config)  # sets rU over the tests it compares
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report_files(report, out_dir)
    print(_summary_text(report), end="")
    print(f"report written to {out_dir}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec_path = Path(args.spec_file)
    if not spec_path.is_file():
        raise LayoutError(f"spec file {spec_path} does not exist")
    from . import synth  # only this command needs the generator

    spec = synth.load_spec(spec_path.read_text(encoding="utf-8"))
    manifest = synth.generate(spec, args.out_dir)
    n_files = sum(len(entry["files"]) for entry in manifest["revisions"].values())
    print(
        f"generated {len(manifest['revisions'])} revisions, "
        f"{n_files} files -> {args.out_dir}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    in_dir = Path(args.evolve_dir)
    report_path = in_dir / REPORT_NAME
    if not report_path.is_file():
        raise LayoutError(f"{report_path} does not exist (run evolve first)")
    import json
    from . import evolution

    try:  # bytes decoded here: json.loads would take UTF-16 and UTF-32 too
        payload = json.loads(report_path.read_bytes().decode("utf-8"))
        report = evolution.report_from_json_dict(payload)
    except (ValueError, TypeError, RecursionError) as exc:
        raise LineFormatError(f"corrupt report file {report_path}: {exc}") from None
    out_dir = _out_dir(args, in_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / SUMMARIES_CSV, evolution.RevisionSummary._fields, report.summaries)
    text = _summary_text(report)
    (out_dir / "summary.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


# Each command's function, help, positional arguments and flags with their
# help; --alpha takes a float.
_COMMANDS = {
    "analyze": (cmd_analyze, "analyze one revision directory", ["revision_dir"],
                {"--config": "analysis configuration file", "--out": "output directory"}),
    "evolve": (cmd_evolve, "compare revisions under a root directory", ["root_dir"],
               {"--config": "analysis configuration file",
                "--alpha": "significance level override", "--out": "output directory"}),
    "synth": (cmd_synth, "generate a synthetic fixture", ["spec_file", "out_dir"], {}),
    "report": (cmd_report, "re-emit plot CSV and summary from evolve outputs", ["evolve_dir"],
               {"--out": "output directory (default: evolve_dir)"}),
}


def _build_parser(
    argv: list[str],
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by name, the sub-parser of the command
    that ``argv`` starts with.  Where it starts with none (no command,
    ``-h``, a typo), every command's, so that the help and the usage
    errors list them all.  Each sub-parser built costs its help texts'
    translation lookups."""
    parser = argparse.ArgumentParser(
        prog="tracewatt",
        description=(
            "Mine API interactions from call traces, attribute measured power "
            "to methods, and compare software revisions statistically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS:
        func, help_text, positionals, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        for flag, flag_help in flags.items():
            p.add_argument(flag, type=float if flag == "--alpha" else None, help=flag_help)
        p.set_defaults(func=func)
    return parser, sub.choices


def _apply_env(args) -> None:
    """Fill the chosen command's flags left unset from TRACEWATT_*
    environment variables; a variable is read only if the command takes
    its flag."""
    for flag in ("config", "alpha", "out"):
        raw = os.environ.get(ENV_PREFIX + flag.upper())
        if raw is not None and flag in vars(args) and getattr(args, flag) is None:
            try:
                setattr(args, flag, float(raw) if flag == "alpha" else raw)
            except ValueError:
                raise ConfigError(f"{ENV_PREFIX}ALPHA = {raw!r} is not a number") from None


def _stats_errors() -> tuple:
    """AnalysisError and ConvergenceError, the errors that exit 5, from
    the modules only evolve and report import: one never imported raised
    nothing."""
    return tuple(
        getattr(sys.modules[f"{__package__}.{module}"], name)
        for module, name in (("evolution", "AnalysisError"), ("stats", "ConvergenceError"))
        if f"{__package__}.{module}" in sys.modules
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser(argv)
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # reported with the command's usage, not the top-level one
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _apply_env(args)
        return args.func(args)
    except LineFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AttributionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ATTRIBUTION
    except _stats_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATS
    except (LayoutError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LAYOUT


if __name__ == "__main__":
    sys.exit(main())
