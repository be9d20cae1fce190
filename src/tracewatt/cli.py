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
may run on, as many as the input's size pays for: one forked child per
chunk but the first, results merged in scan order, so outputs, exit
codes and error lines are those of a run on one CPU (``taskset -c 0``,
a small input, or a platform without fork runs no child).  Each chunk's
process forms its own methods.csv text; analyze writes the header, then
those texts in chunk order.

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


def _write_records(path: Path, record_type: type, records) -> None:
    """One CSV row per NamedTuple record, one column per field."""
    _write_csv(path, record_type._fields, records)


def _out_dir(args, default: "Path | str" = "tracewatt-out") -> Path:
    """The command's --out directory, else ``default``; created if missing."""
    out_dir = Path(args.out if args.out is not None else default)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


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
    _write_records(out_dir / SUMMARIES_CSV, evolution.RevisionSummary, report.summaries)


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
    out_dir = _out_dir(args)
    _write_csv(out_dir / "methods.csv", METHOD_COLUMNS, [], methods_csv)
    _write_records(out_dir / "tests.csv", ExecutionRecord, dataset.records)
    print(
        f"analyzed revision {dataset.revision}: "
        f"{len(dataset.records)} executions -> {out_dir}"
    )
    return EXIT_OK


def cmd_evolve(args) -> int:
    from . import evolution  # and stats: analyze runs no statistics

    config = _load_analysis_config(args.config)
    if args.alpha is not None:
        # built anew, not by _replace, which would skip the config's checks
        config = AnalysisConfig(**{**config._asdict(), "alpha": args.alpha})
    root = Path(args.root_dir)
    if not root.is_dir():
        raise LayoutError(f"{root} is not a directory")
    revision_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if len(revision_dirs) < 2:
        raise LayoutError(
            f"{root}: need at least 2 revision subdirectories, "
            f"found {len(revision_dirs)}"
        )
    datasets, _ = analyze_revision(
        _scan_revisions(config, revision_dirs), config, with_rows=False
    )
    report = evolution.compare(datasets, config)
    out_dir = _out_dir(args)
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
    _write_records(out_dir / SUMMARIES_CSV, evolution.RevisionSummary, report.summaries)
    text = _summary_text(report)
    (out_dir / "summary.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's sub-parser, by name."""
    parser = argparse.ArgumentParser(
        prog="tracewatt",
        description=(
            "Mine API interactions from call traces, attribute measured power "
            "to methods, and compare software revisions statistically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one revision directory")
    p.add_argument("revision_dir")
    p.add_argument("--config", help="analysis configuration file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="compare revisions under a root directory")
    p.add_argument("root_dir")
    p.add_argument("--config", help="analysis configuration file")
    p.add_argument("--alpha", type=float, help="significance level override")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("synth", help="generate a synthetic fixture")
    p.add_argument("spec_file")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="re-emit plot CSV and summary from evolve outputs")
    p.add_argument("evolve_dir")
    p.add_argument("--out", help="output directory (default: evolve_dir)")
    p.set_defaults(func=cmd_report)
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
    parser, commands = _build_parser()
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
