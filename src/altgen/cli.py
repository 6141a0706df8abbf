"""Command line interface.

    altgen audit <paths...>
    altgen repair <paths...> -o <dir>
    altgen validate <dir> --references <file>

Common flags: --backend stub|<url>, --jobs N, --report json|text, --strict,
--config <file>. Exit codes: 0 clean/success, 1 residual errors, 2
operational failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from altgen.errors import AltgenError
from altgen.pipeline import (
    FileResult,
    PipelineConfig,
    PipelineError,
    default_backend_name,
    report_dict,
    run_audit,
    run_repair,
    run_validate,
)

_CONFIG_KEYS = {
    "backend": str,
    "jobs": int,
    "max_alt_length": int,
    "bleu_max_n": int,
    "smoothing": bool,
    "output_dir": str,
    "report_format": str,
    "strict": bool,
}


def _load_config_file(path: str) -> dict:
    try:
        parsed = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PipelineError(f"unreadable config file {path}: {exc}") from exc
    if not isinstance(parsed, dict):
        raise PipelineError("config file must hold a JSON object")
    for key, value in parsed.items():
        expected = _CONFIG_KEYS.get(key)
        if expected is None:
            raise PipelineError(f"unknown config key {key!r}")
        if not isinstance(value, expected):
            raise PipelineError(f"config key {key!r} must be {expected.__name__}")
    return parsed


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file values, then explicit flags."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values.setdefault("backend", default_backend_name())
    if "output_dir" in values and values["output_dir"] is not None:
        values["output_dir"] = Path(values["output_dir"])
    try:
        return PipelineConfig(**values)
    except (TypeError, ValueError) as exc:
        raise PipelineError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        metavar="stub|URL",
        help="captioning backend: 'stub' or a service base URL "
        "(default: ALTGEN_BACKEND_URL or stub)",
    )
    parser.add_argument("--jobs", type=int, metavar="N", help="parallel workers (default: CPUs)")
    parser.add_argument(
        "--report", dest="report_format", choices=("json", "text"), help="stdout report format"
    )
    parser.add_argument(
        "--strict", action="store_true", default=None, help="fail a file on any backend error"
    )
    parser.add_argument("--config", metavar="FILE", help="JSON config file mirroring the flags")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altgen",
        description="Audit, repair, and validate EPUB accessibility (alt text and metadata).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="report accessibility issues without writing")
    p_audit.add_argument("paths", nargs="+", help="EPUB files or directories")
    _add_common(p_audit)

    p_repair = sub.add_parser("repair", help="write repaired copies plus a JSON report")
    p_repair.add_argument("paths", nargs="+", help="EPUB files or directories")
    p_repair.add_argument("-o", "--output-dir", dest="output_dir", required=True, metavar="DIR")
    p_repair.add_argument(
        "--max-alt-length", dest="max_alt_length", type=int, metavar="N",
        help="caption length budget (default 250)",
    )
    _add_common(p_repair)

    p_validate = sub.add_parser("validate", help="score repaired output against references")
    p_validate.add_argument("repaired_dir", help="directory produced by repair")
    p_validate.add_argument("--references", required=True, metavar="FILE")
    p_validate.add_argument("--bleu-max-n", dest="bleu_max_n", type=int, metavar="N")
    p_validate.add_argument(
        "--smoothing", action="store_true", default=None, help="add-one BLEU smoothing"
    )
    _add_common(p_validate)
    return parser


def _print_file_lines(results: list[FileResult], out) -> None:
    for r in results:
        pre = r.pre_report.error_count if r.pre_report else "-"
        post = r.post_report.error_count if r.post_report else "-"
        line = f"{r.input_path}: {r.status.value} errors {pre} -> {post}"
        if r.alts_written:
            line += f", {r.alts_written} alt(s) written"
        if r.caption_failures:
            line += f", {r.caption_failures} caption failure(s)"
        if r.failure_reason:
            line += f" ({r.failure_reason})"
        print(line, file=out)


def _emit_batch_report(results: list[FileResult], config: PipelineConfig, out) -> None:
    payload = report_dict(results)
    if config.report_format == "json":
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    _print_file_lines(results, out)
    agg = payload["aggregate"]
    print(
        "aggregate: pre_errors={pre_errors} post_errors={post_errors} "
        "err_percent={err_percent:.2f} seconds_per_file={seconds_per_file:.3f}".format(**agg),
        file=out,
    )


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "audit":
            results, code = run_audit(args.paths, config)
            _emit_batch_report(results, config, sys.stdout)
            return code
        if args.command == "repair":
            results, code = run_repair(args.paths, config)
            _emit_batch_report(results, config, sys.stdout)
            return code
        report, code = run_validate(args.repaired_dir, args.references, config)
        if config.report_format == "json":
            json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            d = report.to_dict()
            parts = []
            for key in (
                "cosine", "bleu", "err_percent", "seconds_per_file",
                "n_files", "n_pairs", "embed_failures", "missing_references",
            ):
                value = d[key]
                if isinstance(value, float):
                    parts.append(f"{key}={value:.4f}")
                else:
                    parts.append(f"{key}={value}")
            if d["no_baseline"]:
                parts.append("no_baseline=true")
            print("validate: " + " ".join(parts))
        return code
    except AltgenError as exc:
        print(f"altgen: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
