"""Command line behaviour: flags, config file, report formats, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from altgen.cli import _make_parser, build_config, main
from altgen.pipeline import REPORT_FILENAME, FileResult, PipelineError
from epubgen import make_book


def parse(argv: list[str]):
    return _make_parser().parse_args(argv)


def write_defective(path: Path) -> Path:
    path.write_bytes(
        make_book(
            language=None,
            images=[
                {"chapter": 0, "name": "fox.png", "alt": None, "caption": "A red fox at dusk"},
                {"chapter": 1, "name": "map.svg", "alt": None, "svg_title": "Harbour map"},
            ],
        )
    )
    return path


# no scheme, a scheme other than http(s), no host, or a port out of range
BAD_BACKENDS = [
    "file:///tmp", "http//x", "ftp://127.0.0.1:9", "localhost:8080", "https://", "http://x:99999",
]


def no_backoff(seconds: float) -> None:
    raise AssertionError(f"backed off {seconds} s")


class TestBuildConfig:
    def test_defaults(self, clean_book):
        config = build_config(parse(["audit", str(clean_book)]))
        assert config.backend == "stub"
        assert config.report_format == "text"
        assert config.strict is False

    def test_flags_override_config_file(self, tmp_path, clean_book):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2, "strict": True}), encoding="utf-8")
        config = build_config(
            parse(["audit", str(clean_book), "--config", str(cfg), "--jobs", "5"])
        )
        assert config.jobs == 5  # flag wins
        assert config.strict is True  # file fills the gap

    def test_config_file_unknown_key(self, tmp_path, clean_book):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"jgbs": 2}', encoding="utf-8")
        with pytest.raises(PipelineError, match="unknown config key"):
            build_config(parse(["audit", str(clean_book), "--config", str(cfg)]))

    def test_config_file_wrong_type(self, tmp_path, clean_book):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"jobs": "four"}', encoding="utf-8")
        with pytest.raises(PipelineError, match="must be int"):
            build_config(parse(["audit", str(clean_book), "--config", str(cfg)]))

    @pytest.mark.parametrize("key", ["jobs", "max_alt_length", "bleu_max_n"])
    @pytest.mark.parametrize("value", [True, False])
    def test_config_file_boolean_is_not_an_int(self, tmp_path, clean_book, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(PipelineError, match=f"config key '{key}' must be int"):
            build_config(parse(["audit", str(clean_book), "--config", str(cfg)]))

    def test_config_file_not_object(self, tmp_path, clean_book):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(PipelineError, match="JSON object"):
            build_config(parse(["audit", str(clean_book), "--config", str(cfg)]))

    def test_config_file_unreadable(self, tmp_path, clean_book):
        with pytest.raises(PipelineError, match="unreadable config file"):
            build_config(
                parse(["audit", str(clean_book), "--config", str(tmp_path / "no.json")])
            )

    def test_backend_env_default(self, clean_book, monkeypatch):
        monkeypatch.setenv("ALTGEN_BACKEND_URL", "http://127.0.0.1:9")
        config = build_config(parse(["audit", str(clean_book)]))
        assert config.backend == "http://127.0.0.1:9"

    def test_backend_flag_beats_env(self, clean_book, monkeypatch):
        monkeypatch.setenv("ALTGEN_BACKEND_URL", "http://127.0.0.1:9")
        config = build_config(parse(["audit", str(clean_book), "--backend", "stub"]))
        assert config.backend == "stub"

    def test_output_dir_from_config_file(self, tmp_path, clean_book):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
        config = build_config(parse(["audit", str(clean_book), "--config", str(cfg)]))
        assert config.output_dir == tmp_path / "out"


class TestAuditCommand:
    def test_clean_exit_zero(self, clean_book, capsys):
        assert main(["audit", str(clean_book)]) == 0
        out = capsys.readouterr().out
        assert f"{clean_book}: Audited errors 0 -> -" in out
        assert "aggregate: pre_errors=0 post_errors=0" in out

    def test_defective_exit_one(self, defective_book, capsys):
        assert main(["audit", str(defective_book)]) == 1
        out = capsys.readouterr().out
        assert f"{defective_book}: Audited errors 3 -> -" in out
        assert "pre_errors=3" in out

    def test_json_report(self, defective_book, capsys):
        assert main(["audit", str(defective_book), "--report", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["pre_errors"] == 3
        assert payload["files"][0]["status"] == "Audited"
        issues = payload["files"][0]["pre_report"]["issues"]
        assert {i["code"] for i in issues} >= {"ImgMissingAlt", "MissingDcLanguage"}

    def test_missing_path_exit_two(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "ghost.epub")]) == 2
        assert "altgen: error:" in capsys.readouterr().err


class TestRepairCommand:
    def test_repair_defective(self, tmp_path, capsys):
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        assert main(["repair", str(book), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"{book}: Repaired errors 3 -> 0, 2 alt(s) written" in stdout
        assert "err_percent=100.00" in stdout
        assert (out / "story.epub").is_file()
        assert (out / REPORT_FILENAME).is_file()

    def test_output_dir_required(self, clean_book):
        with pytest.raises(SystemExit) as excinfo:
            main(["repair", str(clean_book)])
        assert excinfo.value.code == 2

    def test_max_alt_length_flag(self, tmp_path):
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        assert main(["repair", str(book), "-o", str(out), "--max-alt-length", "30"]) == 0
        from altgen.container import open_epub
        from altgen.content import find_images

        repaired = open_epub((out / "story.epub").read_bytes())
        occs = find_images(repaired.entry("OEBPS/ch1.xhtml"), "OEBPS/ch1.xhtml")
        assert occs[0].existing_alt
        assert len(occs[0].existing_alt) <= 30

    @pytest.mark.parametrize("length", [5, 19, 1001])
    def test_max_alt_length_out_of_range_exit_two(self, tmp_path, capsys, length):
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        assert main(["repair", str(book), "-o", str(out), "--max-alt-length", str(length)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"altgen: error: max_alt_length {length} outside [20, 1000]\n"
        assert captured.out == ""
        assert not out.exists()  # failed before any book was read

    @pytest.mark.parametrize("backend", BAD_BACKENDS)
    def test_backend_neither_stub_nor_http_url_exit_two(
        self, tmp_path, capsys, monkeypatch, backend
    ):
        monkeypatch.setattr(time, "sleep", no_backoff)
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        assert main(["repair", str(book), "-o", str(out), "--jobs", "1", "--backend", backend]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"altgen: error: backend {backend!r} is neither 'stub' nor an http(s) URL with a host\n"
        )
        assert captured.out == ""
        assert not out.exists()  # failed before any book was read

    def test_max_alt_length_bounds_accepted(self, tmp_path, capsys):
        book = write_defective(tmp_path / "story.epub")
        for length in ("20", "1000"):
            out = tmp_path / length
            assert main(["repair", str(book), "-o", str(out), "--max-alt-length", length]) == 0
        assert capsys.readouterr().err == ""

    def test_clean_book_line(self, clean_book, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["repair", str(clean_book), "-o", str(out)]) == 0
        assert "CleanSkipped errors 0 -> -" in capsys.readouterr().out

    def test_unwritable_collision(self, tmp_path, capsys):
        # output dir path already exists as a file
        book = write_defective(tmp_path / "story.epub")
        blocker = tmp_path / "out"
        blocker.write_text("a file, not a dir")
        assert main(["repair", str(book), "-o", str(blocker)]) == 2
        assert "altgen: error:" in capsys.readouterr().err

    def test_json_report_is_the_written_file(self, tmp_path, capsys, monkeypatch):
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        rows = []
        to_dict = FileResult.to_dict
        monkeypatch.setattr(FileResult, "to_dict", lambda self: rows.append(1) or to_dict(self))
        assert main(["repair", str(book), "-o", str(out), "--report", "json"]) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        assert stdout == (out / REPORT_FILENAME).read_bytes() + b"\n"
        assert len(rows) == 1  # the report is encoded once

    def test_unwritable_report(self, tmp_path, capsys):
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        (out / REPORT_FILENAME).mkdir(parents=True)
        assert main(["repair", str(book), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"altgen: error: cannot write {REPORT_FILENAME}:")
        assert "Traceback" not in err


class TestValidateCommand:
    def _repaired(self, tmp_path) -> tuple[Path, Path]:
        book = write_defective(tmp_path / "story.epub")
        out = tmp_path / "out"
        assert main(["repair", str(book), "-o", str(out)]) == 0
        from altgen.container import open_epub
        from altgen.content import find_images

        repaired = open_epub((out / "story.epub").read_bytes())
        rows = []
        for doc in ("OEBPS/ch1.xhtml", "OEBPS/ch2.xhtml"):
            for i, occ in enumerate(find_images(repaired.entry(doc), doc)):
                rows.append(
                    {"epub": "story.epub", "doc": doc, "index": i, "alt": occ.existing_alt}
                )
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps(rows), encoding="utf-8")
        return out, refs

    def test_text_line(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("validate: ")
        assert "cosine=1.0000" in line
        assert "bleu=1.0000" in line
        assert "err_percent=100.0000" in line
        assert "n_pairs=2" in line
        assert "embed_failures=0 bleu_failures=0 missing_references=0" in line

    def test_overlong_reference_fails_only_its_pair(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        rows = json.loads(refs.read_text(encoding="utf-8"))
        rows[0]["alt"] = "x" * 2001  # over the stub embedder's limit
        refs.write_text(json.dumps(rows), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        line = captured.out.strip()
        assert "n_pairs=2" in line
        assert "embed_failures=1" in line
        assert "cosine=1.0000" in line

    def test_json_report(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        capsys.readouterr()
        code = main(["validate", str(out), "--references", str(refs), "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_pairs"] == 2
        assert payload["cosine"] == pytest.approx(1.0)

    def test_references_required(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_bad_references_exit_two(self, tmp_path, capsys):
        out, _ = self._repaired(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(bad)]) == 2
        assert "altgen: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("alt", 5), ("epub", 5), ("doc", ["x"])])
    def test_reference_field_not_a_string_exit_two(self, tmp_path, capsys, key, value):
        out, refs = self._repaired(tmp_path)
        rows = json.loads(refs.read_text(encoding="utf-8"))
        rows[1][key] = value
        refs.write_text(json.dumps(rows), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs)]) == 2
        assert capsys.readouterr().err == f'altgen: error: reference 1: "{key}" must be a string\n'

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_bleu_max_n_below_one_exit_two(self, tmp_path, capsys, max_n):
        out, refs = self._repaired(tmp_path)
        capsys.readouterr()
        code = main(["validate", str(out), "--references", str(refs), "--bleu-max-n", str(max_n)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"altgen: error: bleu_max_n {max_n} is below 1\n"
        assert captured.out == ""

    def test_boolean_index_is_a_missing_reference(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        rows = json.loads(refs.read_text(encoding="utf-8"))
        rows[0]["index"] = False  # not image 0
        refs.write_text(json.dumps(rows), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs), "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_pairs"] == 1
        assert payload["missing_references"] == 1

    # JSON gives exact types: true is a bool, not a number; json.dumps
    # writes NaN and Infinity, which json.loads reads back
    @pytest.mark.parametrize(
        "value", [True, float("nan"), float("inf"), -5], ids=["true", "nan", "inf", "negative"]
    )
    def test_stored_timing_must_be_a_finite_non_negative_number(self, tmp_path, capsys, value):
        out, refs = self._repaired(tmp_path)
        report = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        report["files"][0]["elapsed_seconds"] = value
        (out / REPORT_FILENAME).write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs), "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_files"] == 0
        assert payload["seconds_per_file"] is None

    @pytest.mark.parametrize("n_refs", [0, 1], ids=["no-pairs", "one-pair"])
    def test_stored_timings_whose_sum_overflows_average_finitely(self, tmp_path, capsys, n_refs):
        out, refs = self._repaired(tmp_path)
        rows = json.loads(refs.read_text(encoding="utf-8"))
        refs.write_text(json.dumps(rows[:n_refs]), encoding="utf-8")
        report = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        report["files"] = [{"elapsed_seconds": 1e308}, {"elapsed_seconds": 1e308}]
        (out / REPORT_FILENAME).write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs), "--report", "json"]) == 0

        def not_json(name):
            raise AssertionError(f"{name} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=not_json)
        assert payload["n_pairs"] == n_refs
        assert payload["n_files"] == 2
        assert payload["seconds_per_file"] == 1e308

    def test_stored_files_row_not_an_object_is_skipped(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        report = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        report["files"].insert(0, 1)
        (out / REPORT_FILENAME).write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs), "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_files"] == 1  # the one row that is an object

    @pytest.mark.parametrize(
        "pre, post, code",
        # a count past the float range has no rate, but still counts: a
        # kept post_errors above 0 means errors remain
        [
            (True, True, 0), (-1, 0, 0), (4, -1, 0), (4.0, 0, 0), ("4", 0, 0),
            (10**400, 0, 0), (1, 10**400, 1),
        ],
        ids=["true", "negative-pre", "negative-post", "float", "string", "huge-pre", "huge-post"],
    )
    def test_stored_error_counts_must_be_non_negative_ints(
        self, tmp_path, capsys, pre, post, code
    ):
        out, refs = self._repaired(tmp_path)
        report = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        report["aggregate"].update(pre_errors=pre, post_errors=post)
        (out / REPORT_FILENAME).write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs), "--report", "json"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["err_percent"] is None
        assert payload["no_baseline"] is False

    @pytest.mark.parametrize("stored", [[1, 2], "x", None], ids=["array", "string", "null"])
    def test_stored_report_not_an_object_exit_two(self, tmp_path, capsys, stored):
        out, refs = self._repaired(tmp_path)
        (out / REPORT_FILENAME).write_text(json.dumps(stored), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"altgen: error: unreadable {REPORT_FILENAME}: not a JSON object\n"
        assert captured.out == ""

    def test_stored_report_not_utf8_exit_two(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        (out / REPORT_FILENAME).write_bytes(b"\xff\xfe{")
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"altgen: error: unreadable {REPORT_FILENAME}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("backend", BAD_BACKENDS)
    def test_backend_neither_stub_nor_http_url_exit_two(
        self, tmp_path, capsys, monkeypatch, backend
    ):
        out, refs = self._repaired(tmp_path)
        monkeypatch.setattr(time, "sleep", no_backoff)
        capsys.readouterr()
        assert main(["validate", str(out), "--references", str(refs), "--backend", backend]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"altgen: error: backend {backend!r} is neither 'stub' nor an http(s) URL with a host\n"
        )
        assert captured.out == ""

    def test_bleu_flags_pass_through(self, tmp_path, capsys):
        out, refs = self._repaired(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "validate", str(out), "--references", str(refs),
                "--bleu-max-n", "2", "--smoothing",
            ]
        )
        assert code == 0
        assert "bleu=1.0000" in capsys.readouterr().out


class TestEntryPoints:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_invocation(self, clean_book):
        proc = subprocess.run(
            [sys.executable, "-m", "altgen", "audit", str(clean_book)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "Audited errors 0" in proc.stdout
