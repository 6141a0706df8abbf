"""Benchmark of the altgen audit -> repair -> validate flow.

    python3 perfbench/run.py --workload {dense,batch,remote} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; altgen is imported from ``src/``.

``--trace 0`` builds the seeded corpus, then runs cycles of ``altgen audit``,
``altgen repair`` and ``altgen validate``, each in its own subprocess through
the real CLI with ``--jobs 2``, until ``--seconds`` have passed and at least
two cycles have run. Short commands repeat within a cycle so each one gets
about two seconds of samples, and the set-up is repeated twice a cycle in a
scratch directory to time it. Every output is checked by
``checker.py`` against the generator's ground truth; repaired bytes must
match across cycles. It prints the end-to-end metrics with their units.

``--trace 1`` runs one checked CLI cycle, then one cycle in-process without
tracing and one with ``tracer.py`` wrapping altgen's functions, and prints
the per-layer metrics.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. A book counts as attempted once per command invocation and as
failed when its row, its output or the command's exit code is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOBS = 2
MAX_ALT = 250
# Short commands repeat until a burst has this much time or MAX_REPEATS
# samples. Audit and set-up run in two bursts a cycle, so their samples come
# from more of the run; the machine's speed drifts over seconds.
MIN_SAMPLE_S = 1.0
MAX_REPEATS = 10
# Every run repeats the whole cycle, so each metric has more than one sample
# and repaired bytes are compared across cycles.
MIN_CYCLES = 2
COMMAND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALTGEN_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, os.struct_rusage]:
    """Run argv to completion; return (wall seconds, exit code, its own rusage)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


class Service:
    """The benchmark's caption service in a child process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "service.py")], stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise BenchError("caption service did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _digest(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.epub"))
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by the inclusive method (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x); 0.0 with fewer than two distinct x."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        # Imported here: corpus needs tests/epubgen.py, which main() checks first.
        import checker
        import corpus

        self.checker = checker
        self.corpus = corpus
        self.workload = workload
        self.seed = seed
        self.work = work
        self.service: Service | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[str, str] | None = None

    # --- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Generate corpus and references (and start the service) for the
        run; returns the time taken."""
        self.dir = self.work / "corpus"
        start = time.perf_counter()
        truth = self.corpus.write(self.corpus.build(self.workload, self.seed), self.dir)
        if self.workload == "remote":
            self.service = Service()
        wall = time.perf_counter() - start
        self.books = self.dir / "books"
        self.digest = _digest(self.books)
        self.rows = truth["books"]
        self.inputs = {row["name"]: (self.books / row["name"]).read_bytes() for row in self.rows}
        self.n_refs = len(json.loads((self.dir / "references.json").read_text("utf-8")))
        return wall

    def setup_again(self) -> float:
        """Repeat the set-up in a scratch directory, with a service of its
        own, and check it gives the same bytes; returns the time taken."""
        target = self.work / "setup-again"
        start = time.perf_counter()
        self.corpus.write(self.corpus.build(self.workload, self.seed), target)
        service = Service() if self.workload == "remote" else None
        wall = time.perf_counter() - start
        if service is not None:
            service.stop()
        same = _digest(target / "books") == self.digest
        shutil.rmtree(target)
        if not same:
            raise BenchError("corpus generator is not deterministic")
        return wall

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # --- one command ------------------------------------------------------

    def args(self, command: str, out: Path) -> list[str]:
        """altgen's arguments for one command writing to or reading from `out`."""
        if command == "audit":
            args = ["audit", str(self.books)]
        elif command == "repair":
            args = ["repair", str(self.books), "-o", str(out), "--max-alt-length", str(MAX_ALT)]
        else:
            args = ["validate", str(out), "--references", str(self.dir / "references.json")]
        backend = self.service.url if self.service else "stub"
        return [*args, "--backend", backend, "--jobs", str(JOBS), "--report", "json"]

    def _fail(self, books: int, problem: str) -> None:
        self.failed += books
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, command: str, code: int, stdout: str, out: Path) -> None:
        """Check one command's exit code, report and outputs; count failures."""
        n = len(self.rows)
        self.attempted += n
        expected = {"audit": int(any(r["pre_errors"] for r in self.rows)), "repair": 0, "validate": 0}
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            self._fail(n, f"{command}: exit {code}, stdout is not a JSON report")
            return
        if code != expected[command]:
            self._fail(n, f"{command}: exit {code}, expected {expected[command]}")
            return
        if command == "validate":
            problems = self.checker.check_validate_report(report, self.n_refs)
            if problems:
                self._fail(n, f"validate: {problems[:3]}")
            return
        if command == "audit":
            per_book = self.checker.check_audit_report(report, self.rows)
        else:
            per_book = self.checker.check_repair_report(report, self.rows)
            digest = _digest(out)
            if self.first_digest is None:
                self.first_digest = digest
            for row in self.rows:
                name = row["name"]
                if name in per_book:
                    continue
                output = out / name
                if not output.is_file():
                    per_book[name] = ["no output file"]
                    continue
                found = self.checker.check_repaired_book(
                    self.inputs[name], output.read_bytes(), row, MAX_ALT
                )
                if digest.get(name) != self.first_digest.get(name):
                    found.append("repaired bytes differ from the first cycle")
                if found:
                    per_book[name] = found
        for name, found in sorted(per_book.items()):
            self._fail(1, f"{command} {name}: {found[:3]}")

    def run_cli(self, command: str, out: Path) -> tuple[float, os.struct_rusage, dict | None]:
        log = self.work / f"{command}.out"
        wall, code, usage = spawn([sys.executable, "-m", "altgen", *self.args(command, out)], log)
        stdout = log.read_text("utf-8", "replace")
        self.check(command, code, stdout, out)
        try:
            return wall, usage, json.loads(stdout)
        except json.JSONDecodeError:
            return wall, usage, None

    # --- measurement ------------------------------------------------------

    def cycle(self, k: int, samples: dict[str, list[float]]) -> dict:
        """set-up, audit, repair, set-up, validate, audit, all but repair
        repeated; returns the repair report and the last validate report."""
        out = self.work / f"out{k}"

        def cli(command: str):
            def step() -> tuple[float, dict | None]:
                wall, _, report = self.run_cli(command, out)
                return wall, report

            return step

        def setup() -> tuple[float, None]:
            return self.setup_again(), None

        self._repeat("setup", setup, samples, MIN_SAMPLE_S)
        self._repeat("audit", cli("audit"), samples, MIN_SAMPLE_S)
        wall, usage, repair_report = self.run_cli("repair", out)
        samples["repair"].append(wall)
        samples["rss_mb"].append(usage.ru_maxrss / 1024)
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        self._repeat("setup", setup, samples, MIN_SAMPLE_S)
        validate_report = self._repeat("validate", cli("validate"), samples, 2 * MIN_SAMPLE_S)
        self._repeat("audit", cli("audit"), samples, MIN_SAMPLE_S)
        return {"repair": repair_report, "validate": validate_report}

    @staticmethod
    def _repeat(name: str, step, samples: dict[str, list[float]], budget: float):
        """Call step(), which returns (seconds, result), until its seconds add
        up to `budget` or it has run MAX_REPEATS times; returns the last result."""
        spent = 0.0
        for _ in range(MAX_REPEATS):
            wall, result = step()
            samples[name].append(wall)
            spent += wall
            if spent >= budget:
                break
        return result

    def end_to_end(self, seconds: float) -> dict[str, float]:
        samples: dict[str, list[float]] = defaultdict(list)
        samples["setup"].append(self.setup())
        start = time.perf_counter()
        k = 0
        while k < MIN_CYCLES or time.perf_counter() - start < seconds:
            result = self.cycle(k, samples)
            if k:
                shutil.rmtree(self.work / f"out{k - 1}")
            k += 1
        for name, values in samples.items():
            print(f"perfbench: {name} samples {[round(v, 4) for v in values]}", file=sys.stderr)
        quality = result["validate"] or {}
        # Command times are means: the machine alternates between a fast and
        # a slow state, and the median of samples from both jumps from one
        # state to the other, while the mean follows the share of each.
        repair_s = statistics.fmean(samples["repair"])
        return {
            "setup_s": statistics.fmean(samples["setup"]),
            "audit_s": statistics.fmean(samples["audit"]),
            "repair_s": repair_s,
            "validate_s": statistics.fmean(samples["validate"]),
            "seconds_per_file": repair_s / len(self.rows),
            "repair_peak_rss_mb": statistics.median(samples["rss_mb"]),
            "err_percent": quality.get("err_percent") or 0.0,
            "cosine": quality.get("cosine") or 0.0,
            "bleu": quality.get("bleu") or 0.0,
        }

    def inproc(self, traced: bool, out: Path) -> dict:
        params = {
            "src": str(SRC),
            "commands": {c: self.args(c, out) for c in ("audit", "repair", "validate")},
            "traced": traced,
            "spans": str(self.work / "spans.json"),
        }
        params_path = self.work / "inproc-params.json"
        result_path = self.work / "inproc-result.json"
        params_path.write_text(json.dumps(params), encoding="utf-8")
        _, code, _ = spawn(
            [sys.executable, str(HERE / "inproc.py"), str(params_path), str(result_path)],
            self.work / "inproc.out",
        )
        if code != 0:
            err = (self.work / "inproc.err").read_text("utf-8", "replace")
            raise BenchError(f"in-process cycle failed:\n{err[-2000:]}")
        result = json.loads(result_path.read_text("utf-8"))
        for command in ("audit", "repair", "validate"):
            self.check(command, result["codes"][command], result["stdout"][command], out)
        return result

    def per_layer(self) -> dict[str, float]:
        self.setup()
        samples: dict[str, list[float]] = defaultdict(list)
        cli_cycle = self.cycle(0, samples)
        imports = []
        for _ in range(3):
            wall, _, _ = spawn([sys.executable, "-c", "import altgen.cli"], self.work / "import.out")
            imports.append(wall)
        plain = self.inproc(False, self.work / "plain")
        before = self.service.stats() if self.service else None
        traced = self.inproc(True, self.work / "traced")
        after = self.service.stats() if self.service else None

        summary = traced["summary"]

        def span(name: str, key: str) -> float:
            return summary.get(name, {}).get(key, 0)

        alts = span("content.set_alt_text", "calls") - span("content.set_alt_text", "errors")
        parses = span("content.parse_document", "calls")
        targets = {
            row["name"]: sum(i["kind"] == "target" for imgs in row["images"].values() for i in imgs)
            for row in self.rows
        }
        books = sorted(traced["book_content_cpu_s"])
        elapsed = [f["elapsed_seconds"] for f in (cli_cycle["repair"] or {}).get("files", [])]
        if not elapsed:
            raise BenchError("repair report has no per-file timings")
        server = {"requests": {}, "max_inflight": 0, "busy_s": 0.0, "bytes_in": 0}
        if before is not None:
            server = {
                "requests": {
                    path: n - before["requests"].get(path, 0)
                    for path, n in after["requests"].items()
                },
                "max_inflight": after["max_inflight"],
                "busy_s": after["busy_s"] - before["busy_s"],
                "bytes_in": after["bytes_in"] - before["bytes_in"],
            }
        return {
            "cli.import_s": statistics.median(imports),
            "container.open_epub.s": span("container.open_epub", "s"),
            "container.write_epub.s": span("container.write_epub", "s"),
            "container.bytes_in": traced["counters"].get("container.bytes_in", 0),
            "container.bytes_out": traced["counters"].get("container.bytes_out", 0),
            "package.parse_opf.s": span("package.parse_opf", "s"),
            "package.parse_opf.calls": span("package.parse_opf", "calls"),
            "package.serialize_opf.s": span("package.serialize_opf", "s"),
            "content.find_images.s": span("content.find_images", "s"),
            "content.find_images.calls": span("content.find_images", "calls"),
            "content.parse_document.calls": parses,
            "content.extract_context.s": span("content.extract_context", "s"),
            "content.set_alt_text.self_s": span("content.set_alt_text", "self_s"),
            "content.alts_written": alts,
            "content.parses_per_alt": parses / alts if alts else 0.0,
            "content.scaling_exponent": slope(
                [targets[b] for b in books], [traced["book_content_cpu_s"][b] for b in books]
            ),
            "audit.audit.s": span("audit.audit", "s"),
            "audit.audit.calls": span("audit.audit", "calls"),
            "backend.generate_alt.s": span("backend.generate_alt", "s"),
            "backend.generate_alt.calls": span("backend.generate_alt", "calls"),
            "backend.embed_texts.calls": span("backend.embed_texts", "calls"),
            "backend.detect_language.calls": span("backend.detect_language", "calls"),
            "backend.failures": sum(
                row["errors"] for name, row in summary.items() if name.startswith("backend.")
            ),
            "backend.server.requests.caption": server["requests"].get("/v1/caption", 0),
            "backend.server.requests.embed": server["requests"].get("/v1/embed", 0),
            "backend.server.requests.language": server["requests"].get("/v1/language", 0),
            "backend.server.max_inflight": server["max_inflight"],
            "backend.server.busy_s": server["busy_s"],
            "backend.server.bytes_in": server["bytes_in"],
            "enrich.enrich_metadata.s": span("enrich.enrich_metadata", "s"),
            "langdetect.detect_language.s": span("langdetect.detect_language", "s"),
            "langdetect.detect_language.calls": span("langdetect.detect_language", "calls"),
            "langdetect.load_embedded_profiles.s": span("langdetect.load_embedded_profiles", "s"),
            "reconstruct.rebuild.self_s": span("reconstruct.rebuild", "self_s"),
            "reconstruct.integrity_check.s": span("reconstruct.integrity_check", "s"),
            "reconstruct.write_file_atomic.s": span("reconstruct.write_file_atomic", "s"),
            "metrics.corpus_metrics.self_s": span("metrics.corpus_metrics", "self_s"),
            "metrics.bleu.calls": span("metrics.bleu", "calls"),
            "pipeline.run_repair.self_s": span("pipeline.run_repair", "self_s"),
            "pipeline.cpu_s": samples["cpu_s"][0],
            "pipeline.file_s.p50": statistics.median(elapsed),
            "pipeline.file_s.p90": percentile(elapsed, 90),
            "trace.overhead_s": sum(traced["walls"].values()) - sum(plain["walls"].values()),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description="altgen audit/repair/validate benchmark")
    parser.add_argument("--workload", required=True, choices=("dense", "batch", "remote"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [
        ROOT / "BENCHMARK.json",
        SRC / "altgen" / "cli.py",
        ROOT / "tests" / "epubgen.py",
        ROOT / "tools" / "lang_corpora",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile altgen's bytecode once so no timed command pays for it.
    spawn([sys.executable, "-c", "import altgen.cli"], work / "warmup.out")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    bench = Bench(args.workload, args.seed, work)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
        if set(metrics) != set(units):
            raise BenchError(f"measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
        for stale in ("corpus", "setup-again", "out*", "plain", "traced"):
            for path in work.glob(stale):
                shutil.rmtree(path)

    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:>14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0 and bench.attempted > 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
