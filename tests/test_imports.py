"""Each command loads only the modules it runs: checked in fresh
interpreters, since this test process has imported everything already."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import epubgen
from mockserver import MockBackendServer, figure_captions

SRC = Path(__file__).resolve().parents[1] / "src"

HTTP_STACK = ("urllib.request", "http.client", "email", "concurrent.futures")
REPAIR_ONLY = ("altgen.backend", "altgen.enrich", "altgen.langdetect", "altgen.reconstruct")

# Prints the altgen modules whose bodies have not run (still lazy; type()
# does not trigger a load) and the HTTP modules that have been loaded.
_REPORT = """
import sys, types
print(sorted(n for n, m in sys.modules.items()
             if n.startswith("altgen") and type(m) is not types.ModuleType))
print(sorted(n for n in sys.modules if n in {http!r} and n not in before))
"""


def _run(script: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ALTGEN_BACKEND_URL", None)
    code = "import sys\nbefore = set(sys.modules)\n" + textwrap.dedent(script)
    code += _REPORT.format(http=set(HTTP_STACK))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-2:]


def _book(tmp_path) -> Path:
    book = tmp_path / "book.epub"
    book.write_bytes(
        epubgen.make_book(language=None, images=[{"chapter": 0, "name": "fox.png", "alt": None}])
    )
    return book


def test_cli_import_loads_no_http_stack_and_no_repair_module():
    lazy, http = _run("import altgen.cli")
    assert lazy == str(sorted(REPAIR_ONLY))
    assert http == "[]"


def test_audit_never_runs_a_repair_only_module(tmp_path):
    script = """
    import io, contextlib
    from altgen import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["audit", sys.argv[1]]) == 1
    """
    lazy, http = _run(script, str(_book(tmp_path)))
    assert lazy == str(sorted(REPAIR_ONLY))
    assert http == "[]"


def test_stub_repair_loads_repair_modules_but_no_http_stack(tmp_path):
    script = """
    import io, contextlib
    from altgen import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["repair", sys.argv[1], "-o", sys.argv[2], "--jobs", "1"]) == 0
    """
    lazy, http = _run(script, str(_book(tmp_path)), str(tmp_path / "out"))
    assert lazy == "[]"
    assert http == "[]"


def test_remote_repair_runs_books_on_threads_without_multiprocessing(tmp_path):
    src = tmp_path / "books"
    src.mkdir()
    for name in ("a", "b", "c"):
        (src / f"{name}.epub").write_bytes(
            epubgen.make_book(
                images=[{"chapter": 0, "name": "f.png", "alt": None, "caption": "Figure 1"}]
            )
        )
    script = """
    import io, contextlib
    from altgen import cli
    argv = ["repair", sys.argv[1], "-o", sys.argv[2], "--jobs", "2", "--backend", sys.argv[3]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert "multiprocessing" not in sys.modules
    """
    with MockBackendServer() as server:
        server.script.respond = figure_captions()
        lazy, http = _run(script, str(src), str(tmp_path / "out"), server.url)
        assert len(server.script.requests) >= 3
    assert lazy == "[]"
    assert http == str(sorted(HTTP_STACK))


def test_lazily_bound_module_imports_as_usual():
    script = """
    import altgen.cli
    import altgen.backend
    assert altgen.backend.StubBackend().backend_id == "stub"
    from altgen.backend import RemoteBackend
    RemoteBackend("http://localhost:9")
    """
    lazy, http = _run(script)
    assert lazy == str(sorted(REPAIR_ONLY[1:]))
    assert http == str(sorted(HTTP_STACK[:3]))


def test_backend_imported_first_is_the_module_pipeline_uses():
    script = """
    import altgen.backend
    import altgen.pipeline
    assert altgen.pipeline.backend is altgen.backend is sys.modules["altgen.backend"]
    """
    lazy, _ = _run(script)
    assert lazy == str(sorted(REPAIR_ONLY[1:]))


def test_every_traced_name_resolves_after_cli_import():
    # the benchmark's tracer wraps these by name in the modules `import
    # altgen.cli` leaves in sys.modules; a renamed or deleted function
    # would break the traced run
    script = """
    import importlib.util
    import altgen.cli
    spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
    tracer = sys.modules["tracer"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = []
    for _, module, attribute in tracer.TRACED:
        owner = sys.modules.get(module)
        cls_name, _, method = attribute.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        target = vars(owner).get(method) if owner is not None else None
        if not callable(target):
            unresolved.append(f"{module}.{attribute}")
    assert not unresolved, unresolved
    """
    _run(script, str(SRC.parent / "perfbench" / "tracer.py"))
