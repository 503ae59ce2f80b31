"""The benchmark's own checks: ``python3 -m pytest perfbench``.

The benchmark must keep working while the library deletes internals, so
it may use only public names of ``repro`` and must never select the
uncompiled engine path.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = sorted(p for p in HERE.glob("*.py") if p.name != Path(__file__).name)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _repro_names(tree: ast.Module) -> set[str]:
    """Local names bound to repro modules or objects by imports."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _repro_names(tree)
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            parts = node.module.split(".") + [a.name for a in node.names]
            found += [f"{where}: imports private {p!r}" for p in parts if _private(p)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    found += [f"{where}: imports private {p!r}" for p in parts if _private(p)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{where}: reads private {node.attr!r} of repro")
        elif isinstance(node, ast.keyword) and node.arg == "compile":
            found.append(f"{where}: passes compile=")
        elif isinstance(node, ast.Constant) and node.value == "--no-compile":
            found.append(f"{where}: passes --no-compile")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"run.py", "streams.py", "trace_run.py", "host.py"}


def test_public_api_only():
    problems = [v for path in SOURCES for v in _violations(path)]
    assert problems == []


def test_checker_catches_private_use(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.engine.batch import _PLAN_CACHE\n"
        "import repro.engine\n"
        "repro.engine.batch._replay(None, None)\n"
        "run_many([], compile=False)\n"
        "main(['run', '--no-compile'])\n"
    )
    assert [v.split(":")[1] for v in _violations(bad)] == ["1", "3", "4", "5"]


def test_span_self_times():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from trace_run import Spans

    spans = Spans()
    with spans.span("root", 0):
        with spans.span("child", 0):
            time.sleep(0.02)
        time.sleep(0.01)
    by_name = {name: s for name, _job, s in spans.self_times()}
    assert by_name["child"] >= 0.02
    assert 0.01 <= by_name["root"] < by_name["child"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-tsqr-thread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stop_children_leaves_no_process():
    """Pool workers and the resource tracker are gone once it returns."""
    script = (
        "import multiprocessing, sys\n"
        "from multiprocessing import shared_memory\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import host\n"
        "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        "ctx = multiprocessing.get_context('fork')\n"
        "p = ctx.Process(target=__import__('time').sleep, args=(60,), daemon=True)\n"
        "p.start()\n"
        "assert len(host._child_pids()) == 2\n"
        "seg.close(); seg.unlink()\n"
        "host.stop_children(timeout=0.5)\n"
        "print(host._child_pids())\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
