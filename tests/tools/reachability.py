"""Which ``src/repro`` functions and classes does a pytest run enter?

A pytest plugin built on ``sys.setprofile``; load it with ``-p``::

    PYTHONPATH=src python -m pytest -p tests.tools.reachability -q
    mv reachable.txt tier1.txt
    PYTHONPATH=src python -m pytest -p tests.tools.reachability \\
        benchmarks/ledger -q
    python tests/tools/reachability.py tier1.txt reachable.txt

The run writes ``reachable.txt``: one ``module:qualname`` per line for
every function entered in this process and every class whose
dataclass-generated methods ran.  The script prints each function and
class defined under ``src/repro`` that none of the given files names.
Code run only in child processes (``--subprocess`` servers) is not seen,
and a class with no Python methods of its own (an exception, an enum)
is listed unless one ran: read the output as candidates.
"""

from __future__ import annotations

import ast
import sys
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
_codes: set = set()
_classes: set = set()


def _profile(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        _codes.add(code)
        if code.co_filename == "<string>" and "self" in frame.f_locals:
            _classes.add(type(frame.f_locals["self"]))


def pytest_configure(config):
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def pytest_unconfigure(config):
    sys.setprofile(None)
    threading.setprofile(None)
    root = str(SRC) + "/"
    names = {  # functions only: module and class bodies run at import
        code.co_filename[len(root):-3].replace("/", ".") + ":" + code.co_qualname
        for code in _codes
        if code.co_filename.startswith(root) and code.co_flags & CO_OPTIMIZED
    }
    names |= {
        f"{cls.__module__}:{cls.__qualname__}"
        for cls in _classes
        if cls.__module__.startswith("repro")
    }
    Path("reachable.txt").write_text("".join(f"{n}\n" for n in sorted(names)))


def defined() -> list[str]:
    """``module:qualname`` of every function and class under src/repro."""
    out = []

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(f"{module}:{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                out.append(f"{module}:{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), module, "")
    return out


if __name__ == "__main__":
    entered = set()
    for name in sys.argv[1:]:
        entered |= set(Path(name).read_text().split())
    for name in defined():
        if name in entered or any(e.startswith(name + ".") for e in entered):
            continue
        print(name)
