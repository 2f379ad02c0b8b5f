"""Lint: ``repro.store.framedlog`` is the one module that touches framed files.

The ``len | crc32 | body`` format, its damage rule and its append
handle live in one module; every other module reads and writes framed
files through it.  Opening a file for appending or in-place rewriting,
truncating one, or packing the frame header anywhere else grows a
second copy of the format and its recovery policy.  This test (and the
matching grep step in CI) fails on any such line under ``src/``
outside ``src/repro/store/framedlog.py``.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
ALLOWED = Path("src") / "repro" / "store" / "framedlog.py"
FORBIDDEN = re.compile(
    r"""(["'])(ab|r\+b|wb)\1"""  # an append / in-place / rewrite file mode
    r"""|\.truncate\("""
    r"""|struct\.Struct\(\s*["']>II["']"""
)


def offending_lines() -> list[str]:
    offenders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT)
        if relative == ALLOWED:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if FORBIDDEN.search(line):
                offenders.append(f"{relative}:{number}: {line.strip()}")
    return offenders


def test_framing_lives_in_framedlog_only():
    offenders = offending_lines()
    assert offenders == [], (
        "framed-file access outside repro.store.framedlog (use its read/scan, "
        f"FramedLog handle or fault injections instead): {offenders}"
    )
