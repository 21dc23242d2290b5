"""Where the program under test lives, and the environment record that
goes into every result file."""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no importable edgereg sources."""


def use_checkout_src() -> None:
    """Import edgereg from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import edgereg
    except ImportError as exc:
        raise MissingProgram(f"cannot import edgereg from {SRC}: {exc}") from exc
    where = Path(edgereg.__file__).resolve()
    if SRC not in where.parents:
        raise MissingProgram(f"edgereg was imported from {where}, not from {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, which identifies the code
    under test even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "edgereg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def loadavg() -> list[float]:
    return list(os.getloadavg())


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
