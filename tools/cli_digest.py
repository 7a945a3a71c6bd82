"""Two sha256 per benchmark operation: of its outcome on stdout and with ``--out FILE``.

    python3 tools/cli_digest.py [--src DIR] [--seeds 1-5]

Builds every workload's inputs with ``bench/workloads.build`` for every seed,
runs each operation twice as ``python -m fractaldim.cli ARGV`` in a fresh
interpreter with the package imported from ``--src`` (default: this
checkout's ``src``), once as it is and once with ``--out FILE`` appended, and
prints one line per operation:

    WORKLOAD SEED OP STDOUT_SHA256 OUT_SHA256

The first hash covers the exit status, stdout and stderr of the plain run.
The second covers the same of the ``--out`` run and the bytes of FILE, or a
marker when no FILE was made.  Two source trees print the same lines exactly
when every command gives the same outcome on both, on both output paths, so
``diff`` of two runs checks a change for byte identity.  The inputs come from
this checkout's ``bench/``, which is only imported, so both runs see the same
inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def digest(src: Path, argv: list[str], cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "fractaldim.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    # lengths first, so no two outcomes hash the same bytes
    head = b"%d\0%d\0%d\0" % (proc.returncode, len(proc.stdout), len(proc.stderr))
    return hashlib.sha256(head + proc.stdout + proc.stderr).hexdigest()


def out_digest(src: Path, argv: list[str], cwd: Path) -> str:
    """The digest of the run with ``--out FILE`` and of FILE's bytes, or of a marker for none."""
    path = cwd / "cli_digest.out"
    path.unlink(missing_ok=True)
    run = digest(src, [*argv, "--out", path.name], cwd).encode()
    written = b"file\0" + path.read_bytes() if path.exists() else b"no file"
    path.unlink(missing_ok=True)
    return hashlib.sha256(run + b"\0" + written).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding fractaldim")
    parser.add_argument("--seeds", default="1-5", help="one seed N or a range LO-HI")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    for name in workloads.WORKLOADS:
        for seed in _seeds(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                for op in workloads.build(name, seed, work):
                    print(name, seed, op.name, digest(src, op.argv, work),
                          out_digest(src, op.argv, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
