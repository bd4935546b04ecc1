"""Run one `torusrep` command in this interpreter with the layer tracer on.

    python3 perfbench/child.py matrices --p 23 --c 1

Standard output is exactly the command's.  After the command ends, one line
`tracer.MARKER <json>` with the tracer's stats goes to standard error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    from torusrep import cli

    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main(argv)
    finally:
        tr.uninstall()
    sys.stdout.flush()
    sys.stderr.write(f"{tracer.MARKER} {json.dumps(tr.stats())}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
