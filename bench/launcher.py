"""Start one cli-cold request with spans or with the ddreal call counter.

    python3 bench/launcher.py --spans-out FILE -- <airylog arguments>
    python3 bench/launcher.py --count-out FILE -- <airylog arguments>

The request span covers the import of ``airylog.cli`` (the cli layer's
import time, recorded as a ``cli.import`` span) and the call of
``airylog.cli.main`` after every layer has been wrapped.  Stdout and the
exit code are those of the CLI, so the parent checks them as for an
untraced request.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spans-out")
    p.add_argument("--count-out")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    if args.count_out:
        import airylog.cli

        with spans.DdrealCounter() as counter:
            rc = airylog.cli.main(argv)
        Path(args.count_out).write_text(json.dumps({"ddreal_calls": counter.count}))
        return rc

    rec = spans.Recorder()
    with rec.span(spans.REQUEST, request=0):
        with rec.span("cli.import"):
            import airylog.cli
        handle = spans.install(rec)
        try:
            rc = airylog.cli.main(argv)
        finally:
            handle.uninstall()
    rec.write(args.spans_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
