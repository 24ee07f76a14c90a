"""Run one `pathmove` command in this fresh process through
`pathmove.cli.main`, and write what the parent needs to a JSON file.

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) -- <pathmove argv>

The parent sets the BLAS/OpenMP thread variables and PYTHONPATH before
starting this process, so numpy is pinned to one thread when pathmove
imports it.  With TRACE 1 the public names are wrapped first (see
spans.py) and the spans are written to the result; the command itself
runs under a `cli.<command>` span.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, trace, sep, *command = argv
    if sep != "--" or trace not in ("0", "1") or not command:
        print("usage: child.py RESULT_JSON 0|1 -- <pathmove argv>", file=sys.stderr)
        return 2
    src = Path(__file__).resolve().parents[1] / "src"

    import pathmove.cli

    if src not in Path(pathmove.cli.__file__).resolve().parents:
        print(f"error: pathmove imported from {pathmove.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    out = {"missing": [], "spans": []}
    if trace == "1":
        import spans

        recorder = spans.Recorder()
        out["missing"] = spans.install(recorder)
        with recorder.span(f"cli.{command[0]}"):
            code = pathmove.cli.main(command)
        out["spans"] = recorder.spans
    else:
        code = pathmove.cli.main(command)
    out["exit_code"] = code
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
