"""Run one `openmult.cli` command with the layer wrappers installed.

Usage: python perfbench/cli_child.py SPANS_OUT -- CLI_ARGS...

Times `import openmult.cli` as the span `cli.import`, installs the same
wrappers as the in-process traced run, calls `openmult.cli.main(CLI_ARGS)`,
writes the spans and counters to SPANS_OUT as JSON and exits with the CLI's
exit code.  `openmult` must be importable (PYTHONPATH pointing at `src`).
"""

import json
import sys
import time

import layers
import spans


def main(argv):
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_OUT -- CLI_ARGS...")
    rec = spans.Recorder()
    rec.begin_op(0)
    t0 = time.perf_counter()
    import openmult.cli

    rec.add_span("cli.import", t0, time.perf_counter())
    installed = spans.Installation(rec, layers.TARGETS)
    try:
        code = openmult.cli.main(cli_args)
    finally:
        installed.remove()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [list(s) for s in rec.spans],
                "counts": [[name, value] for (_op, name), value in rec.counts.items()],
                "absent": rec.absent,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
