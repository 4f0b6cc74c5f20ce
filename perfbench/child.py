"""One benchmark repetition step: a fresh interpreter that runs
``hybridreid.cli.main(argv)`` and writes its timing marks, and with tracing
on its span summary, to a JSON file.

Usage: python3 perfbench/child.py OUT_JSON MODE CLI_ARG...

MODE 0 records marks only, 1 also spans, 2 also tracemalloc peaks.
"""

import json
import sys

import tracer


def main(argv):
    out_path, mode, cli_args = argv[0], int(argv[1]), argv[2:]
    modules = tracer.package_modules()
    spans = None
    if mode:
        spans = tracer.Tracer(track_peaks=mode == 2)
        spans.install(modules)
    marks = tracer.Marks()
    marks.install(modules)
    import hybridreid.cli

    rc = hybridreid.cli.main(cli_args)
    record = {"rc": rc, "marks": marks.as_dict(),
              "trace": spans.summary() if spans else None}
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
