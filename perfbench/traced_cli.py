"""One traced CLI operation: ``python -m ordmaps ARGS`` with spans.

Usage: ``traced_cli.py SPANS_JSON SRC_DIR ARGS...``. Imports ``ordmaps.cli``
inside a ``cli.import`` span, wraps the names listed in ``layers.CLI_WRAPS``,
runs ``ordmaps.cli.main(ARGS)`` inside a ``cli.main`` span, writes the spans
to SPANS_JSON and exits with main's code.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, src_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    index = tracer.begin("cli.import")
    import ordmaps.cli

    tracer.end(index)
    from checkout import assert_measured_package
    from layers import install_cli

    assert_measured_package(ordmaps.__file__, src_dir)
    missing = install_cli(tracer)
    if missing:
        print("perfbench: not wrapped, missing: " + ", ".join(missing), file=sys.stderr)
    index = tracer.begin("cli.main")
    try:
        code = ordmaps.cli.main(argv)
    finally:
        tracer.end(index)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
