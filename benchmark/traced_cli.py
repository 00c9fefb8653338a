"""Run one ``mcpca`` command with the layer wrappers of ``tracer.py`` installed.

    python3 traced_cli.py SPANS_OUT RUN_ID PARENT_SPAN mcpca-arguments...

The spans and counts are written to SPANS_OUT when the command ends; its
outermost span, ``cli.main``, takes PARENT_SPAN (the parent process's span
around this process) as parent.  The exit code is the command's.
"""

import sys

import tracer as tracing


def main() -> int:
    out, run_id, parent, *argv = sys.argv[1:]
    from mcpca import cli

    tracer = tracing.Tracer(run_id, root_parent=parent)
    tracing.install(tracer)
    try:
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
