"""Traced CLI command: run one ``ptdep`` argv through ``ptdep.cli.run`` with spans on.

    python3 perfbench/scan_boot.py <trace.json> <ptdep argv...>

Imports the CLI, installs the tracer, runs the command as one op and writes
the tracer's totals and spans to ``<trace.json>``.  Exits with the command's
exit code.  ``PYTHONPATH`` must name the package's source directory.
"""

import sys

if __name__ == "__main__":
    import ptdep.cli

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op()
    code = ptdep.cli.run(sys.argv[2:])
    tracer.dump(sys.argv[1])
    sys.exit(code)
