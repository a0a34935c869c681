"""Set-up probe: a fresh interpreter imports what a workload uses and runs one op.

    python3 perfbench/probe.py <workload> <size> <input> <output>

``run.py`` times this process from spawn to exit as ``setup_s``.  The input
is the workload's first pool entry: a ``.npz`` of ``x`` and ``y``, or the scan
matrix.  ``PYTHONPATH`` must name the package's source directory.
"""

import sys

if __name__ == "__main__":
    name, size, path, output = sys.argv[1:5]
    if name == "scan":
        import ptdep.cli

        import workloads

        sys.exit(ptdep.cli.run(workloads.scan_argv(path, output)))

    import ptdep

    import numpy as np
    import workloads

    with np.load(path) as arrays:
        sample = ptdep.PairedSample(x=arrays["x"], y=arrays["y"])
    workloads.IN_PROCESS[name](size).op(sample)
