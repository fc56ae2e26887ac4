"""One set-up sample in a fresh interpreter.

Usage: python perfbench/setup_child.py WORKLOAD SEED WORK_DIR

Prints {"setup_s": seconds}: the time of `import openmult` (with
`openmult.cli` for cli-batch) plus one small warm-up op of the workload.
Importing the benchmark's own modules and generating the warm-up inputs
are not counted.
"""

import json
import os
import sys
import time


def main(argv):
    name, seed, work_dir = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    import openmult  # noqa: F401
    if name == "cli-batch":
        import openmult.cli  # noqa: F401
    t_import = time.perf_counter()
    import workloads

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = workloads.WORKLOADS[name](root, seed, work_dir)
    inputs = workload.warm_inputs()
    t_warm = time.perf_counter()
    workload.warm_up(inputs)
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": (t_import - t0) + (t_end - t_warm)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
