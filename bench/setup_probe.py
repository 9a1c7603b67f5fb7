"""Set-up as a command-line user pays it, in a fresh interpreter.

Imports ckspec, writes the workload's model files and reads each back with
``ckspec.load_model``.  Prints one JSON line with the import time; the
caller times the whole process.

    python3 bench/setup_probe.py WORKLOAD SEED N_OPS DIRECTORY
"""

import json
import os
import sys
import time


def main(workload: str, seed: int, n_ops: int, directory: str) -> None:
    t0 = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import ckspec
    import_s = time.perf_counter() - t0

    import gen
    for path in gen.write_models(gen.build(workload, seed, n_ops), directory):
        ckspec.load_model(path)
    print(json.dumps({"import_s": import_s}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
