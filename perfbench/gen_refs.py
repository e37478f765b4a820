"""Write the committed references of the default seed to ``perfbench/refs/``.

Run once, from the repository root, on the code the benchmark was defined
against::

    PYTHONPATH=src python3 perfbench/gen_refs.py [workload ...]

The files pin the answers of that code at ``rel_tol = 1e-13``; they are not
regenerated afterwards, so a later change that moves an answer shows as an
accuracy loss or a failed check.  Other seeds compute their references when
the benchmark runs (``worker.py --phase refs``).
"""

import sys

import workloads as W


def main(argv):
    for workload in argv or W.WORKLOADS:
        path = W.refs_path(workload, W.DEFAULT_SEED)
        W.write_json(path, W.compute_refs(workload, W.DEFAULT_SEED))
        print(f"wrote {path.relative_to(W.REPO)}")


if __name__ == "__main__":
    main(sys.argv[1:])
