"""Time one set-up of a workload in a fresh interpreter.

Prints the seconds of the workload's set-up: importing the packages,
building the topology and scenario (and, for the sweep, spawning the
worker pool and running one short point per worker), at next to no
simulated time; then the mean seconds of the reference chunks (see
``pace.py``) run just before and just after it, which ``run.py`` uses
to scale the set-up time.  ``run.py`` runs this several times per
benchmark run and reports the median scaled time as ``setup_s``.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import statistics
import sys
import time
from pathlib import Path

#: Reference chunks run on each side of the set-up.
CHUNKS = 5


def main() -> None:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from pace import ref_chunk

    chunks = [ref_chunk() for _ in range(CHUNKS)]
    started = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].set_up(int(sys.argv[2]))
    set_up = time.perf_counter() - started
    chunks += [ref_chunk() for _ in range(CHUNKS)]
    print(set_up, statistics.mean(chunks))


if __name__ == "__main__":
    main()
