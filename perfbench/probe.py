"""Set-up probe: one fresh interpreter, one empty Witt-structure cache.

Times the library import, building the workload's fields and rings, and
generating its Witt structures, and prints the seconds taken, raw and
normalized to the reference host speed (see calibrate.py).  The cache
directory comes from KATOFORGE_CACHE, which run.py points at a new empty
directory for every probe.

    python3 perfbench/probe.py <workload>
"""

import os
import sys
import time

from calibrate import kernel_seconds, normalize


def main():
    before = kernel_seconds()
    start = time.perf_counter()
    import katoforge
    from workloads import WORKLOADS
    katoforge.set_cache_dir(os.environ["KATOFORGE_CACHE"])
    WORKLOADS[sys.argv[1]].setup()
    took = time.perf_counter() - start
    print(repr(took), repr(normalize(took, before, kernel_seconds())))


if __name__ == "__main__":
    main()
