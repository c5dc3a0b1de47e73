"""Time the program's set-up in a fresh process.

Usage (the benchmark runs this; it is not meant to be run by hand)::

    python3 perfbench/probe_setup.py <workload> <setup-input.json> <spawn-time>

``<spawn-time>`` is the parent's ``time.time()`` just before it started
this process.  Prints one JSON line: ``setup_s`` (from the spawn to the end
of the program's own construction, less the benchmark's own imports),
``import_s`` (``import repro``) and ``build_s`` (``build_experiment`` /
``build_deployment`` / the inference objects, by workload), in raw
seconds, and ``speed``, the host's speed measured right after the build
(``hostspeed.py``).  The process is too short-lived to sample while it
works; the host's speed holds for seconds at a time, so the benchmark
normalises these times by the mean of that speed and its own measurement
just before it started this process.
"""

import sys
import time
from time import perf_counter


def main() -> None:
    workload_name, input_path, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    start = perf_counter()
    import repro  # noqa: F401 - the import is what is timed

    imported = perf_counter()
    import json

    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    import hostspeed
    from workloads import WORKLOADS

    setup_input = json.loads(open(input_path).read())
    own_imports = perf_counter() - imported
    built_from = perf_counter()
    WORKLOADS[workload_name].build(setup_input)
    built = perf_counter()
    setup_s = time.time() - spawned - own_imports
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "import_s": imported - start,
                "build_s": built - built_from,
                "speed": hostspeed.measure_speed(),
            }
        )
    )


if __name__ == "__main__":
    main()
