"""Fresh-process probes, started by run.py; each prints seconds on stdout.

    python3 perfbench/probe.py setup WORKLOAD SEED   import, input generation, one warm-up op
    python3 perfbench/probe.py import MODULE         import of MODULE alone

The clock starts at the top of this file, after interpreter start-up, so
interpreter start is never credited to toepsharp.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        import workloads

        workloads.WORKLOADS[argv[1]](int(argv[2])).warmup()
        print(time.perf_counter() - T0)
        return 0
    if len(argv) == 2 and argv[0] == "import":
        t0 = time.perf_counter()
        importlib.import_module(argv[1])
        print(time.perf_counter() - t0)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
