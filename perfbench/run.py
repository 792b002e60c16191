"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs the workload once untraced and once with
layer spans installed, checks that both give the same report, and
prints the per-layer metrics with the tracing overhead.  Every run
checks its outputs; a failing check is named, the result reads
``"correct": false`` and the exit code is 1.  The last line of standard
output is the result as one JSON object.  Seeds 1 (default) and 2
(held out) are the ones to quote.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source src/repro not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import main as run_benchmark
    return run_benchmark(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
