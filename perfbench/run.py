"""logcad benchmark: full-size training, evaluate (greedy and beam 5) and
describe (cold and warm), with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload log-cad --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it repeat the metrics and record the environment. ``--smoke`` runs both
workloads, untraced and traced, at a tiny configuration in a few seconds
and checks the results against ``BENCHMARK.json``; it is the benchmark's
own test. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Fixed BLAS thread count for this process and every child it starts; set
# before numpy is first imported. One thread: on a shared 2-vCPU machine two
# threads were about 1.5x faster at training but spread three times wider
# from run to run (evaluate throughput: 23 % against 6.5 % of the median).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _use_checkout_source() -> None:
    """Import logcad from this checkout's ``src/`` (here and in children)."""
    if not (SRC / "logcad" / "cli.py").is_file():
        raise SystemExit(f"error: no logcad sources at {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import logcad

    if Path(logcad.__file__).resolve().parent != SRC / "logcad":
        raise SystemExit(f"error: imported logcad from {logcad.__file__}, not {SRC}")


def smoke() -> int:
    import bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    if workloads != list(bench.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} != {list(bench.WORKLOADS)}")
    for workload in workloads:
        for traced in (0, 1):
            result, lines = bench.run(workload, seed=1, seconds=1.0, traced=bool(traced),
                                      sizes=bench.SMOKE, root=ROOT)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{workload} trace {traced}"
            if got != expected[traced]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[traced]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: " + "; ".join(
                    line for line in lines if line.startswith("FAILED")))
            print(f"{tag}: attempted {result['attempted']} failed {result['failed']}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-config self-test of every workload and the trace")
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    import bench

    result, lines = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                              bench.FULL, ROOT)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
