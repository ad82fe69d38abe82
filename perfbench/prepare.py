"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/prepare.py WORKLOAD SEED WORKDIR [--smoke]

Imports depscope, generates the workload's input series and writes its CSV
files into WORKDIR, then prints {"setup_s": seconds} as its last line.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import pipelines  # imports depscope

    workload = pipelines.WORKLOADS[argv[0]]
    pipelines.write_inputs(workload, Path(argv[2]), int(argv[1]), smoke="--smoke" in argv[3:])
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
