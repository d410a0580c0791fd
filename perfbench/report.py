"""Run every workload once and print its metrics by name and unit.

    python3 perfbench/report.py [--seconds 25] [--seed 1] [--trace]

Run from the repository root.  Prints the end-to-end metrics of each
workload, its failed share of repetitions, and with ``--trace`` the non-zero
per-layer metrics of a traced run as well.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[0])["machine"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also run and print the traced run")
    args = parser.parse_args(argv)

    all_ok = True
    for workload in workloads.WORKLOADS:
        machine, result = run_workload(workload, args.seed, args.seconds, False)
        if workload == workloads.WORKLOADS[0]:
            print("machine:", json.dumps(machine))
        all_ok &= result["correct"]
        print(f"\n{workload}: {result['attempted']} runs, correct={result['correct']}")
        print(f"  {'failed_frac':28s} {result['failed'] / result['attempted']:12.6g}  1")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:12.6g}  {m['unit']}")
        if args.trace:
            _, traced = run_workload(workload, args.seed, args.seconds, True)
            all_ok &= traced["correct"]
            print(f"  traced: {traced['attempted']} runs, correct={traced['correct']}")
            for name, m in traced["metrics"].items():
                if m["value"]:
                    print(f"    {name:44s} {m['value']:12.6g}  {m['unit']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
