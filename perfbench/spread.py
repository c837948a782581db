"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--json OUT]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, and
prints for each end-to-end metric the median, the quartiles and the
interquartile distance as a share of the median, next to a third of the
metric's bound in BENCHMARK.json (the steadiness target). ``--json`` also
writes every value, for a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--json", default=None)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    ok = True
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            run_s = time.perf_counter() - start
            if res.returncode != 0:
                print(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}", file=sys.stderr)
                return 1
            out = json.loads(res.stdout.splitlines()[-1])
            runs.append({"seed": seed, "run_s": run_s, **out})
            ok &= out["correct"]
            print(f"{name} seed {seed} ({run_s:.1f} s): correct {out['correct']} "
                  f"failed {out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()), flush=True)
        record[name] = runs
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:9s} {metric:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound/3 {bound / 3:.4f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
