#!/usr/bin/env python3
"""PMTest benchmark: build, run one workload, check it, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline_small --seed 1 \
        --seconds 30 --trace 0 [--out results.jsonl]

builds the PMTest libraries, pmtest_check and the benchmark binary from
source (into $CARGO_TARGET_DIR, default .bench_build), runs the
workload, and prints one information line followed by the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).
--out appends the run, with its information line, to a JSON-lines file.

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

compares two such result sets metric by metric, per workload, and

    python3 perfbench/run.py --summarize RESULTS.jsonl

prints the quartiles of one, in the form of a trajectory.json entry.

Exit status: 0 when every verdict matched the known answer, 1 when
one did not (or --compare found a regression), 2 on a build or usage
error, in which case no result line is printed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline_small", "offline_large", "online_kv")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return base.resolve() / "perfbench"


def build(out):
    """Configure once, then bring perfbench and pmtest_check up to date."""
    cmake_dir = out / "cmake"
    log = sys.stderr
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc = subprocess.call(
            ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=log, stderr=log)
        if rc != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", str(cmake_dir), "--target", "perfbench",
         "-j", "4"],
        stdout=log, stderr=log)
    if rc != 0:
        fail("build failed")
    return cmake_dir / "perfbench"


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def validate(result, trace, spec):
    """The result line must carry exactly the declared metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}")
    if result["attempted"] < 1:
        fail("no items were checked")
    if spec is None:
        return
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: want {want}, got {got}")


def run(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    out = build_dir()
    # Compiler and library temporaries stay inside the build directory.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    binary = build(out)
    work = out / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    # The run gets its own process group, so a timeout also stops
    # the pmtest_check it may have started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        # Keep the span dump; inputs and pmtest_check output are large.
        for f in work.iterdir():
            if f.name != "spans.jsonl":
                f.unlink()
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"perfbench exited with {proc.returncode}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    validate(result, args.trace, benchmark_spec())
    if proc.returncode != int(not result["correct"]):
        fail("perfbench exit status disagrees with its verdict")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "info": info["perfbench"], "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return proc.returncode


def load_results(path, trace=0):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == trace:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(base, new, better, bound):
    """Verdict for one metric on one workload.

    better: the new side wins at least 9 in 10 pairs (ties count for
    neither) and the medians differ by more than the base's IQR;
    unresolved: a side's IQR/median exceeds the bound, unless every new
    run beats every base run; worse: the median is worse by more than
    the bound; unchanged otherwise.
    """
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    worse_by = -sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if wins >= 0.9 * len(pairs) and abs(nm - bm) > (b3 - b1):
        verdict = "better"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return {"base": [b1, bm, b3], "new": [n1, nm, n3], "wins": wins,
            "losses": losses, "pairs": len(pairs), "change": -worse_by,
            "verdict": verdict}


def compare(base_path, new_path):
    spec = benchmark_spec()
    if spec is None:
        fail("--compare needs BENCHMARK.json at the repository root")
    base, new = load_results(base_path), load_results(new_path)
    report, worse = {}, False
    for workload in sorted(set(base) & set(new)):
        b_runs = sorted(base[workload], key=lambda r: r["seed"])
        n_runs = sorted(new[workload], key=lambda r: r["seed"])
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        print(f"  {'metric':<14}{'base q1/med/q3':>34}{'new q1/med/q3':>34}"
              f"{'won':>8}{'change':>9}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs]
            c = compare_metric(bv, nv, m["better"], m["bound"])
            report.setdefault(workload, {})[name] = c
            worse |= c["verdict"] == "worse"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"  {name:<14}{fmt(c['base']):>34}{fmt(c['new']):>34}"
                  f"{c['wins']:>4}/{c['pairs']:<3}{c['change']:>+9.1%}"
                  f"  {c['verdict']}")
    print(json.dumps({"compare": report}))
    return 1 if worse else 0


def summarize(path):
    """Quartiles per workload and metric: one trajectory.json entry."""
    entry = {"workloads": {}}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for workload, runs in sorted(load_results(path, trace).items()):
            info = runs[0]["info"]
            entry["host"] = {k: info[k]
                             for k in ("nproc", "compiler", "build_type")}
            w = entry["workloads"].setdefault(workload, {})
            w[f"{kind}_seeds"] = sorted(r["seed"] for r in runs)
            w[f"{kind}_seconds"] = runs[0]["seconds"]
            metrics = w.setdefault(kind, {})
            for name, m in runs[0]["result"]["metrics"].items():
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                metrics[name] = {"unit": m["unit"], "q1": q1, "median": med,
                                 "q3": q3}
    print(json.dumps(entry, indent=1))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run to this JSON-lines file")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (the package's own tests)")
    p.add_argument("--corrupt-expected", action="store_true",
                   help="tamper with the known answer after set-up (tests)")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--summarize", metavar="RESULTS",
                   help="print quartiles of a result set (trajectory entry)")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.summarize:
        return summarize(args.summarize)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
