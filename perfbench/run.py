"""The gatefuzz benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gen-c432 --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports ``gatefuzz`` from
``src/`` and reads and writes only under ``.bench_work/`` there.  The load
is a closed loop: one caller, one command at a time.  Each repetition is a
fresh interpreter (``rep.py``) with asserts on, the way the ``gatefuzz``
console script runs.  A seed stands for a fixed list of input cases
(``CASES``); repetitions cycle through them, covering each at least once,
until the next one would overrun ``--seconds``.  Each end-to-end value is
the median over the run's repetitions.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate on the same case,
and the last line reports the per-layer metrics and the tracing overhead.
The full record of every run is appended to ``.bench_work/results.jsonl``;
``compare.py`` compares two such files.  The exit code is 1 when any output
fails the oracle or the determinism check, 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CIRCUITS = SRC / "gatefuzz" / "circuits"

# Input cases per seed: as many as repetitions fit in a 50-second run, so
# that one hard circuit or decision seed moves the run's median little.
CASES = {"gen-c432": 3, "fuzz-20k": 3}
WORKLOADS = tuple(CASES)
RUN_DEADLINE_S = 170.0
FUZZ_20K_TARGETS = 64

END_TO_END = {  # name -> unit, in the order BENCHMARK.json lists them
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "coverage_pct": "%",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics under their per-workload names, as the README defines them.
REPORT_NAMES = (
    ("setup_s", "setup_s", "s", None),
    ("wall_s", "wall_s", "s", None),
    ("verdict_s", "verdict_s", "s", "gen"),
    ("patterns_per_s", "ops_per_s", "1/s", "gen"),
    ("cgf_execs_per_s", "ops_per_s", "1/s", "fuzz"),
    ("cgf_site_coverage_pct", "coverage_pct", "%", "fuzz"),
    ("peak_rss_mb", "peak_rss_mb", "MB", None),
)


def case_seed(workload: str, seed: int, case: int) -> int:
    return seed * CASES[workload] + case


def materialize(workload: str, seed: int, case: int, directory: Path) -> dict:
    """Write one case's input files; returns their digests."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "gen-c432":
        netlist = (CIRCUITS / "c432.bench").read_text()
        targets = (CIRCUITS / "c432.mixed.targets").read_text()
    else:
        circuit, entries = W.synthetic_workload(case_seed(workload, seed, case),
                                                FUZZ_20K_TARGETS)
        netlist, targets = circuit.to_bench(), W.targets_text(entries)
    (directory / "netlist.bench").write_text(netlist)
    (directory / "targets.txt").write_text(targets)
    return {"netlist.bench": W.sha256(netlist), "targets.txt": W.sha256(targets)}


def code_digest() -> str:
    """Digest of the program and benchmark sources, for the determinism store."""
    h = hashlib.sha256()
    paths = [p for p in SRC.rglob("*") if "__pycache__" not in p.parts]
    for path in sorted(paths + list(HERE.glob("*.py"))):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_child(workload, case_seed_, inputs, out, deadline, *extra):
    """Run ``rep.py`` in a fresh interpreter; returns (record, error)."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--inputs", str(inputs), "--out", str(out), "--seed", str(case_seed_), *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "repetition ran past the run's deadline"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"repetition exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(lines[-1]), None


def measure(args, run_dir, deadline):
    """Repetitions until the time is spent.

    Untraced runs cover every case at least once; traced runs alternate an
    untraced and a traced repetition of one case and stop only after a pair.
    """
    reps, problems = [], []
    started = time.perf_counter()
    step = 2 if args.trace else 1
    cases = CASES[args.workload]
    minimum = 2 if args.trace else cases
    while True:
        index = len(reps)
        trace = args.trace and index % 2
        case = (index // step) % cases
        inputs, out = run_dir / f"case{case}", run_dir / f"rep{index}"
        seed = case_seed(args.workload, args.seed, case)
        rep, error = run_child(args.workload, seed, inputs, out, deadline,
                               "--trace", str(trace),
                               "--trace-id", f"{args.workload}-{args.seed}-rep{index}")
        if error:
            problems.append(error)
            break
        rep.update(case=case, traced=bool(trace))
        reps.append(rep)
        if trace:
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            (out / "spans.json").replace(traces / f"{run_dir.name}-rep{index}.json")
        problems += [f"case {case}: {p}" for p in rep["problems"]]
        if problems:
            break
        spent = time.perf_counter() - started
        next_cost = step * spent / len(reps)
        if len(reps) >= minimum and len(reps) % step == 0 and spent + next_cost > args.seconds:
            break
        if time.monotonic() + next_cost > deadline:
            break
    return reps, problems


def check_determinism(workload, seed, digests, reps, code):
    """Repetitions of one case under the same code must agree exactly, in this
    run and in every earlier run recorded in the checkout."""
    store_path = WORK / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    problems = []
    for rep in reps:
        case = rep["case"]
        key = f"{workload}|{case_seed(workload, seed, case)}|{code}"
        current = dict(rep["fingerprint"], inputs=digests[case])
        known = store.setdefault(key, {})
        for field, value in current.items():
            if field in known and known[field] != value:
                problems.append(f"case {case}: {field} differs between repetitions "
                                f"({known[field]!r} vs {value!r})")
            known.setdefault(field, value)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return problems


def end_to_end(reps):
    """The end-to-end metrics, plus ``verdict_s`` for the gen workload, which
    is printed but not listed in BENCHMARK.json: it is a 5 ms time on
    gen-c432, too short to hold a bound."""
    keys = [key for key in (*END_TO_END, "verdict_s") if key in reps[0]]
    values = {key: statistics.median(rep[key] for rep in reps)
              for key in keys if key not in ("setup_s", "coverage_pct")}
    values["setup_s"] = statistics.median(s for rep in reps for s in rep["setup_s"])
    # coverage is exact for a case, so it is averaged over the cases
    by_case = {rep["case"]: rep["coverage_pct"] for rep in reps}
    values["coverage_pct"] = statistics.fmean(by_case.values())
    return values


def layers(traced, untraced):
    names = traced[0]["layers"]
    values = {name: statistics.median(rep["layers"][name] for rep in traced) for name in names}
    overheads = []
    for rep in traced:
        plain = [u["wall_s"] for u in untraced if u["case"] == rep["case"]]
        if plain:
            overheads.append(rep["wall_s"] - statistics.median(plain))
    values["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return values


def print_report(workload, seed, record):
    env = record["env"]
    print(f"gatefuzz benchmark  workload={workload} seed={seed} "
          f"cases={record['cases']} repetitions={record['repetitions']} "
          f"python={env.get('python')} optimize={env.get('optimize')} nproc={env['nproc']}")
    kind = "fuzz" if workload.startswith("fuzz") else "gen"
    e2e = record.get("end_to_end")
    if e2e:
        for shown, key, unit, only in REPORT_NAMES:
            if only in (None, kind):
                print(f"  {shown:<24} {e2e[key]:>14.6g} {unit}")
            else:
                print(f"  {shown:<24} {'n/a':>14} ({only} workloads only)")
        print(f"  {'fail_rate':<24} {record['failed'] / record['attempted']:>14.6g} "
              f"({record['failed']} of {record['attempted']} operations failed)")
        raw = [s["raw"] for s in record["samples"] if not s["traced"]]
        print(f"  {'raw wall_s':<24} {statistics.median(r['wall_s'] for r in raw):>14.6g} s "
              f"(probe {statistics.median(r['probe_s'] for r in raw) * 1e3:.4g} ms, "
              f"nominal {probe.NOMINAL_S * 1e3:.4g} ms; times above are normalised)")
    for name, value in (record.get("per_layer") or {}).items():
        unit = spans.LAYER_METRICS[name][0]
        note = record["absent"].get(name)
        shown = f"absent (missing hook {note})" if note else f"{value:.6g} {unit}"
        print(f"  {name:<30} {shown}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gatefuzz benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gatefuzz" / "__init__.py").is_file() or not CIRCUITS.is_dir():
        print(f"error: no gatefuzz sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    code = code_digest()
    digests = [materialize(args.workload, args.seed, case, run_dir / f"case{case}")
               for case in range(CASES[args.workload])]

    reps, problems = measure(args, run_dir, deadline)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not problems:
        problems += check_determinism(args.workload, args.seed, digests, reps, code)
    attempted = sum(r["attempted"] for r in untraced) or 1
    failed = sum(r["failed"] for r in untraced) if untraced else attempted
    envs = {json.dumps(r["env"], sort_keys=True) for r in reps}
    if len(envs) > 1:
        problems.append(f"repetitions ran under different interpreter settings: {envs}")
    env = dict(reps[0]["env"] if reps else {}, nproc=os.cpu_count(),
               seed=args.seed, workload=args.workload, code=code)
    correct = not problems and failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "cases": CASES[args.workload], "repetitions": len(reps),
              "attempted": attempted, "failed": failed, "problems": problems,
              "env": env, "inputs": digests, "absent": {},
              "samples": [{k: r.get(k) for k in ("case", "traced", "verdict_s", "raw",
                                                 *END_TO_END)}
                          for r in reps]}
    if correct:
        record["end_to_end"] = end_to_end(untraced)
        if args.trace:
            record["per_layer"] = layers(traced, untraced)
            record["absent"] = traced[0]["absent"]
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_report(args.workload, args.seed, record)

    if args.trace:
        chosen = record.get("per_layer", {})
        units = {n: unit for n, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        chosen = {n: v for n, v in record.get("end_to_end", {}).items() if n in END_TO_END}
        units = END_TO_END
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in chosen.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
