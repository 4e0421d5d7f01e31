"""Fast self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Checks ``BENCHMARK.json`` against its format rules (keys, name and unit
syntax, counts, bounds of at most 0.25, ``setup_s``), runs every
workload ``run.py`` defines (the ungated ``fit-1d`` too) at a tiny size,
untraced and traced, and checks that each result
line has the result schema and exactly the metric names and units that
``BENCHMARK.json`` declares.  Last, it runs the benchmark in a directory that
holds only ``BENCHMARK.json`` and ``benchmarks/``, where it must fail
without printing a result.  Exits 1 on the first set of problems found.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    cmd = spec.get("command", [])
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        problems.append("command names an absolute path or leaves the repo")
    paths = spec.get("paths", [])
    if not 1 <= len(paths) <= 16 or not all(PATH.match(p) and ".." not in p for p in paths):
        problems.append("paths must be 1..16 relative directories")
    rs = spec.get("run_seconds")
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = set()
    for section, lo, hi, fields in (
        ("workloads", 2, 8, {"name", "why"}),
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        entries = spec.get(section, [])
        if not lo <= len(entries) <= hi:
            problems.append(f"{section}: {len(entries)} entries, want {lo}..{hi}")
        for e in entries:
            if set(e) != fields:
                problems.append(f"{section} entry {e} keys != {sorted(fields)}")
            if not NAME.match(e.get("name", "")) or e.get("name") in names:
                problems.append(f"{section}: bad or repeated name {e.get('name')!r}")
            names.add(e.get("name"))
            if "why" in fields and (len(e.get("why", "")) > 200 or "\n" in e.get("why", "")):
                problems.append(f"workload {e.get('name')}: why must be one line of <= 200 chars")
            if "unit" in fields and not UNIT.match(e.get("unit", "")):
                problems.append(f"{section} {e.get('name')}: bad unit {e.get('unit')!r}")
            if "better" in fields and e.get("better") not in ("lower", "higher"):
                problems.append(f"{section} {e.get('name')}: better must be lower or higher")
            if "bound" in fields and not 0 < e.get("bound", 0) <= 0.25:
                problems.append(f"{section} {e.get('name')}: bound must be in (0, 0.25]")
    setup = [e for e in spec.get("end_to_end", []) if e.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    return problems


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def check_result(line, declared, positive):
    problems = []
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]!r}"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    if res["correct"] is not True or res["failed"] != 0:
        problems.append(f"correct={res['correct']} failed={res['failed']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and isinstance(res["failed"], int)):
        problems.append("attempted and failed must be whole numbers, attempted >= 1")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != declared:
        problems.append(f"metrics {got} != declared {declared}")
    for k, v in res["metrics"].items():
        val = v["value"]
        if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
            problems.append(f"{k}: value {val!r} is not a finite number")
        elif positive and val <= 0:
            problems.append(f"{k}: end-to-end value {val} must be positive")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    unknown = {wl["name"] for wl in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads run.py lacks: {sorted(unknown)}")
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {e["name"]: e["unit"] for e in spec[section]}
            rc, line, err = run(command + ["--workload", name, "--seed", "1",
                                           "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
            found = [f"exit code {rc}: {err[-500:]}"] if rc else check_result(line, declared, trace == 0)
            if found and not rc:
                found += [ln for ln in err.splitlines() if ln.startswith("# failed")]
            problems += [f"{name} trace {trace}: {p}" for p in found]
            print(f"{name} trace {trace}: {'ok' if not found else 'FAILED'}")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    rc, line, _ = run(command + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if rc == 0 or line.startswith("{"):
        problems.append(f"without sources the benchmark exited {rc} with last line {line[:200]!r}")
    print(f"without sources: exit {rc}")

    for p in problems:
        print("FAILED:", p, file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
