"""End-to-end benchmark of the ``thorin`` CLI, with a traced run for per-layer times.

    python3 benchmarks/run.py --workload fit-1d --seed 1 --seconds 30 --trace 0

A workload is a model-building command (``fit`` or ``project``) followed by a
command that checks a model (``validate`` or ``check-wb``).  A pass runs
each once (``project-1d`` validates twice), in a closed loop with one
client: each command starts only after the previous one ended, in a fresh
interpreter, as a CLI user would run it.
Inputs are generated from ``--seed`` before timing starts; the commands get
only those files and ``--seed`` flags.

``--trace 0`` repeats passes for ``--seconds`` (at least two) and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass and
prints the per-layer metrics, with the difference between the two passes as
the tracing overhead.  The last line of standard output is the result JSON;
the lines before it carry the machine block and the per-operation detail.
See ``benchmarks/README.md``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

RUN_DEADLINE_S = 165.0  # the whole run, set-up and checks included, ends before 180 s
CHECK_RESERVE_S = 12.0  # kept back from the deadline for the oracle and the output
PARAM_TOL = 1e-3
LOSS_TOL = 1e-6
ORACLE_BITS = 256
LOGNORMAL = "mu=0,sigma=0.83"
LOGNORMAL_PARAMS = {"mu": 0.0, "sigma": 0.83}
# The paper's n=2 projection of log-normal(0, 0.83), atoms sorted by shape.
PAPER_ALPHA = (0.5458, 2.4539)
PAPER_SCALES = (1.6283, 0.1999)
VALIDATIONS = 2  # validate commands per project-1d pass
VALIDATION_SEEDS = 1000  # validate seeds of one workload seed, at most


@dataclass
class Step:
    role: str  # "model" builds a model, "check" checks one
    argv: list  # thorin arguments; "{out}" and "{model}" are filled per pass
    timeout_s: float
    uses_fitted_model: bool = False


@dataclass
class Plan:
    steps: object  # pass number -> the Steps of that pass
    target: object  # box m -> the CoeffTensor the model step fits, for the oracle
    paper_reference: bool = False  # check the answer against the paper's projection


@dataclass
class Op:
    step: Step
    pass_no: int
    traced: bool
    out: Path
    setup_s: float = None
    wall_s: float = None
    maxrss_mb: float = None
    spans: list = field(default_factory=list)
    failure: str = None

    @property
    def ok(self):
        return self.failure is None


def quiet_cli(argv):
    """Run a thorin command in this process, untimed, for input generation."""
    import thorin.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = thorin.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"input generation failed: thorin {' '.join(map(str, argv))}")


def empirical_target(data):
    def target(m):
        import numpy as np
        from thorin.laguerre import empirical_coeffs

        return empirical_coeffs(np.loadtxt(data, delimiter=",", ndmin=2), m)

    return target


def projected_target(m):
    from thorin.estimator import theoretical_moments
    from thorin.laguerre import coeffs_from_moments
    from thorin.numkit import PrecisionContext
    from thorin.validate import bench_density_mp

    ctx = PrecisionContext(ORACLE_BITS)
    return coeffs_from_moments(
        theoretical_moments(bench_density_mp("lognormal", LOGNORMAL_PARAMS), m, ctx), m, ctx)


def plan_fit_1d(work, seed, tiny):
    # n=10 on the 1-D box m=21: many cheap swarm iterations (600 particles,
    # 3 restarts, never stalling this early), then exact-KS validation.
    # Runs on request only: BENCHMARK.json leaves it out, because three
    # workloads do not fit the run budget at a steady run length.
    rows, iters, n_ks, B = (2_000, 20, 1_000, 5) if tiny else (100_000, 300, 10_000, 500)
    data = work / "data.csv"
    quiet_cli(["bench", "--name", "lognormal", "--params", LOGNORMAL,
               "--N", rows, "--seed", seed, "--output", data])
    steps = [
        Step("model", ["fit", "--input", data, "--n", 10, "--m", 21,
                       "--iters", iters, "--seed", seed, "--output", "{out}"], 60.0),
        Step("check", ["validate", "--model", "{model}", "--target", "lognormal",
                       "--params", LOGNORMAL, "--N", n_ks, "--B", B,
                       "--seed", seed, "--output", "{out}"], 40.0, uses_fitted_model=True),
    ]
    return Plan(
        steps=lambda pass_no: steps,
        target=empirical_target(data),
    )


def plan_fit_2d(work, seed, tiny):
    # The README's n=20 fit on the (20,20) box: few, heavy swarm iterations
    # (capped below the stall window, so every run does the same work), the
    # 256-bit report loss and coeffs.json.  check-wb runs on a fixed 22-atom
    # model, the largest the subset enumeration decides; its geometric shapes
    # fix the number of minimal majority subsets (2081), the seed only moves
    # the scales.
    import numpy as np

    rows, n, m, iters, atoms = (2_000, 3, "4,4", 3, 8) if tiny else (100_000, 20, "20,20", 2, 22)
    data = work / "data.csv"
    quiet_cli(["bench", "--name", "clayton_pareto_lognormal", "--params", "theta=7",
               "--N", rows, "--seed", seed, "--output", data])
    rng = np.random.default_rng(seed)
    wb_model = work / "wb_model.json"
    wb_model.write_text(json.dumps({
        "alpha": (3.0 * 0.7 ** np.arange(atoms)).tolist(),
        "scales": rng.uniform(0.05, 3.0, size=(atoms, 2)).tolist(),
    }))
    steps = [
        Step("model", ["fit", "--input", data, "--n", n, "--m", m, "--iters", iters,
                       "--restarts", 1, "--seed", seed, "--output", "{out}"], 60.0),
        Step("check", ["check-wb", "--model", wb_model, "--output", "{out}"], 40.0),
    ]
    return Plan(
        steps=lambda pass_no: steps,
        target=empirical_target(data),
    )


def plan_project_1d(work, seed, tiny):
    # The README's log-normal projection at 512 bits instead of its 1024:
    # per-multi-index mpmath quadrature in extended precision still
    # dominates, but a projection takes about 6 s instead of 23 s, so a run
    # holds three or four passes instead of two.  Its answer is checked against the
    # paper's published parameters, then validated against the target.
    # The cost of a validation depends on its p-values (scipy's exact KS
    # tail is slow below p ~ 0.03), so the validation seeds slide by one
    # per pass: a run of P passes validates P + 1 seeds, each seed but the
    # first and last in two consecutive passes, whose outputs must match.
    bits, n_ks, B = (256, 1_000, 5) if tiny else (512, 10_000, 600)
    project = Step("model", ["project", "--density", "lognormal", "--params", LOGNORMAL,
                             "--n", 2, "--bits", bits, "--seed", seed, "--output", "{out}"], 60.0)

    def validation(vseed):
        return Step("check", ["validate", "--model", "{model}", "--target", "lognormal",
                              "--params", LOGNORMAL, "--N", n_ks, "--B", B,
                              "--seed", vseed, "--output", "{out}"], 30.0, uses_fitted_model=True)

    return Plan(
        steps=lambda pass_no: [project] + [validation(VALIDATION_SEEDS * seed + pass_no + j)
                                           for j in range(VALIDATIONS)],
        target=projected_target,
        paper_reference=True,
    )


WORKLOADS = {"fit-1d": plan_fit_1d, "fit-2d": plan_fit_2d, "project-1d": plan_project_1d}


class Runner:
    def __init__(self, work, started):
        self.work = work
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **{v: str(NPROC) for v in BLAS_VARS})

    def remaining(self):
        return RUN_DEADLINE_S - CHECK_RESERVE_S - (time.monotonic() - self.started)

    def run_pass(self, plan, pass_no, traced):
        ops = []
        pdir = self.work / f"pass{pass_no}"
        pdir.mkdir()
        model_json = pdir / "model.json"
        for i, step in enumerate(plan.steps(pass_no)):
            op = Op(step, pass_no, traced, pdir / f"{i}-{step.role}")
            ops.append(op)
            if step.uses_fitted_model:
                # validate and check-wb reject report.json: hand over only
                # the model of the first step, outside the timed region
                try:
                    model = json.loads((ops[0].out / "report.json").read_text())["model"]
                except (OSError, KeyError, ValueError):
                    op.failure = "no model from the preceding step"
                    continue
                model_json.write_text(json.dumps(model))
            argv = [str(a).format(out=op.out, model=model_json) for a in step.argv]
            self.spawn(op, argv, f"{pass_no}-{op.out.name}" if traced else None)
        return ops

    def spawn(self, op, argv, run_id):
        timeout = min(op.step.timeout_s, self.remaining())
        if timeout <= 1.0:
            op.failure = "skipped: run deadline reached"
            return
        result_path = op.out.with_suffix(".result.json")
        cmd = [sys.executable, str(WORKER), str(result_path)]
        if run_id is not None:
            cmd += ["--trace", run_id]
        with open(op.out.with_suffix(".log"), "w") as log:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock worker.py reads
            proc = subprocess.Popen(cmd + ["--"] + argv, cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                op.failure = f"timeout after {timeout:.0f} s"
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if op.failure:
            return
        if not result_path.is_file():
            op.failure = f"worker exited {proc.returncode} without a result"
            return
        res = json.loads(result_path.read_text())
        op.setup_s = res["imported_at"] - spawned
        op.wall_s = res["wall_s"]
        op.maxrss_mb = res["maxrss_mb"]
        op.spans = res.get("spans", [])
        if res["rc"] != 0:
            op.failure = f"exit code {res['rc']}" + (": " + res["error"] if "error" in res else "")


# ---------------------------------------------------------------------------
# correctness gates


def output_bytes(path):
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    return {str(f.relative_to(path) if path.is_dir() else f.name): f.read_bytes()
            for f in files if f.is_file()}


def oracle_loss(plan, report):
    """The report's loss recomputed from the same target with 256-bit
    ``model_coeffs`` of the reported model."""
    from thorin.ggc import GgcModel, model_coeffs
    from thorin.numkit import PrecisionContext

    m = tuple(report["m"])
    model = GgcModel(report["model"]["alpha"], report["model"]["scales"])
    a = model_coeffs(model, m, PrecisionContext(ORACLE_BITS)).coeffs.as_float().ravel()
    diff = a - plan.target(m).as_float().ravel()
    return float(diff @ diff)


def param_rel_err(report):
    alpha = report["model"]["alpha"]
    scales = [row[0] for row in report["model"]["scales"]]
    order = sorted(range(len(alpha)), key=alpha.__getitem__)
    if len(order) != len(PAPER_ALPHA):
        return math.inf
    return max(
        max(abs(alpha[i] - ref) / ref for i, ref in zip(order, PAPER_ALPHA)),
        max(abs(scales[i] - ref) / ref for i, ref in zip(order, PAPER_SCALES)),
    )


def judge(plan, step, got, acc):
    """Why one command's outputs are wrong, or None; records the accuracy
    figures in ``acc``."""
    if not got:
        return "no output written"
    command = step.argv[0]
    if command in ("fit", "project"):
        rep = json.loads(got["report.json"])
        acc["report"] = rep
        acc["fit_loss"] = rep["loss"]
        if not math.isfinite(rep["loss"]):
            return f"non-finite loss {rep['loss']}"
        oracle = oracle_loss(plan, rep)
        err = abs(rep["loss"] - oracle) / oracle if oracle else abs(rep["loss"])
        acc["loss_rel_err"] = err
        if err > LOSS_TOL:
            return f"report loss off the {ORACLE_BITS}-bit oracle by {err:.3g}"
        if plan.paper_reference:
            acc["param_rel_err"] = perr = param_rel_err(rep)
            if perr > PARAM_TOL:
                return f"projection off the paper's parameters by {perr:.3g}"
    elif command == "validate":
        summary = json.loads(got["summary.json"])
        pv = [float(v) for v in got["pvalues.csv"].decode().split()[1:]]
        acc.setdefault("p_below_0.05_frac", summary["frac_below_0.05"])
        if len(pv) != summary["B"] or not all(0.0 <= p <= 1.0 for p in pv):
            return "p-values missing or outside [0, 1]"
    else:
        wb = json.loads(next(iter(got.values())))
        if wb.get("undecided") or not isinstance(wb.get("is_wb"), bool):
            return "well-behavedness left undecided"
    return None


def check_outputs(plan, ops):
    """Mark failed every op whose outputs are wrong or differ from those of
    the first op that ran the same command; returns the accuracy figures of
    the first outputs."""
    acc = {}
    verdicts = {}
    for op in ops:
        if not op.ok:
            continue
        got = output_bytes(op.out)
        command = tuple(map(str, op.step.argv))  # output paths not yet filled in
        if command not in verdicts:
            try:
                failure = judge(plan, op.step, got, acc)
            except (KeyError, TypeError, ValueError) as exc:
                failure = f"unreadable outputs ({exc!r})"
            verdicts[command] = (got, failure)
        ref, failure = verdicts[command]
        op.failure = failure if got == ref else "outputs differ from an earlier run of the command"
    return acc


# ---------------------------------------------------------------------------
# metrics


def self_times(spans):
    """Per-span self time: its duration minus the time its children cover
    (children of one span never overlap: the pipeline is single-threaded)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ops):
    good = [op for op in ops if op.ok]
    samples = {
        "setup_s": [op.setup_s for op in good],
        "model_s": [op.wall_s for op in good if op.step.role == "model"],
        "check_s": [op.wall_s for op in good if op.step.role == "check"],
    }
    metrics = {
        "setup_s": (median_or_zero(samples["setup_s"]), "s"),
        "model_s": (median_or_zero(samples["model_s"]), "s"),
        "check_s": (median_or_zero(samples["check_s"]), "s"),
        "peak_rss_mb": (max((op.maxrss_mb for op in good), default=0.0), "MB"),
    }
    return metrics, {k: len(v) for k, v in samples.items()}


LAYER_SPANS = {
    "estimator.swarm_s": ("estimator.fit_empirical", "estimator.project_density"),
    "estimator.loss_Lm_s": ("estimator.loss_Lm",),
    "ggc.model_coeffs_s": ("ggc.model_coeffs",),
    "wellbehaved.best_eps_s": ("wellbehaved.best_eps",),
    "estimator.theoretical_moments_s": ("estimator.theoretical_moments",),
    "laguerre.coeffs_from_moments_s": ("laguerre.coeffs_from_moments",),
    "laguerre.empirical_coeffs_s": ("laguerre.empirical_coeffs",),
    "validate.resampled_pvalues_s": ("validate.resampled_pvalues",),
    "validate.ks_exact_s": ("validate.ks_exact",),
    "ggc.sample_s": ("ggc.sample",),
}


def per_layer(untraced, traced, acc, swarm_size):
    """Per-layer metrics of the traced pass; ``failures`` lists ops whose
    span self times do not add up to their wall time."""
    names = [s["name"] for op in traced for s in op.spans]
    selfs = [t for op in traced for t in self_times(op.spans)]
    total = {}
    for name, t in zip(names, selfs):
        total[name] = total.get(name, 0.0) + t
    calls = {name: names.count(name) for name in set(names)}
    m = {key: (sum(total.get(n, 0.0) for n in spans), "s") for key, spans in LAYER_SPANS.items()}
    m["cli.self_s"] = (sum(t for n, t in total.items() if n.startswith("cli.")), "s")
    bits = [s["bits_used"] for op in traced for s in op.spans if "bits_used" in s]
    m["ggc.model_coeffs_calls"] = (calls.get("ggc.model_coeffs", 0), "count")
    m["ggc.bits_used_max"] = (max(bits, default=0), "bits")
    m["wellbehaved.best_eps_calls"] = (calls.get("wellbehaved.best_eps", 0), "count")
    rep = acc.get("report", {})
    iters = rep.get("iters", 0)
    evals = (iters + rep.get("restarts_used", 0)) * swarm_size if rep else 0
    m["estimator.swarm_iters"] = (iters, "count")
    m["estimator.particle_evals"] = (evals, "count")
    m["estimator.particle_eval_us"] = (1e6 * m["estimator.swarm_s"][0] / evals if evals else 0.0, "us")
    m["estimator.fit_loss"] = (acc.get("fit_loss", 0.0), "1")
    m["validate.p_below_0.05_frac"] = (acc.get("p_below_0.05_frac", 0.0), "1")
    m["accuracy.loss_rel_err"] = (acc.get("loss_rel_err", 0.0), "1")
    m["accuracy.param_rel_err"] = (acc.get("param_rel_err", 0.0), "1")
    base = sum(op.wall_s for op in untraced if op.ok)
    traced_wall = sum(op.wall_s for op in traced if op.ok)
    overhead = (traced_wall - base) / base if base else 0.0
    m["trace.overhead_frac"] = (overhead, "1")
    failures = []
    for op in traced:
        if op.ok:
            attributed = sum(self_times(op.spans))
            if abs(op.wall_s - attributed) > max(abs(overhead), 0.01) * op.wall_s:
                failures.append(op)
    zero_call = sorted(set(n for spans in LAYER_SPANS.values() for n in spans) - set(names))
    return m, failures, zero_call


def swarm_size_of(report):
    from thorin.estimator import FitConfig

    if not report:
        return 0
    d = len(report["m"])
    return FitConfig(report["n"], tuple(report["m"])).resolved(d).swarm_size


def machine_block():
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": mpmath.libmp.BACKEND == "gmpy",
        "blas_threads": {v: str(NPROC) for v in BLAS_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "thorin" / "cli.py").is_file():
        print(f"benchmark: no thorin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thorin

    if Path(thorin.__file__).resolve().parent != SRC / "thorin":
        print(f"benchmark: imported thorin from {thorin.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[args.workload](work, args.seed, args.tiny)
    runner = Runner(work, started)

    measuring = time.monotonic()
    if args.trace:
        untraced = runner.run_pass(plan, 0, traced=False)
        traced = runner.run_pass(plan, 1, traced=True)
        ops = untraced + traced
    else:
        ops = []
        passes = 0
        while True:
            t0 = time.monotonic()
            ops += runner.run_pass(plan, passes, traced=False)
            last = time.monotonic() - t0
            passes += 1
            if passes >= 2 and (time.monotonic() - measuring + last > args.seconds
                                or runner.remaining() < last):
                break
            if runner.remaining() < 1.0:
                break

    acc = check_outputs(plan, ops)
    detail = {"workload": args.workload, "seed": args.seed, "passes": ops[-1].pass_no + 1}
    if args.trace:
        metrics, bad_sum, zero_call = per_layer(
            untraced, traced, acc, swarm_size_of(acc.get("report")))
        for op in bad_sum:
            op.failure = "span self times do not add up to the command's wall time"
        detail["zero_call_spans"] = zero_call
        spans = [s for op in traced for s in op.spans]
        (work / "spans.json").write_text(json.dumps(spans))
    else:
        metrics, counts = end_to_end(ops)
        detail["samples"] = counts
    detail["accuracy"] = {k: v for k, v in acc.items() if k != "report"}
    detail["ops"] = [
        {"role": op.step.role, "pass": op.pass_no, "traced": op.traced, "wall_s": op.wall_s,
         "setup_s": op.setup_s, "maxrss_mb": op.maxrss_mb, "failure": op.failure}
        for op in ops
    ]
    failed = sum(not op.ok for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    machine = machine_block()
    (work / "result.json").write_text(
        json.dumps({"machine": machine, "detail": detail, "result": result}, indent=2))
    for op in ops:
        if op.failure:
            print(f"# failed: {op.step.role} pass {op.pass_no}: {op.failure}", file=sys.stderr)
    print("# machine " + json.dumps(machine))
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
