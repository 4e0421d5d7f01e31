"""Command-line entry point.

``thorin fit|project|sample|coeffs|check-wb|validate|bench`` wires CSV
ingestion, fitting, validation and JSON/CSV report emission.  Every
randomized path takes an explicit ``--seed``; reruns with identical
inputs produce byte-identical outputs.

Exit codes: 0 ok, 2 data error, 3 config error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import (
    FitConfig,
    FitReport,
    QuadratureError,
    fit_empirical,
    project_density,
    theoretical_coeffs,
    theoretical_moments,  # noqa: F401  looked up by benchmarks/worker.py's span tracing
)
from .ggc import GgcModel, float_coeffs, sample
from .ggc import model_coeffs  # noqa: F401  looked up by benchmarks/worker.py's span tracing
from .validate import (
    BENCH_NAMES,
    bench_cdf,
    bench_params,
    bench_pdf,
    bench_sampler,
    resampled_pvalues,
)
from .wellbehaved import best_eps, classify_dependence

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


class DataError(Exception):
    pass


class ConfigError(Exception):
    pass


def _read_csv(path: str) -> np.ndarray:
    """Comma-separated numeric columns, '.' decimals, optional single
    header row (auto-detected by a non-numeric first row)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input file not found: {path}")
    with open(p) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    start = 0
    try:
        [float(v) for v in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for i, ln in enumerate(lines[start:], start=start + 1):
        cells = ln.split(",")
        row = []
        for j, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric value at row {i}, column {j}")
            if not np.isfinite(v):
                raise DataError(f"{path}: non-finite value at row {i}, column {j}")
            if v < 0:
                raise DataError(f"{path}: negative value at row {i}, column {j}")
            row.append(v)
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=float)


def _write_csv(path: Path, arr: np.ndarray, header: str = None):
    arr = np.atleast_2d(arr)
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in arr:
            fh.write(",".join(f"{v:.17g}" for v in np.atleast_1d(row)) + "\n")


def _load_model(path: str) -> GgcModel:
    """A ``model.json``, or the ``"model"`` object of a fit's ``report.json``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"model file not found: {path}")
    try:
        obj = json.loads(p.read_text())
        if isinstance(obj, dict) and "model" in obj:
            obj = obj["model"]
        return GgcModel(np.asarray(obj["alpha"]), np.asarray(obj["scales"]))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid model JSON ({exc})")


def _parse_kv(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise ConfigError(f"non-numeric parameter value in {item!r}")
    return out


def _bench_params(name: str, text: str) -> dict:
    """``--params`` of a benchmark over its defaults; an unknown key or a
    value outside its domain is a config error."""
    try:
        return bench_params(name, _parse_kv(text))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text().strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON config ({exc})")
    out = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ConfigError(f"{path}: expected key=value line, got {ln!r}")
        k, v = ln.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _merged(args, keys):
    """Config-file values overridden by explicitly passed flags; the file
    may set only those of ``keys`` that are flags of the command."""
    keys = [k for k in keys if hasattr(args, k)]
    conf = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(conf) - set(keys))
    if unknown:
        raise ConfigError(f"{args.config}: {args.mode} takes no config key(s) {', '.join(unknown)}")
    out = {k: conf[k] for k in keys if k in conf}
    out.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    return out


def _fit_config(args) -> FitConfig:
    vals = _merged(
        args, ["n", "m", "swarm", "iters", "restarts", "seed", "bits"]
    )
    if "n" not in vals:
        raise ConfigError("--n is required")
    if "bits" in vals:
        print(f"thorin {args.mode}: --bits has no effect, the projection target is "
              "computed in doubles", file=sys.stderr)
    try:
        m = vals.get("m")
        if isinstance(m, str):
            m = tuple(int(v) for v in m.split(",") if v.strip())
        elif isinstance(m, (list, tuple)):
            m = tuple(int(v) for v in m)
        elif m is not None:
            m = (int(m),)
        return FitConfig(
            n=int(vals["n"]),
            m=m,
            swarm_size=int(vals["swarm"]) if "swarm" in vals else None,
            max_iters=int(vals.get("iters", 2000)),
            seed=int(vals.get("seed", 0)),
            restarts=int(vals.get("restarts", 3)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _emit_report(report: FitReport, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    (outdir / "coeffs.json").write_text(float_coeffs(report.model, report.m).to_json() + "\n")
    print(f"wrote {outdir / 'report.json'} and {outdir / 'coeffs.json'}")
    print(
        f"loss={report.loss:.6g} wb={report.wb.is_wb} best_eps={report.wb.best_eps:.6g}"
        f" converged={report.converged}"
    )


def cmd_fit(args) -> int:
    data = _read_csv(args.input)
    cfg = _fit_config(args)
    report = fit_empirical(data, cfg)
    _emit_report(report, Path(args.output))
    return EXIT_OK


def cmd_project(args) -> int:
    name = args.density
    if name not in BENCH_NAMES:
        raise ConfigError(f"unknown density {name!r}; choose from {BENCH_NAMES}")
    if name == "clayton_pareto_lognormal":
        raise ConfigError("no formal density available for the Clayton benchmark")
    params = _bench_params(name, args.params)
    cfg = _fit_config(args)
    d = 2 if name == "mln_gaussian" else 1
    rcfg = cfg.resolved(d)
    pdf, jumps = bench_pdf(name, params)
    report = project_density(theoretical_coeffs(pdf, rcfg.m, jumps), rcfg)
    if name == "pareto" and params["k"] <= 0.5:
        report.notes = report.notes + (
            "target density lies outside L2: tail exponent k <= 1/2",
        )
    _emit_report(report, Path(args.output))
    return EXIT_OK


def cmd_sample(args) -> int:
    model = _load_model(args.model)
    if args.N is None or args.N < 1:
        raise ConfigError("sample size N must be >= 1")
    xs = sample(model, args.N, args.seed or 0)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, xs)
    print(f"wrote {out} ({xs.shape[0]} rows, {xs.shape[1]} columns)")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    model = _load_model(args.model)
    m = tuple(int(v) for v in args.m.split(",")) if args.m else None
    if m is None:
        raise ConfigError("--m is required for coeffs")
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(float_coeffs(model, m).to_json() + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check_wb(args) -> int:
    model = _load_model(args.model)
    rep = best_eps(model)
    dep = classify_dependence(model)
    payload = rep.to_dict()
    payload["dependence"] = {
        "kind": dep.kind,
        "ray_count": dep.ray_count,
        "singular": dep.singular,
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    return EXIT_OK


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    if args.target not in ("lognormal", "pareto", "weibull"):
        raise ConfigError(f"unknown validation target {args.target!r}")
    params = _bench_params(args.target, args.params)
    N, B = args.N, args.B
    if N < 1 or B < 1:
        raise ConfigError("sample size N and replicate count B must be >= 1")
    cdf = bench_cdf(args.target, params)
    pv = resampled_pvalues(model, cdf, N, B, args.seed or 0)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "pvalues.csv", pv[:, None], header="p_value")
    summary = {
        "target": args.target,
        "params": params,
        "N": N,
        "B": B,
        "seed": args.seed or 0,
        "frac_below_0.05": float((pv < 0.05).mean()),
        "min_p": float(pv.min()),
        "median_p": float(np.median(pv)),
        "tool_version": __version__,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.name not in BENCH_NAMES:
        raise ConfigError(f"unknown benchmark {args.name!r}; choose from {BENCH_NAMES}")
    if args.N is None or args.N < 1:
        raise ConfigError("sample size N must be >= 1")
    xs = bench_sampler(args.name, _bench_params(args.name, args.params), args.N, args.seed or 0)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, xs)
    print(f"wrote {out} ({xs.shape[0]} rows, {xs.shape[1]} columns)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thorin",
        description="Laguerre expansions and estimation of multivariate "
        "gamma-convolution models",
    )
    ap.add_argument("--version", action="version", version=f"thorin {__version__}")
    sub = ap.add_subparsers(dest="mode", required=True)

    def common(p, fit=False):
        p.add_argument("--seed", type=int, default=None)
        if fit:
            p.add_argument("--config", help="JSON or key=value config file")
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--m", type=str, default=None, help="comma list, e.g. 20,20")
            p.add_argument("--swarm", type=int, default=None)
            p.add_argument("--iters", type=int, default=None)
            p.add_argument("--restarts", type=int, default=None)

    p = sub.add_parser("fit", help="fit a model to CSV observations")
    common(p, fit=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("project", help="project a formal density onto the class")
    common(p, fit=True)
    # kept, with the bits config key, because the benchmark's project-1d
    # workload (benchmarks/run.py, run through benchmarks/worker.py) passes --bits 512
    p.add_argument("--bits", type=int, default=None,
                   help="accepted and ignored: the target is computed in doubles")
    p.add_argument("--density", required=True)
    p.add_argument("--params", default="", help="e.g. mu=0,sigma=0.83")
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sample", help="draw samples from a model JSON")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--output", required=True, help="output CSV")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("coeffs", help="Laguerre coefficients of a model JSON")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--m", type=str, default=None)
    p.add_argument("--output", required=True, help="output JSON")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("check-wb", help="well-behavedness diagnostics")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True, help="output JSON")
    p.set_defaults(func=cmd_check_wb)

    p = sub.add_parser("validate", help="resampled KS p-values against a benchmark")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--N", type=int, default=10_000)
    p.add_argument("--B", type=int, default=50)
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="sample a benchmark distribution")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--output", required=True, help="output CSV")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map that to the config code
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, IndexError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
