"""Command-line entry point.

``thorin fit|project|sample|coeffs|check-wb|validate|bench`` wires CSV
ingestion, fitting, validation and JSON/CSV report emission.  Every
randomized path takes an explicit ``--seed``; reruns with identical
inputs produce byte-identical outputs.

Exit codes: 0 ok, 2 data error, 3 config error, 4 numeric failure.  A
request too large to hold in memory (``--N``, ``--B``, ``--m``) is a config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import FitConfig, FitReport, fit_empirical, project_density
from .ggc import GgcModel, float_coeffs, sample
from .laguerre import QuadratureError, theoretical_coeffs
from .numkit import _from_oracle
from .validate import (
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

__getattr__ = _from_oracle(__name__, "model_coeffs", "theoretical_moments")

_COMMANDS = ("fit", "project", "sample", "coeffs", "check-wb", "validate", "bench")


class DataError(Exception):
    pass


class ConfigError(Exception):
    pass


def _read_csv(path: str) -> np.ndarray:
    """Comma-separated numeric columns, '.' decimals, optional single
    header row (the first non-blank line, when one of its cells is
    non-empty and not a number).  Blank lines are skipped; every error
    numbers rows over the non-blank lines, header included.  The lines
    are streamed to the parser, never held as a list."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"input file not found: {path}")
    with open(p) as fh:
        lines = (ln for ln in map(str.strip, fh) if ln)
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        start = 0
        try:
            [float(v) for v in first.split(",") if v.strip()]
        except ValueError:
            start = 1
            first = next(lines, None)
            if first is None:
                raise DataError(f"{path}: no data rows")
        try:
            arr = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2,
                             comments=None)
        except ValueError as exc:
            # numpy counts data rows from 0 when a cell does not convert and
            # from 1 when the width changes
            base = start + ("could not convert" in str(exc))
            raise DataError(f"{path}: " + re.sub(
                r"\brow (\d+)", lambda g: f"row {base + int(g[1])}", str(exc)))
    bad = np.argwhere(~np.isfinite(arr) | (arr < 0))
    if bad.size:
        i, j = bad[0]
        kind = "negative" if np.isfinite(arr[i, j]) else "non-finite"
        raise DataError(f"{path}: {kind} value at row {start + i + 1}, column {j + 1}")
    return arr


def _write_csv(path: Path, arr: np.ndarray, header: str = None):
    np.savetxt(path, np.atleast_2d(arr), fmt="%.17g", delimiter=",",
               header=header or "", comments="")


def _load_model(path: str) -> GgcModel:
    """A ``model.json``, or the ``"model"`` object of a fit's ``report.json``."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"model file not found: {path}")
    try:
        return GgcModel.from_json(p.read_text())
    except (ValueError, KeyError, TypeError) as exc:
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
        k, v = (part.strip() for part in item.split("=", 1))
        if k in out:
            raise ConfigError(f"parameter {k!r} is given twice")
        try:
            out[k] = float(v)
        except ValueError:
            raise ConfigError(f"non-numeric parameter value in {item!r}")
    return out


def _bench(fn, name: str, params: dict):
    """``fn(name, params)`` of a ``validate.bench_*`` function; its
    ``ValueError`` (an unknown name or key, a value outside its domain, no
    cdf or density for that benchmark) is a config error."""
    try:
        return fn(name, params)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _box(text: str) -> tuple:
    """``--m``, the box: a comma list of integers >= 0, e.g. ``20,20``,
    with at most one trailing comma."""
    items = text.split(",")
    if len(items) > 1 and not items[-1].strip():
        items.pop()
    try:
        m = tuple(int(v) for v in items)
        if min(m) >= 0:
            return m
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a comma list of integers >= 0, got {text!r}")


def _config_argv(path: str) -> list:
    """A config file as ``--key=value`` tokens: a JSON object, or
    ``key=value`` lines with ``#`` comments.  Keys are the command's flags
    spelled in full, each at most once and never ``config``; a JSON list
    becomes a comma list, as ``--m`` takes."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text().strip()
    if text.startswith("{"):
        try:
            pairs = json.loads(text, object_pairs_hook=list)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON config ({exc})")
        items = [(k, ",".join(map(str, v)) if isinstance(v, list) else str(v))
                 for k, v in pairs]
    else:
        items = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ConfigError(f"{path}: expected key=value line, got {ln!r}")
            items.append(tuple(part.strip() for part in ln.split("=", 1)))
    keys = [k for k, _ in items]
    for k in keys:
        if k == "config":
            raise ConfigError(f"{path}: config key 'config' may not name another config file")
        if keys.count(k) > 1:
            raise ConfigError(f"{path}: config key {k!r} is given twice")
    return [f"--{k}={v}" for k, v in items]


def _fit_config(args) -> FitConfig:
    """The search settings given as flags; ``FitConfig`` holds the defaults."""
    if args.n is None:
        raise ConfigError("--n is required")
    if getattr(args, "bits", None) is not None:
        print(f"thorin {args.mode}: --bits has no effect, the projection target is "
              "computed in doubles", file=sys.stderr)
    given = {"m": args.m, "swarm_size": args.swarm, "max_iters": args.iters,
             "restarts": args.restarts}
    try:
        return FitConfig(n=args.n, seed=args.seed,
                         **{k: v for k, v in given.items() if v is not None})
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
    params = _bench(bench_params, name, _parse_kv(args.params))
    pdf, jumps = _bench(bench_pdf, name, params)
    cfg = _fit_config(args)
    d = 2 if name == "mln_gaussian" else 1
    rcfg = cfg.resolved(d)
    if len(rcfg.m) != d:
        raise ConfigError(f"--m {','.join(map(str, rcfg.m))} has dimension {len(rcfg.m)}, "
                          f"but density {name} has dimension {d}")
    report = project_density(theoretical_coeffs(pdf, rcfg.m, jumps), rcfg)
    if name == "weibull" and params["k"] <= 0.5:
        report.notes = report.notes + (
            "target density lies outside L2: f ~ k x^(k-1) at the origin, k <= 1/2",
        )
    _emit_report(report, Path(args.output))
    return EXIT_OK


def cmd_sample(args) -> int:
    model = _load_model(args.model)
    if args.N is None or args.N < 1:
        raise ConfigError("sample size N must be >= 1")
    xs = sample(model, args.N, args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, xs)
    print(f"wrote {out} ({xs.shape[0]} rows, {xs.shape[1]} columns)")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    model = _load_model(args.model)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(float_coeffs(model, args.m).to_json() + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check_wb(args) -> int:
    model = _load_model(args.model)
    rep = best_eps(model)
    dep = classify_dependence(model)
    payload = rep.to_dict()
    payload["dependence"] = asdict(dep)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    return EXIT_OK


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    params = _bench(bench_params, args.target, _parse_kv(args.params))
    cdf = _bench(bench_cdf, args.target, params)
    N, B = args.N, args.B
    if N < 1 or B < 1:
        raise ConfigError("sample size N and replicate count B must be >= 1")
    pv = resampled_pvalues(model, cdf, N, B, args.seed)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "pvalues.csv", pv[:, None], header="p_value")
    summary = {
        "target": args.target,
        "params": params,
        "N": N,
        "B": B,
        "seed": args.seed,
        "frac_below_0.05": float((pv < 0.05).mean()),
        "min_p": float(pv.min()),
        "median_p": float(np.median(pv)),
        "tool_version": __version__,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return EXIT_OK


def cmd_bench(args) -> int:
    params = _bench(bench_params, args.name, _parse_kv(args.params))
    if args.N is None or args.N < 1:
        raise ConfigError("sample size N must be >= 1")
    xs = bench_sampler(args.name, params, args.N, args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, xs)
    print(f"wrote {out} ({xs.shape[0]} rows, {xs.shape[1]} columns)")
    return EXIT_OK


def _build_parser(only: str = None) -> argparse.ArgumentParser:
    """The ``thorin`` parser with every command's subparser, or with only
    the one named ``only``; its usage line names every command either way."""
    ap = argparse.ArgumentParser(
        prog="thorin",
        description="Laguerre expansions and estimation of multivariate "
        "gamma-convolution models",
        allow_abbrev=False,
    )
    ap.add_argument("--version", action="version", version=f"thorin {__version__}")
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="mode", required=True, metavar=metavar)

    def command(name, func, help, fit=False, draws=True):
        if only not in (None, name):
            return None
        # no abbreviated flags: a config key is a flag spelled in full
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        if draws:
            p.add_argument("--seed", type=int, default=0)
        if fit:
            p.add_argument("--config", help="JSON or key=value file of this command's "
                           "flags; the command line's own flags win")
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--m", type=_box, default=None, help="comma list, e.g. 20,20")
            p.add_argument("--swarm", type=int, default=None)
            p.add_argument("--iters", type=int, default=None)
            p.add_argument("--restarts", type=int, default=None)
        return p

    if p := command("fit", cmd_fit, "fit a model to CSV observations", fit=True):
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=True, help="output directory")

    if p := command("project", cmd_project, "project a formal density onto the class", fit=True):
        # kept, with the bits config key, because the benchmark's project-1d
        # workload (benchmarks/run.py, run through benchmarks/worker.py) passes --bits 512
        p.add_argument("--bits", type=int, default=None,
                       help="accepted and ignored: the target is computed in doubles")
        p.add_argument("--density", required=True)
        p.add_argument("--params", default="", help="e.g. mu=0,sigma=0.83")
        p.add_argument("--output", required=True, help="output directory")

    if p := command("sample", cmd_sample, "draw samples from a model JSON"):
        p.add_argument("--model", required=True)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--output", required=True, help="output CSV")

    if p := command("coeffs", cmd_coeffs, "Laguerre coefficients of a model JSON", draws=False):
        p.add_argument("--model", required=True)
        p.add_argument("--m", type=_box, required=True, help="comma list, e.g. 20,20")
        p.add_argument("--output", required=True, help="output JSON")

    if p := command("check-wb", cmd_check_wb, "well-behavedness diagnostics", draws=False):
        p.add_argument("--model", required=True)
        p.add_argument("--output", required=True, help="output JSON")

    if p := command("validate", cmd_validate, "resampled KS p-values against a benchmark"):
        p.add_argument("--model", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--params", default="")
        p.add_argument("--N", type=int, default=10_000)
        p.add_argument("--B", type=int, default=50)
        p.add_argument("--output", required=True, help="output directory")

    if p := command("bench", cmd_bench, "sample a benchmark distribution"):
        p.add_argument("--name", required=True)
        p.add_argument("--params", default="")
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--output", required=True, help="output CSV")
    return ap


def _parse_args(argv: list) -> argparse.Namespace:
    """One parse of the command line; with ``--config`` the file's values
    are parsed as flags placed before the command line's, so those win."""
    ap = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        args = ap.parse_args(argv[:1] + _config_argv(args.config) + argv[1:])
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map that to the config code
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # before ValueError, of which LinAlgError is a subclass
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, IndexError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
