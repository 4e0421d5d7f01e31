"""Run one ``thorin`` CLI command in this fresh interpreter and record its cost.

    python3 benchmarks/worker.py RESULT_JSON [--trace RUN_ID] -- THORIN_ARGS...

Writes RESULT_JSON with the monotonic clock reading at which ``thorin.cli``
finished importing (the parent took one just before it started this
process, so the difference is the set-up time), the command's wall time and
exit code, and this process's peak RSS.  With ``--trace`` the module-level
names listed in ``TRACED`` are replaced by wrappers that record one span per
call; the library itself is not modified.
"""

import time

import thorin.cli  # timed: this import is the CLI's set-up cost

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# The public names the CLI pipeline calls, by the module whose global
# lookup the pipeline goes through: the CLI imported some names directly,
# estimator calls ``best_eps`` from its own namespace and ``ggc.model_coeffs``
# through the module, and ``resampled_pvalues`` looks up ``sample`` and
# ``ks_exact`` in ``thorin.validate``.
TRACED = {
    "thorin.cli": [
        "fit_empirical", "project_density", "theoretical_moments",
        "model_coeffs", "best_eps", "resampled_pvalues",
    ],
    "thorin.estimator": ["empirical_coeffs", "coeffs_from_moments", "loss_Lm", "best_eps"],
    "thorin.ggc": ["model_coeffs"],
    "thorin.validate": ["sample", "ks_exact"],
}


class Tracer:
    """In-memory spans: name, start, end, parent index and run id.

    A span is named after the layer that defines the function
    (``thorin.laguerre.empirical_coeffs`` becomes ``laguerre.empirical_coeffs``),
    so the same function reached through two modules shares one name.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        bits = getattr(result, "bits_used", None)
        if isinstance(bits, int):
            rec["bits_used"] = bits
        return result

    def wrap(self, module_name, attr):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        name = f"{fn.__module__.removeprefix('thorin.')}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        setattr(module, attr, traced)


def main(argv):
    out_path, rest = argv[0], argv[1:]
    run_id = None
    if rest[:1] == ["--trace"]:
        run_id, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    result = {"imported_at": IMPORTED_AT}
    tracer = None
    if run_id is not None:
        tracer = Tracer(run_id)
        for module_name, attrs in TRACED.items():
            for attr in attrs:
                tracer.wrap(module_name, attr)
    rc = 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = thorin.cli.main(rest)
        else:
            rc = tracer.span(f"cli.{rest[0]}", thorin.cli.main, rest)
    except Exception:  # recorded for the parent, which counts the failure
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - t0
    result["rc"] = rc
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
