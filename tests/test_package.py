"""The package namespace and the modules' imports, checked from source."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import thorin

MODULES = ("numkit", "laguerre", "ggc", "wellbehaved", "estimator", "validate")
SRC = Path(thorin.__file__).resolve().parent
NOQA_F401 = re.compile(r"#\s*noqa:\s*F401\b(.*)$")


class TestPublicNames:
    def test_package_names_are_the_modules_all(self):
        # thorin.__all__ is built from the modules' lists, in module order,
        # so a name exported by a module cannot be missing from the package
        lists = [importlib.import_module(f"thorin.{name}").__all__ for name in MODULES]
        names = [name for names in lists for name in names]
        assert len(set(names)) == len(names), "a name is exported by two modules"
        assert thorin.__all__ == names

    def test_every_name_resolves_to_its_module(self):
        for module_name in MODULES:
            module = importlib.import_module(f"thorin.{module_name}")
            assert getattr(thorin, module_name) is module
            for name in module.__all__:
                assert getattr(thorin, name) is getattr(module, name), (module_name, name)

    def test_oracle_names_stay_out_of_the_package(self):
        oracle = importlib.import_module("thorin.oracle")
        assert set(oracle.__all__).isdisjoint(thorin.__all__)

    def test_only_the_benchmarks_lookups_are_forwarded(self):
        # benchmarks/run.py and worker.py look these oracles up in the
        # modules that defined them before thorin.oracle did
        oracle = importlib.import_module("thorin.oracle")
        forwarded = {
            ("numkit", "PrecisionContext"), ("laguerre", "coeffs_from_moments"),
            ("estimator", "theoretical_moments"), ("validate", "bench_density_mp"),
            ("ggc", "model_coeffs"), ("cli", "theoretical_moments"), ("cli", "model_coeffs"),
            ("estimator", "coeffs_from_moments"),
        }
        for module_name in MODULES + ("cli",):
            module = importlib.import_module(f"thorin.{module_name}")
            for name in oracle.__all__:
                if (module_name, name) in forwarded:
                    assert getattr(module, name) is getattr(oracle, name), (module_name, name)
                else:
                    assert not hasattr(module, name), (module_name, name)
        with pytest.raises(AttributeError, match="'thorin.ggc' has no attribute 'shifted_cumulants'"):
            thorin.ggc.shifted_cumulants


def _scopes(tree):
    """Module and function nodes, each with the imports made directly in it."""
    out = []

    def visit(scope, node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, []))
                visit(out[-1], child)
            else:
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    scope[1].append(child)
                visit(scope, child)

    out.append((tree, []))
    visit(out[0], tree)
    return out


class TestImports:
    def test_every_import_is_used(self):
        # no linter runs here: an import is used in the scope that makes it,
        # or exempted on its own line by "noqa: F401" and a reason; an
        # exemption on an import that is used is stale
        exempt, unused = [], []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text)
            for scope, imports in _scopes(tree):
                used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
                for node in imports:
                    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                        continue
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        # an alias of a parenthesised import carries its own line
                        lineno = getattr(alias, "lineno", node.lineno)
                        noqa = NOQA_F401.search(lines[lineno - 1])
                        where = f"{path.name}:{lineno} {name}"
                        if noqa:
                            assert noqa.group(1).strip(), f"{where}: noqa F401 without a reason"
                            assert name not in used, f"{where}: stale noqa F401"
                            exempt.append(where)
                        elif name not in used:
                            unused.append(where)
        assert unused == []
        assert exempt, "ggc's numpy.random import carries noqa F401"


def _blas_products(module: str):
    """Lines of a module's source holding ``@`` or a dot, matmul, tensordot,
    inner or vdot attribute."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute)
        and node.attr in ("dot", "matmul", "tensordot", "inner", "vdot")
    ]


class TestSources:
    def test_laguerre_makes_no_matrix_product(self):
        # BLAS products change bits with the thread count; the layer's
        # contractions are two-operand einsums
        assert _blas_products("laguerre") == []

    def test_estimator_makes_no_blas_product(self):
        # every loss is numpy's pairwise sum of squares, whose bits do not
        # follow the BLAS thread count
        assert _blas_products("estimator") == []

    def test_wellbehaved_states_each_rule_once(self):
        # the rank rule's SVD and the membership residual |<s, t> - 1| are
        # each written in one function, which the chunked screens and the
        # one-by-one decisions share
        tree = ast.parse((SRC / "wellbehaved.py").read_text())
        found = {"svd": [], "residual": []}
        for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "svd":
                    found["svd"].append(func.name)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "abs" and isinstance(node.args[0], ast.BinOp)
                      and isinstance(node.args[0].op, ast.Sub)
                      and isinstance(node.args[0].right, ast.Constant)
                      and node.args[0].right.value == 1):
                    found["residual"].append(func.name)
        assert found == {"svd": ["_rank_below"], "residual": ["_relative_residual"]}

    def test_ks_tail_takes_one_method_per_region(self):
        # each (n, d) reaches the Smirnov sum, Durbin's matrix or Pelz-Good;
        # no closed form (expm1 of log n!/n^n) repeats one of them
        tree = ast.parse((SRC / "validate.py").read_text())
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_ks_sf")
        called = [node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                  for node in ast.walk(func) if isinstance(node, ast.Call)]
        for name in ("_smirnov_sf", "_durbin_cdf", "_pelz_good_cdf"):
            assert called.count(name) == 1, name
        assert not {"expm1", "_log_nfact_over_nn"} & set(called)

    def test_oracle_does_not_import_the_search(self):
        tree = ast.parse((SRC / "oracle.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(["thorin"] * bool(node.level) + [node.module] * bool(node.module))
                imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
        assert "thorin.estimator" not in imported
