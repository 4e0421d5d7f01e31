import ast
import importlib
import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thorin import cli, validate
from thorin.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from thorin.ggc import GgcModel, sample
from thorin.laguerre import CoeffTensor


@pytest.fixture()
def gamma_csv(tmp_path):
    xs = sample(GgcModel([2.0], [[3.0]]), 200_000, seed=17)
    path = tmp_path / "gamma.csv"
    path.write_text("value\n" + "\n".join(f"{v:.17g}" for v in xs.ravel()) + "\n")
    return path


class TestFit:
    def test_self_fit_small_loss(self, tmp_path, gamma_csv):
        out = tmp_path / "fit"
        rc = main(
            [
                "fit",
                "--input", str(gamma_csv),
                "--output", str(out),
                "--n", "1",
                "--m", "2",
                "--seed", "3",
                "--iters", "400",
                "--restarts", "2",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["loss"] < 1e-6
        assert report["wb"]["is_wb"] is True
        for key in ("model", "loss", "wb", "m", "n", "seed", "bits_used", "tool_version"):
            assert key in report
        assert report["bits_used"] == 53
        ct = CoeffTensor.from_json((out / "coeffs.json").read_text())
        assert ct.m == (2,)

    def test_precision_and_thread_flags_only_where_used(self, tmp_path, gamma_csv):
        # fits run in doubles and validation in one thread: both flags are
        # usage errors there
        rc = main(["fit", "--input", str(gamma_csv), "--output", str(tmp_path / "o"),
                   "--n", "1", "--bits", "128"])
        assert rc == EXIT_CONFIG
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        rc = main(["validate", "--model", str(model_path), "--target", "lognormal",
                   "--threads", "2", "--output", str(tmp_path / "v")])
        assert rc == EXIT_CONFIG

    def test_negative_entry_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n0.5,-0.25\n")
        rc = main(["fit", "--input", str(bad), "--output", str(tmp_path / "o"), "--n", "1"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err

    def test_ragged_rows_rejected(self, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1.0,2.0\n0.5\n")
        rc = main(["fit", "--input", str(bad), "--output", str(tmp_path / "o"), "--n", "1"])
        assert rc == EXIT_DATA

    def test_missing_n_is_config_error(self, tmp_path, gamma_csv):
        rc = main(["fit", "--input", str(gamma_csv), "--output", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_bivariate_csv(self, tmp_path):
        xs = sample(GgcModel([1.0, 1.5], [[1.0, 0.0], [0.5, 2.0]]), 5000, seed=23)
        path = tmp_path / "biv.csv"
        path.write_text("\n".join(f"{a:.17g},{b:.17g}" for a, b in xs) + "\n")
        out = tmp_path / "fit2d"
        rc = main(
            ["fit", "--input", str(path), "--output", str(out), "--n", "2",
             "--m", "2,2", "--seed", "1", "--iters", "150", "--restarts", "1",
             "--swarm", "80"]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["m"] == [2, 2]
        assert len(report["model"]["scales"][0]) == 2

    def test_config_file_with_flag_override(self, tmp_path, gamma_csv):
        conf = tmp_path / "fit.conf"
        conf.write_text("n=1\nm=2\niters=50\nseed=9\nrestarts=1\n")
        out = tmp_path / "fit2"
        rc = main(
            [
                "fit",
                "--config", str(conf),
                "--input", str(gamma_csv),
                "--output", str(out),
                "--seed", "12",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == 1
        assert report["seed"] == 12  # flag wins over the file

    @pytest.mark.parametrize("line", ["floor=1e-9", "bits=512", "it=50"])
    def test_config_key_without_fit_flag_is_config_error(self, tmp_path, gamma_csv, capsys, line):
        # --floor is gone, fit has no --bits and flags are never abbreviated
        # (it is not --iters): no such key may be ignored
        conf = tmp_path / "fit.conf"
        conf.write_text(f"n=1\nm=2\n{line}\n")
        rc = main(["fit", "--config", str(conf), "--input", str(gamma_csv),
                   "--output", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        key = line.split("=")[0]
        assert key in capsys.readouterr().err.rsplit(":", 1)[-1]  # the rejected flag, named last

    def test_json_key_value_and_flags_give_the_same_report(self, tmp_path, gamma_csv):
        flags = {"n": "1", "m": "2", "iters": "20", "restarts": "1", "seed": "5"}
        conf_kv = tmp_path / "fit.conf"
        conf_kv.write_text("# a comment\n" + "".join(f"{k} = {v}\n" for k, v in flags.items()))
        conf_json = tmp_path / "fit.json"
        conf_json.write_text(json.dumps({"n": 1, "m": [2], "iters": 20, "restarts": 1, "seed": 5}))
        runs = {
            "flags": [t for k, v in flags.items() for t in (f"--{k}", v)],
            "kv": ["--config", str(conf_kv)],
            "json": ["--config", str(conf_json)],
        }
        for name, extra in runs.items():
            rc = main(["fit", "--input", str(gamma_csv), "--output", str(tmp_path / name)] + extra)
            assert rc == EXIT_OK, name
        reports = {name: (tmp_path / name / "report.json").read_bytes() for name in runs}
        assert reports["kv"] == reports["flags"] == reports["json"]

    def test_abbreviated_flag_is_config_error(self, tmp_path, gamma_csv):
        rc = main(["fit", "--input", str(gamma_csv), "--output", str(tmp_path / "o"),
                   "--n", "1", "--it", "50"])
        assert rc == EXIT_CONFIG

    def test_json_non_integer_is_config_error(self, tmp_path, gamma_csv):
        conf = tmp_path / "fit.json"
        conf.write_text('{"n": 1.5, "m": [2]}')
        rc = main(["fit", "--config", str(conf), "--input", str(gamma_csv),
                   "--output", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_box_with_non_integer_entry_is_config_error(self, tmp_path, gamma_csv):
        rc = main(["fit", "--input", str(gamma_csv), "--output", str(tmp_path / "o"),
                   "--n", "1", "--m", "2,x"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("fmt", ["kv", "json"])
    @pytest.mark.parametrize("pairs, key", [
        ([("seed", 1), ("seed", 2)], "seed"),
        ([("seed", 1), ("config", "/nonexistent")], "config"),
    ])
    def test_config_repeated_or_self_key_is_config_error(
            self, tmp_path, gamma_csv, capsys, fmt, pairs, key):
        pairs = [("n", 1), ("m", 2), ("iters", 5), ("restarts", 1)] + pairs
        conf = tmp_path / "fit.conf"
        if fmt == "kv":
            conf.write_text("".join(f"{k}={v}\n" for k, v in pairs))
        else:  # json.dumps of a dict cannot repeat a key
            conf.write_text("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                            for k, v in pairs) + "}")
        out = tmp_path / "o"
        rc = main(["fit", "--config", str(conf), "--input", str(gamma_csv),
                   "--output", str(out)])
        assert rc == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()


# (file text, exit code, what the message must hold)
_BAD_CSV = {
    "header only": ("x,y\n", EXIT_DATA, ["no data rows"]),
    "blank lines only": ("\n  \n\t\n", EXIT_DATA, ["empty file"]),
    "nan": ("1,2\n3,nan\n", EXIT_DATA, ["non-finite", "row 2", "column 2"]),
    "inf": ("x,y\n1,2\n\ninf,3\n", EXIT_DATA, ["non-finite", "row 3", "column 1"]),
    "negative": ("x,y\n1,2\n3,-0.5\n", EXIT_DATA, ["negative", "row 3", "column 2"]),
    "non-numeric": ("1,2\n3,abc\n", EXIT_DATA, ["'abc'", "row 2,"]),
    "non-numeric after header": ("x,y\n1,2\n3,abc\n", EXIT_DATA, ["'abc'", "row 3,"]),
    "wider row": ("x,y\n1,2\n3,4,5\n", EXIT_DATA, ["from 2 to 3", "row 3;"]),
    "first line ends in a comma": ("1,2,\n3,4\n5,6\n", EXIT_DATA, ["''", "row 1,", "column 3"]),
    "underscore digits": ("1,2\n1_000,3\n", EXIT_DATA, ["'1_000'"]),
    "trailing comma": ("x,y\n1,2,\n", EXIT_DATA, ["''", "column 3"]),
}

_CLEAN_CSV = "x,y\n0.5,1.25\n3,0\n"
_SAME_CSV = {
    "crlf": "x,y\r\n0.5,1.25\r\n3,0\r\n",
    "blank lines": "\nx,y\n\n0.5,1.25\n  \n\n3,0\n\n",
    "spaces and tabs": "x , y\n 0.5 ,\t1.25\n\t3\t, 0 \n",
    "no header": "0.5,1.25\n3,0\n",
    "header with an empty cell": "x,\n0.5,1.25\n3,0\n",
}

_EXTREMES = np.array([[0.1, 1 / 3], [5e-324, 1.7976931348623157e308], [0.0, 2.5]])


class TestCsvFiles:
    @pytest.mark.parametrize("case", list(_BAD_CSV) + ["missing file"])
    def test_malformed_input_exit_code(self, tmp_path, capsys, case):
        path = tmp_path / "in.csv"
        if case == "missing file":
            text, code, needles = None, EXIT_CONFIG, ["not found"]
        else:
            text, code, needles = _BAD_CSV[case]
            path.write_text(text)
        out = tmp_path / "o"
        rc = main(["fit", "--input", str(path), "--output", str(out), "--n", "1"])
        assert rc == code
        err = capsys.readouterr().err
        assert all(needle in err for needle in needles), err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(_SAME_CSV))
    def test_layout_variants_read_as_the_clean_file(self, tmp_path, case):
        clean, variant = tmp_path / "clean.csv", tmp_path / "variant.csv"
        clean.write_text(_CLEAN_CSV)
        variant.write_bytes(_SAME_CSV[case].encode())
        want = cli._read_csv(str(clean))
        assert want.shape == (2, 2)
        got = cli._read_csv(str(variant))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_one_column_reads_as_n_by_1(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("value\n1.5\n2\n0\n")
        arr = cli._read_csv(str(path))
        assert arr.shape == (3, 1)
        assert arr.ravel().tolist() == [1.5, 2.0, 0.0]

    @pytest.mark.parametrize("header", [None, "a,b"])
    def test_write_then_read_is_bit_exact(self, tmp_path, header):
        path = tmp_path / "x.csv"
        cli._write_csv(path, _EXTREMES, header=header)
        got = cli._read_csv(str(path))
        assert got.shape == _EXTREMES.shape and got.tobytes() == _EXTREMES.tobytes()

    def test_written_bytes(self, tmp_path):
        def lines(arr):
            return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in arr)

        square = _EXTREMES[:2]
        path = tmp_path / "square.csv"
        cli._write_csv(path, square)
        assert path.read_text() == lines(square)
        column = _EXTREMES.ravel()[:, None]
        path = tmp_path / "column.csv"
        cli._write_csv(path, column, header="p_value")
        assert path.read_text() == "p_value\n" + lines(column)
        back = cli._read_csv(str(path))
        assert back.shape == column.shape and back.tobytes() == column.tobytes()


class TestSample:
    def test_round_trip_and_determinism(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([2.0], [[1.0, 0.5]]).to_json())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            rc = main(
                ["sample", "--model", str(model_path), "--N", "500", "--seed", "4",
                 "--output", str(out)]
            )
            assert rc == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        arr = np.loadtxt(out1, delimiter=",")
        assert arr.shape == (500, 2)

    def test_zero_samples_config_error(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        rc = main(
            ["sample", "--model", str(model_path), "--N", "0", "--output",
             str(tmp_path / "x.csv")]
        )
        assert rc == EXIT_CONFIG

    def test_invalid_model_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": [1.0]}')
        rc = main(["sample", "--model", str(bad), "--N", "5", "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_DATA


class TestCoeffsAndWb:
    def test_coeffs_match_library(self, tmp_path):
        from thorin.ggc import model_coeffs

        model = GgcModel([1.0], [[1.0]])
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--model", str(model_path), "--m", "5", "--output", str(out)])
        assert rc == EXIT_OK
        ct = CoeffTensor.from_json(out.read_text())
        np.testing.assert_allclose(
            ct.a, model_coeffs(model, (5,)).coeffs.as_float(), rtol=1e-12, atol=1e-15
        )

    def test_coeffs_of_a_fit_match_its_coeffs_json(self, tmp_path):
        # one kernel: the command reproduces the fit's own coeffs.json
        xs = sample(GgcModel([1.0, 1.5], [[1.0, 0.0], [0.5, 2.0]]), 2000, seed=23)
        path = tmp_path / "biv.csv"
        path.write_text("\n".join(f"{a:.17g},{b:.17g}" for a, b in xs) + "\n")
        fit = tmp_path / "fit"
        assert main(["fit", "--input", str(path), "--output", str(fit), "--n", "2",
                     "--m", "4,4", "--seed", "1", "--iters", "5", "--restarts", "1",
                     "--swarm", "40"]) == EXIT_OK
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--model", str(fit / "report.json"), "--m", "4,4",
                   "--output", str(out)])
        assert rc == EXIT_OK
        assert out.read_bytes() == (fit / "coeffs.json").read_bytes()

    def test_coeffs_box_of_wrong_dimension(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0, 2.0], [[1.0, 0.5], [0.2, 3.0]]).to_json())
        rc = main(["coeffs", "--model", str(model_path), "--m", "3",
                   "--output", str(tmp_path / "c.json")])
        assert rc == EXIT_DATA
        assert "dimension" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_coeffs_has_no_bits(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        rc = main(["coeffs", "--model", str(model_path), "--m", "5", "--bits", "256",
                   "--output", str(tmp_path / "c.json")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("box, rc", [("3,", EXIT_OK), ("-1", EXIT_CONFIG)])
    def test_coeffs_box_syntax_as_fit(self, tmp_path, box, rc):
        # --m is read by the same parser as fit's, trailing comma included
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        out = tmp_path / "c.json"
        assert main(["coeffs", "--model", str(model_path), "--m", box,
                     "--output", str(out)]) == rc
        assert out.exists() == (rc == EXIT_OK)

    def test_coeffs_requires_m(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        rc = main(["coeffs", "--model", str(model_path), "--output", str(tmp_path / "c.json")])
        assert rc == EXIT_CONFIG

    def test_check_wb_payload(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([2.0], [[2.0]]).to_json())
        out = tmp_path / "wb.json"
        rc = main(["check-wb", "--model", str(model_path), "--output", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["is_wb"] is True
        assert payload["best_eps"] == pytest.approx(2.0)
        assert payload["dependence"]["kind"] in ("independent", "comonotonic", "general")

    def test_check_wb_takes_no_config(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([2.0], [[1.0]]).to_json())
        conf = tmp_path / "c.txt"
        conf.write_text("seed=1\n")
        rc = main(["check-wb", "--config", str(conf), "--model", str(model_path),
                   "--output", str(tmp_path / "wb.json")])
        assert rc == EXIT_CONFIG

    def test_fit_report_feeds_model_commands(self, tmp_path, gamma_csv):
        # a fit's report.json holds the model under "model"
        out = tmp_path / "fit"
        rc = main(["fit", "--input", str(gamma_csv), "--output", str(out), "--n", "1",
                   "--m", "2", "--seed", "3", "--iters", "20", "--restarts", "1"])
        assert rc == EXIT_OK
        report_path = out / "report.json"
        wb = tmp_path / "wb.json"
        rc = main(["check-wb", "--model", str(report_path), "--output", str(wb)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert set(report["wb"]) == {"is_wb", "best_eps", "total_mass", "witness"}
        payload = json.loads(wb.read_text())
        assert payload["is_wb"] == report["wb"]["is_wb"]
        assert payload["best_eps"] == report["wb"]["best_eps"]
        rc = main(["sample", "--model", str(report_path), "--N", "5", "--output",
                   str(tmp_path / "x.csv")])
        assert rc == EXIT_OK


class TestValidateCmd:
    def test_pvalues_and_summary(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        out = tmp_path / "val"
        rc = main(
            ["validate", "--model", str(model_path), "--target", "lognormal",
             "--params", "mu=0,sigma=0.83", "--N", "500", "--B", "4",
             "--seed", "2", "--output", str(out)]
        )
        assert rc == EXIT_OK
        pv = np.loadtxt(out / "pvalues.csv", delimiter=",", skiprows=1)
        assert pv.shape == (4,)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["B"] == 4 and summary["N"] == 500

    @pytest.mark.parametrize("flag", ["--N", "--B"])
    def test_zero_count_is_config_error(self, tmp_path, flag):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        out = tmp_path / "val"
        rc = main(["validate", "--model", str(model_path), "--target", "lognormal",
                   flag, "0", "--output", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_target(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
        rc = main(
            ["validate", "--model", str(model_path), "--target", "cauchy",
             "--output", str(tmp_path / "v")]
        )
        assert rc == EXIT_CONFIG


class TestBench:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(
                ["bench", "--name", "clayton_pareto_lognormal", "--params", "theta=7",
                 "--N", "200", "--seed", "6", "--output", str(out)]
            )
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_file_reads_back_as_the_sample(self, tmp_path):
        # the fit-2d benchmark writes this file with bench and fits it
        path = tmp_path / "clayton.csv"
        rc = main(["bench", "--name", "clayton_pareto_lognormal", "--params", "theta=7",
                   "--N", "2000", "--seed", "8", "--output", str(path)])
        assert rc == EXIT_OK
        params = validate.bench_params("clayton_pareto_lognormal", {"theta": 7.0})
        want = validate.bench_sampler("clayton_pareto_lognormal", params, 2000, 8)
        got = cli._read_csv(str(path))
        assert got.shape == (2000, 2) and got.tobytes() == want.tobytes()

    def test_unknown_bench(self, tmp_path, capsys):
        rc = main(["bench", "--name", "nope", "--N", "10", "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'nope'" in err and all(name in err for name in validate.BENCH_NAMES)


# (distribution, --params, the key the error must name)
_BAD_PARAMS = [
    ("lognormal", "sgima=5", "sgima"),
    ("lognormal", "mu=0,sigma=-0.83", "sigma"),
    ("lognormal", "mu=nan", "mu"),
    ("lognormal", "mu=0,mu=5", "mu"),
    ("pareto", "k=-1", "k"),
    ("pareto", "xm=0", "xm"),
    ("weibull", "k=inf", "k"),
    ("mln_gaussian", "rho=1", "rho"),
    ("clayton_pareto_lognormal", "theta=0", "theta"),
]


def _bad_param_runs():
    for name, params, key in _BAD_PARAMS:
        yield "bench", ["bench", "--name", name, "--N", "10"], params, key
        if name != "clayton_pareto_lognormal":
            yield "project", ["project", "--density", name, "--n", "1"], params, key
        if name in ("lognormal", "pareto", "weibull"):
            yield "validate", ["validate", "--target", name, "--N", "10", "--B", "1"], params, key


class TestDistributionParameters:
    @pytest.mark.parametrize(
        "argv, params, key",
        [pytest.param(argv, params, key, id=f"{cmd}-{argv[2]}-{params}")
         for cmd, argv, params, key in _bad_param_runs()],
    )
    def test_unknown_or_out_of_domain_is_config_error(self, tmp_path, capsys, argv, params, key):
        if argv[0] == "validate":
            model_path = tmp_path / "model.json"
            model_path.write_text(GgcModel([1.0], [[1.0]]).to_json())
            argv = argv + ["--model", str(model_path)]
        out = tmp_path / "out"
        assert main(argv + ["--params", params, "--output", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key}=" in err or repr(key) in err, err
        assert not out.exists()


class TestProject:
    def test_weibull_positive_parameters(self, tmp_path):
        out = tmp_path / "proj"
        rc = main(
            ["project", "--density", "weibull", "--params", "k=1.5",
             "--n", "2", "--bits", "128", "--seed", "1", "--iters", "400",
             "--restarts", "1", "--output", str(out)]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        alpha = np.asarray(report["model"]["alpha"])
        scales = np.asarray(report["model"]["scales"])
        assert np.all(alpha > 0)
        assert np.all(scales.sum(axis=1) > 0)

    def test_pareto_l2_boundary_note(self, tmp_path):
        out = tmp_path / "proj2"
        rc = main(
            ["project", "--density", "pareto", "--params", "k=0.25",
             "--n", "1", "--bits", "64", "--seed", "1", "--iters", "60",
             "--restarts", "1", "--m", "2", "--output", str(out)]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert any("outside L2" in note for note in report["notes"])

    def test_bivariate_projection(self, tmp_path):
        out = tmp_path / "proj3"
        rc = main(
            ["project", "--density", "mln_gaussian", "--n", "1", "--bits", "64",
             "--seed", "1", "--iters", "50", "--restarts", "1", "--output", str(out)]
        )
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert np.isfinite(report["loss"])
        assert np.asarray(report["model"]["scales"]).shape[1] == 2

    def test_unresolved_quadrature_is_numeric_failure(self, tmp_path, monkeypatch):
        # with Pareto's jump at xm = 2 withheld, the discontinuity sits
        # inside [1, 10] and successive quadrature levels never agree
        def without_jumps(name, params):
            return validate.bench_pdf(name, params)[0], ()

        monkeypatch.setattr(cli, "bench_pdf", without_jumps)
        rc = main(
            ["project", "--density", "pareto", "--params", "k=2.5,xm=2", "--n", "1",
             "--m", "1", "--bits", "64", "--output", str(tmp_path / "p")]
        )
        assert rc == EXIT_NUMERIC

    def test_bits_is_accepted_without_effect(self, tmp_path, capsys):
        argv = ["project", "--density", "weibull", "--n", "1", "--m", "2", "--seed", "1",
                "--iters", "30", "--restarts", "1"]
        assert main(argv + ["--output", str(tmp_path / "a")]) == EXIT_OK
        plain = capsys.readouterr()
        conf = tmp_path / "bits.conf"
        conf.write_text("bits = 64\n")
        for extra, out in ((["--bits", "512"], "b"), (["--config", str(conf)], "c")):
            assert main(argv + extra + ["--output", str(tmp_path / out)]) == EXIT_OK
            run = capsys.readouterr()
            assert run.out == plain.out.replace(str(tmp_path / "a"), str(tmp_path / out))
            assert len(run.err.splitlines()) == 1 and "--bits has no effect" in run.err
            for name in ("report.json", "coeffs.json"):
                assert (tmp_path / out / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["bits_used"] == 53

    def test_unknown_density_lists_the_names(self, tmp_path, capsys):
        rc = main(["project", "--density", "nope", "--n", "1", "--output", str(tmp_path / "p")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'nope'" in err and all(name in err for name in validate.BENCH_NAMES)

    def test_clayton_has_no_formal_density(self, tmp_path):
        rc = main(
            ["project", "--density", "clayton_pareto_lognormal", "--n", "1",
             "--output", str(tmp_path / "p")]
        )
        assert rc == EXIT_CONFIG


class TestEntryPoint:
    def test_usage_error_maps_to_config_exit(self):
        assert main([]) == EXIT_CONFIG

    def test_installed_script_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thorin.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "thorin" in proc.stdout

    def test_readme_command_lines_parse(self):
        # every documented command line is one the parser accepts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [shlex.split(ln) for ln in block.splitlines() if ln.startswith("thorin ")]
        parser = cli._build_parser()
        for argv in lines:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command line does not parse: {' '.join(argv)}")
        modes = parser._subparsers._group_actions[0].choices
        assert {argv[1] for argv in lines} == set(modes)

    def test_import_loads_no_heavy_scipy_module(self):
        # start-up cost: the library needs only scipy.special
        heavy = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.integrate")
        code = f"import sys, thorin.cli; print([m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBenchmarkTraceContract:
    def test_traced_names_resolve(self):
        # benchmarks/worker.py --trace wraps these module-level names; one
        # that is gone crashes every traced benchmark pass
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "worker.py"
        spec = importlib.util.spec_from_file_location("benchmark_worker", path)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        assert worker.TRACED
        for module_name, attrs in worker.TRACED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                assert callable(getattr(module, attr)), (module_name, attr)

    def test_oracle_imports_resolve(self):
        # benchmarks/run.py imports its oracles (reference coefficients,
        # moments, the config) from the library inside functions; a name
        # that is gone fails only when a benchmark pass reaches it
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
        names = [(node.module, alias.name)
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("thorin")
                 for alias in node.names]
        assert {"empirical_coeffs", "coeffs_from_moments", "model_coeffs"} <= {n for _, n in names}
        for module_name, attr in names:
            assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)

    def test_benchmark_command_lines_parse(self, tmp_path):
        # every command a benchmark pass runs is one the parser accepts, so
        # a CLI change cannot break a workload unseen
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
        spec = importlib.util.spec_from_file_location("benchmark_run", path)
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        parser = cli._build_parser()
        assert set(run.WORKLOADS) >= {"fit-2d", "project-1d"}
        for name, build in run.WORKLOADS.items():
            work = tmp_path / name
            work.mkdir()
            plan = build(work, 1, True)
            for pass_no in (0, 1):
                for step in plan.steps(pass_no):
                    argv = [str(a).format(out=work / "out", model=work / "model.json")
                            for a in step.argv]
                    try:
                        parser.parse_args(argv)
                    except SystemExit:
                        pytest.fail(f"{name} runs a command that does not parse: {argv}")
