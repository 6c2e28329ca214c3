import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdmt
from rdmt.cli import main
from rdmt.distributions import _FAMILIES, RngStream

from conftest import LEGAL_FIELDS, non_finite_fields


def run_cli(*argv):
    return main(list(argv))


class TestSample:
    def test_count_and_shape_contract(self, tmp_path):
        out = tmp_path / "samples.jsonl"
        code = run_cli("sample", "--dist", "matric-t", "--beta", "2", "--m", "2",
                       "--n", "3", "--nu", "5", "--count", "100", "--seed", "7",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "run-info"
        assert header["seed"] == 7
        assert len(lines) == 101
        mat = json.loads(lines[1])
        assert (mat["beta"], mat["rows"], mat["cols"]) == (2, 2, 3)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ("sample", "--dist", "wishart", "--beta", "1", "--m", "2",
                "--nu", "6", "--count", "20", "--seed", "3", "--method", "gram")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_octonion_restriction_message(self, tmp_path, capsys):
        code = run_cli("sample", "--dist", "matric-t", "--beta", "8", "--m", "2",
                       "--n", "2", "--nu", "9", "--count", "1", "--seed", "1",
                       "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "octonion" in capsys.readouterr().err.lower()

    def test_octonion_scalar_gamma_works(self, tmp_path):
        out = tmp_path / "g.jsonl"
        code = run_cli("sample", "--dist", "gamma", "--beta", "8", "--nu", "2",
                       "--rho", "1.5", "--count", "10", "--seed", "2",
                       "--out", str(out))
        assert code == 0
        vals = [json.loads(l)["value"] for l in out.read_text().splitlines()[1:]]
        assert len(vals) == 10 and all(v > 0 for v in vals)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("sample", "--dist", "gaussian", "--beta", "4", "--m", "1",
                       "--n", "2", "--count", "5", "--seed", "4", "--format",
                       "csv", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1].split(",")[0] == "r0c0k0"
        assert len(lines) == 7

    def test_gamma_csv_lines_equal_the_jsonl_values(self, tmp_path):
        args = ("sample", "--dist", "gamma", "--beta", "2", "--nu", "3", "--count",
                "6", "--seed", "8")
        csv, jsonl = tmp_path / "g.csv", tmp_path / "g.jsonl"
        assert run_cli(*args, "--format", "csv", "--out", str(csv)) == 0
        assert run_cli(*args, "--out", str(jsonl)) == 0
        lines = csv.read_text().splitlines()
        assert lines[1] == "value"
        values = [json.loads(l)["value"] for l in jsonl.read_text().splitlines()[1:]]
        assert lines[2:] == [repr(float(v)) for v in values]

    def test_config_error_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code = run_cli("sample", "--dist", "elliptical-t", "--beta", "8", "--m", "2",
                       "--n", "3", "--nu", "4", "--count", "3", "--seed", "1",
                       "--out", str(out))
        assert code == 2
        assert "octonion" in capsys.readouterr().err.lower()
        assert not out.exists()

    @pytest.mark.parametrize("flags,fields", [
        (["--dist", "wishart", "--m", "1", "--nu", "3", "--method", "gram"],
         {"m": 1, "nu": 3.0}),
        (["--dist", "beta2-matric", "--m", "1", "--n", "3", "--nu", "2"],
         {"m": 1, "n": 3, "nu": 2.0}),
        (["--dist", "elliptical-t", "--m", "1", "--n", "1", "--nu", "4"],
         {"m": 1, "n": 1, "nu": 4.0}),
    ], ids=["wishart-gram", "beta2-matric-1x3", "elliptical-t"])
    def test_octonion_records_with_a_larger_block_draw(self, tmp_path, capsys, flags,
                                                       fields):
        # a 1x1 octonion record whose construction draws a 1 x k block,
        # k > 1, draws it as the real 1 x 8 k block
        from rdmt.algebra import AlgebraTag, DivMatrix

        out = tmp_path / "x.jsonl"
        code = run_cli("sample", "--beta", "8", *flags, "--count", "5", "--seed", "3",
                       "--out", str(out))
        assert (code, capsys.readouterr().err) == (0, "")
        row, octonion = _FAMILIES[flags[1]], AlgebraTag.OCTONION
        method = {"method": "gram"} if "--method" in flags else {}
        draws = row.sampler(RngStream(3), row.record(octonion, **fields), size=5, **method)
        want = [json.dumps(DivMatrix(octonion, d).to_schema_dict()) for d in draws]
        assert out.read_text().splitlines()[1:] == want

    def test_non_finite_draws_are_refused_in_jsonl(self, tmp_path, capsys):
        # rho = 1e308 overflows the gamma scale: JSON cannot hold the inf draws
        args = ("sample", "--dist", "gamma", "--beta", "1", "--nu", "2", "--rho",
                "1e308", "--count", "3", "--seed", "1")
        out, csv = tmp_path / "g.jsonl", tmp_path / "g.csv"
        assert run_cli(*args, "--out", str(out)) == 1
        assert "3 of 3 draws are not finite" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(*args, "--format", "csv", "--out", str(csv)) == 0
        assert csv.read_text().splitlines()[2:] == ["inf"] * 3

    def test_underflowed_bartlett_pivot_is_a_runtime_error(self, tmp_path, capsys):
        # nu = 1.01 is legal at beta = 1, m = 2, but some Bartlett pivots
        # underflow to 0: exit 1 naming the draw, not a singular solve
        out = tmp_path / "x.jsonl"
        code = run_cli("sample", "--dist", "matric-t", "--beta", "1", "--m", "2",
                       "--n", "2", "--nu", "1.01", "--count", "2000", "--seed", "1",
                       "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert "ArithmeticError" in err and "draw at index 17" in err
        assert not out.exists()

    @pytest.mark.parametrize("dist,flags,message", [
        ("gamma", [], "draw at index 1 of Gamma(0.0005, 2) underflowed to 0"),
        ("matrix-mt", ["--m", "1", "--n", "2"],
         "draw at index 1 has a scale S ~ Gamma(0.0005, 2) that underflowed to 0"),
    ])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_underflowed_gamma_draw_is_a_runtime_error(self, tmp_path, capsys, dist,
                                                      flags, message, fmt):
        # at nu = 0.001 most gamma draws underflow to 0: gamma would write 0.0,
        # outside its support, and matrix-mt infinite draws
        out = tmp_path / "x"
        code = run_cli("sample", "--dist", dist, "--beta", "1", *flags, "--nu", "0.001",
                       "--count", "2000", "--seed", "1", "--format", fmt,
                       "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RDMT_SEED", raising=False)
        code = run_cli("sample", "--dist", "gamma", "--beta", "1", "--nu", "2",
                       "--count", "1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RDMT_SEED", "12")
        out = tmp_path / "e.jsonl"
        code = run_cli("sample", "--dist", "gamma", "--beta", "1", "--nu", "2",
                       "--count", "1", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["seed"] == 12

    def test_params_file(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"family": "matric-t", "beta": 1, "m": 1,
                                     "n": 1, "nu": 1.0}))
        out = tmp_path / "o.jsonl"
        code = run_cli("sample", "--dist", "matric-t", "--params", str(pfile),
                       "--count", "3", "--seed", "5", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_params_file_without_a_family(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"beta": 1, "m": 1, "n": 1, "nu": 1.0}))
        out = tmp_path / "o.jsonl"
        code = run_cli("sample", "--dist", "matric-t", "--params", str(pfile),
                       "--count", "3", "--seed", "5", "--out", str(out))
        assert code == 0


# sample family -> the keys without a default, given once as flags and once
# as a minimal params file
_MINIMAL_RECORDS = [
    ("matric-t", {"m": 2, "n": 3, "nu": 9.0}),
    ("matrix-mt", {"m": 2, "n": 3, "nu": 3.5}),
    ("wishart", {"m": 2, "nu": 9.0}),
    ("gamma", {"nu": 2.5}),
    ("gaussian", {"m": 2, "n": 3}),
    ("beta2-matric", {"m": 2, "n": 3, "nu": 9.0}),
    ("beta2-matric", {"m": 3, "n": 2, "nu": 9.0}),
    ("elliptical-t", {"m": 2, "n": 3, "nu": 4}),
]


class TestParamsFiles:
    @pytest.mark.parametrize("family,keys", _MINIMAL_RECORDS,
                             ids=["matric-t", "matrix-mt", "wishart", "gamma",
                                  "gaussian", "beta2-matric-wide", "beta2-matric-tall",
                                  "elliptical-t"])
    def test_flags_and_a_minimal_params_file_agree(self, tmp_path, family, keys):
        from rdmt.cli import _build_params, _build_parser

        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(dict(keys, beta=2)))
        flags = ["--beta", "2"] + [a for k, v in keys.items() for a in (f"--{k}", str(v))]
        made = []
        for source in (flags, ["--params", str(pfile)]):
            argv = ["sample", "--dist", family, "--count", "5", "--seed", "3"] + source
            record = _build_params(_build_parser().parse_args(argv), family)
            out = tmp_path / f"{len(made)}.jsonl"
            assert run_cli(*argv, "--out", str(out)) == 0
            made.append((record, out.read_bytes()))
        assert made[0] == made[1]

    def _refusal(self, tmp_path, capsys, content, dist="matric-t"):
        pfile, out = tmp_path / "p.json", tmp_path / "o.jsonl"
        pfile.write_text(content)
        code = run_cli("sample", "--dist", dist, "--params", str(pfile),
                       "--count", "2", "--seed", "1", "--out", str(out))
        assert code == 2 and not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("record,message", [
        pytest.param({"beta": 1, "m": 1, "n": 1},
                     "matric-t params key 'nu': missing", id="no-nu"),
        pytest.param({"m": 1, "n": 1, "nu": 3.0},
                     "matric-t params key 'beta': missing", id="no-beta"),
        pytest.param({"beta": 1, "m": 1, "n": 2, "nu": 3.0,
                      "Sigma": {"beta": 1, "rows": 2, "cols": 2,
                                "data": [[[1.0], [2.0]], [[2.0], [1.0]]]}},
                     "matric-t params key 'Sigma': matrix is not positive definite",
                     id="non-pd-Sigma"),
        pytest.param({"beta": 1, "m": 1, "n": 1, "nu": 3.0, "Sigma": [[1]]},
                     "matric-t params key 'Sigma': ", id="Sigma-not-a-schema-dict"),
        pytest.param({"beta": 3, "m": 1, "n": 1, "nu": 3.0},
                     "matric-t params key 'beta': ", id="beta-3"),
    ])
    def test_a_bad_key_exits_2_naming_it(self, tmp_path, capsys, record, message):
        assert message in self._refusal(tmp_path, capsys, json.dumps(record))

    @pytest.mark.parametrize("command", ["sample", "density"])
    @pytest.mark.parametrize("text,value", [("1.5", "1.5"), ("true", "True"),
                                            ("Infinity", "inf")])
    def test_an_integer_field_takes_no_other_number(self, tmp_path, capsys, command,
                                                     text, value):
        # int(1.5) would draw 1 x n matrices, int(True) too, and int(inf)
        # would be a runtime error
        pfile = tmp_path / "p.json"
        pfile.write_text(f'{{"beta": 1, "m": {text}, "n": 2, "nu": 9.0}}')
        argv, out = _record_command(tmp_path, "matric-t", ["--params", str(pfile)],
                                    command)
        assert run_cli(*argv) == 2
        assert (f"error: matric-t params key 'm': must be an integer, got {value}\n"
                == capsys.readouterr().err)
        assert not out.exists()

    def test_a_mixture_entry_takes_no_bool(self, tmp_path, capsys):
        record = {"beta": 1, "m": 2, "n": 3, "nu": 4, "weights": [True],
                  "scales": [1.0]}
        err = self._refusal(tmp_path, capsys, json.dumps(record), "elliptical-t")
        assert "elliptical-t params key 'weights': must be a list of numbers" in err

    def test_a_file_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        err = self._refusal(tmp_path, capsys, json.dumps([{"beta": 1}]))
        assert "matric-t params must be a JSON object, not list" in err

    def test_a_wrong_orientation_exits_2_naming_it(self, tmp_path, capsys):
        record = {"beta": 1, "m": 3, "n": 2, "nu": 9.0, "orientation": "gram"}
        err = self._refusal(tmp_path, capsys, json.dumps(record), "beta2-matric")
        assert "beta2 params key 'orientation' is 'gram'" in err
        assert "'cogram'" in err


class TestDensity:
    def _density_values(self, path):
        return [float(l) for l in path.read_text().splitlines()
                if not l.startswith("#")]

    def test_scalar_cauchy_point(self, tmp_path):
        pts = tmp_path / "pts.jsonl"
        pts.write_text(json.dumps({"beta": 1, "rows": 1, "cols": 1,
                                   "data": [[[0.0]]]}) + "\n")
        out = tmp_path / "d.txt"
        code = run_cli("density", "--dist", "matric-t", "--beta", "1", "--m", "1",
                       "--n", "1", "--nu", "1", "--points", str(pts),
                       "--out", str(out))
        assert code == 0
        val = self._density_values(out)[0]
        assert math.isclose(val, -math.log(math.pi), abs_tol=1e-9)

    def test_primal_dual_agree(self, tmp_path):
        pts = tmp_path / "pts.jsonl"
        run_cli("sample", "--dist", "matric-t", "--beta", "2", "--m", "2",
                "--n", "3", "--nu", "5", "--count", "20", "--seed", "9",
                "--out", str(pts))
        outs = []
        for form in ("primal", "dual"):
            out = tmp_path / f"{form}.txt"
            code = run_cli("density", "--dist", "matric-t", "--beta", "2",
                           "--m", "2", "--n", "3", "--nu", "5", "--points",
                           str(pts), "--form", form, "--out", str(out))
            assert code == 0
            outs.append(self._density_values(out))
        gaps = [abs(a - b) for a, b in zip(*outs)]
        assert max(gaps) < 1e-9

    @pytest.mark.parametrize("dist", ["matrix-mt", "beta2-matric"])
    def test_params_file_of_another_family_exit_2(self, tmp_path, capsys, dist):
        # loaded as the wrong record, a matric-t file would drop its Xi and Sigma
        pfile, pts, out = (tmp_path / name for name in ("p.json", "pts.jsonl", "d.txt"))
        pfile.write_text(json.dumps({"family": "matric-t", "beta": 1, "m": 1, "n": 1,
                                     "nu": 3.0, "Xi": {"beta": 1, "rows": 1, "cols": 1,
                                                       "data": [[[2.0]]]}}))
        pts.write_text(json.dumps({"beta": 1, "rows": 1, "cols": 1,
                                   "data": [[[0.5]]]}) + "\n")
        code = run_cli("density", "--dist", dist, "--params", str(pfile),
                       "--points", str(pts), "--out", str(out))
        assert code == 2
        assert "params record of family 'matric-t'" in capsys.readouterr().err
        assert not out.exists()

    def test_params_file_with_an_unknown_key_exit_2(self, tmp_path, capsys):
        # without a family, a matric-t file with a misspelt key would load as
        # the standard matrix-mt law, its Xi and Sigmaa dropped
        pfile, pts, out = (tmp_path / name for name in ("p.json", "pts.jsonl", "d.txt"))
        pfile.write_text(json.dumps({"beta": 1, "m": 1, "n": 1, "nu": 3.0,
                                     "Xi": {"beta": 1, "rows": 1, "cols": 1,
                                            "data": [[[2.0]]]}, "Sigmaa": 5}))
        pts.write_text(json.dumps({"beta": 1, "rows": 1, "cols": 1,
                                   "data": [[[0.5]]]}) + "\n")
        code = run_cli("density", "--dist", "matrix-mt", "--params", str(pfile),
                       "--points", str(pts), "--out", str(out))
        assert code == 2
        assert "unknown matrix-mt params key 'Sigmaa'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_points_exit_2(self, tmp_path, capsys):
        pts = tmp_path / "bad.jsonl"
        pts.write_text("this is not json\n")
        code = run_cli("density", "--dist", "matric-t", "--beta", "1", "--m", "1",
                       "--n", "1", "--nu", "1", "--points", str(pts))
        assert code == 2


    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_point_names_its_line(self, tmp_path, capsys, bad):
        good = '{"beta": 1, "rows": 1, "cols": 1, "data": [[[0.5]]]}'
        pts = tmp_path / "pts.jsonl"
        pts.write_text(good + "\n\n" + good.replace("0.5", bad) + "\n")
        out = tmp_path / "d.txt"
        code = run_cli("density", "--dist", "matric-t", "--beta", "1", "--m", "1",
                       "--n", "1", "--nu", "1", "--points", str(pts),
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "finite" in err
        assert not out.exists()


    def _run_density(self, tmp_path, lines, *flags):
        pts, out = tmp_path / "pts.jsonl", tmp_path / "d.txt"
        pts.write_text("".join(line + "\n" for line in lines))
        code = run_cli("density", *flags, "--points", str(pts), "--out", str(out))
        return code, out

    def test_empty_points_file_writes_the_header_alone(self, tmp_path):
        code, out = self._run_density(tmp_path, [], "--dist", "matric-t",
                                      "--beta", "1", "--m", "1", "--n", "1",
                                      "--nu", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("# ")

    def test_shape_mismatch_names_its_line(self, tmp_path, capsys):
        row = {"beta": 2, "rows": 1, "cols": 2, "data": [[[0.5, 0.0], [1.0, -1.0]]]}
        one = {"beta": 2, "rows": 1, "cols": 1, "data": [[[0.5, 0.0]]]}
        flags = ["--dist", "matrix-mt", "--beta", "2", "--m", "1", "--n", "2",
                 "--nu", "3"]
        lines = [json.dumps(row), "", json.dumps(row), json.dumps(one)]
        code, out = self._run_density(tmp_path, lines, *flags)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "line 4" in err and "mismatch" in err
        # every point of the wrong shape: the first one is named
        code, out = self._run_density(tmp_path, [json.dumps(one)] * 2, *flags)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "line 1" in err and "mismatch" in err

    def test_non_hermitian_point_names_its_line(self, tmp_path, capsys):
        good = {"beta": 1, "rows": 2, "cols": 2, "data": [[[2.0], [0.5]], [[0.5], [1.0]]]}
        skew = {"beta": 1, "rows": 2, "cols": 2, "data": [[[2.0], [0.5]], [[0.0], [1.0]]]}
        lines = [json.dumps(good), json.dumps(good), json.dumps(skew), json.dumps(good)]
        code, out = self._run_density(tmp_path, lines, "--dist", "beta2-matric",
                                      "--beta", "1", "--m", "2", "--n", "3",
                                      "--nu", "4")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "--points line 3:" in err and "Hermitian" in err

    def test_one_density_call_per_command(self, tmp_path, monkeypatch):
        import rdmt.distributions

        calls = []
        row = rdmt.distributions._FAMILIES["beta2-mv"]

        def counted(params, points, **kw):
            calls.append(points.shape)
            return row.density(params, points, **kw)

        monkeypatch.setitem(rdmt.distributions._FAMILIES, "beta2-mv",
                            row._replace(density=counted))
        point = {"beta": 2, "rows": 1, "cols": 1, "data": [[[0.75, 0.0]]]}
        code, out = self._run_density(tmp_path, [json.dumps(point)] * 7, "--dist",
                                      "beta2-mv", "--beta", "2", "--m", "1",
                                      "--n", "2", "--nu", "3")
        assert code == 0
        assert calls == [(7, 1, 1, 2)]
        assert len(self._density_values(out)) == 7

    @pytest.mark.parametrize("beta", [1, 4])
    def test_beta2_nu_below_the_matricvariate_bound(self, tmp_path, capsys, beta):
        # at 2x3, nu = 0.5: the mv law writes the library's values, the
        # matricvariate law exits 2 naming nu and its bound m - 1
        from rdmt.algebra import AlgebraTag, HermitianPD
        from rdmt.distributions import BetaIIParams, logpdf_beta2_multivariate

        tag = AlgebraTag(beta)
        points = [[[2.0, 0.3], [0.3, 1.0]], [[0.5, 0.1], [0.1, 0.25]]]
        lines = [json.dumps({"beta": beta, "rows": 2, "cols": 2,
                             "data": [[[x] + [0.0] * (beta - 1) for x in row]
                                      for row in p]}) for p in points]
        flags = ["--beta", str(beta), "--m", "2", "--n", "3", "--nu", "0.5"]
        code, out = self._run_density(tmp_path, lines, "--dist", "beta2-mv", *flags)
        assert code == 0
        params = BetaIIParams(tag, 2, 3, 0.5)
        want = [logpdf_beta2_multivariate(params, HermitianPD.from_real(tag, p))
                for p in points]
        got = self._density_values(out)
        assert all(math.isfinite(v) for v in got)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        out.unlink()
        code, out = self._run_density(tmp_path, lines, "--dist", "beta2-matric", *flags)
        assert code == 2 and not out.exists()
        # the refusal is the record's, so it names no point
        assert capsys.readouterr().err == ("error: the matricvariate beta II law "
                                           "requires nu > m - 1 = 1, got nu = 0.5\n")

    @pytest.mark.parametrize("beta", [1, 4])
    def test_an_empty_points_file_still_refuses_the_record(self, tmp_path, capsys, beta):
        # no point to evaluate, and still the refusal that one point gives
        flags = ["--dist", "beta2-matric", "--beta", str(beta), "--m", "2", "--n", "3",
                 "--nu", "0.5"]
        point = json.dumps({"beta": beta, "rows": 2, "cols": 2,
                            "data": [[[1.0 if i == j else 0.0] + [0.0] * (beta - 1)
                                      for j in range(2)] for i in range(2)]})
        errors = []
        for lines in ([point], []):
            code, out = self._run_density(tmp_path, lines, *flags)
            assert code == 2 and not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0] == ("error: the matricvariate beta II law "
                                          "requires nu > m - 1 = 1, got nu = 0.5\n")

    @pytest.mark.parametrize("flags,rows,cols", [
        (["--dist", "matric-t", "--beta", "4", "--m", "2", "--n", "3", "--nu", "9",
          "--form", "dual"], 2, 3),
        (["--dist", "matrix-mt", "--beta", "2", "--m", "3", "--n", "2", "--nu", "3.5",
          "--rho", "0.7"], 3, 2),
        (["--dist", "beta2-matric", "--beta", "4", "--m", "3", "--n", "2", "--nu", "9"],
         2, 2),
        (["--dist", "beta2-mv", "--beta", "1", "--m", "2", "--n", "3", "--nu", "0.5"],
         2, 2),
        (["--dist", "matric-t", "--beta", "8", "--m", "1", "--n", "1", "--nu", "3"], 1, 1),
    ])
    def test_an_empty_points_file_of_a_legal_record_writes_its_header(
            self, tmp_path, flags, rows, cols):
        beta = int(flags[flags.index("--beta") + 1])
        point = json.dumps({"beta": beta, "rows": rows, "cols": cols,
                            "data": [[[1.0 if i == j else 0.0] + [0.0] * (beta - 1)
                                      for j in range(cols)] for i in range(rows)]})
        code, out = self._run_density(tmp_path, [point], *flags)
        assert code == 0
        header = out.read_text().splitlines(keepends=True)[0]
        code, out = self._run_density(tmp_path, [], *flags)
        assert code == 0 and out.read_text() == header


def _schema(beta, rows, cols, value=0.5):
    return {"beta": beta, "rows": rows, "cols": cols,
            "data": [[[value] * beta] * cols] * rows}


# a malformed JSON matrix -> the reader's message, which names the key
MALFORMED_MATRICES = {
    "float-dims": (dict(_schema(2, 2, 2), beta=2.7, rows=2.9, cols="2"),
                   "schema key 'beta': must be a positive integer, got 2.7"),
    "beta-true": (dict(_schema(1, 2, 2), beta=True),
                  "schema key 'beta': must be a positive integer, got True"),
    "rows-string": (dict(_schema(1, 2, 2), rows="2"),
                    "schema key 'rows': must be a positive integer, got '2'"),
    "coefficient-true": (dict(_schema(1, 2, 2), data=[[[2.0], [0.0]], [[0.0], [True]]]),
                         "schema key 'data': coefficients must be numbers, got True"),
    "coefficient-string": (dict(_schema(1, 2, 2), data=[[["1.5"], [0.0]], [[0.0], [1.0]]]),
                           "schema key 'data': coefficients must be numbers, got '1.5'"),
    "unknown-key": (dict(_schema(1, 2, 2), note=1), "unknown schema key 'note'"),
    "no-data": ({"beta": 1, "rows": 2, "cols": 2}, "schema key 'data': missing"),
    "list": ([1, 2, 2], "a schema matrix must be a JSON object, not list"),
    "null": (None, "a schema matrix must be a JSON object, not NoneType"),
}


class TestMalformedMatrices:
    """Every JSON matrix goes through one reader, which refuses a malformed
    one naming its key; the command names the points line or the params
    key, exits 2 and writes nothing."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
    def test_a_points_line(self, tmp_path, capsys, case):
        bad, message = MALFORMED_MATRICES[case]
        pts, out = tmp_path / "pts.jsonl", tmp_path / "d.txt"
        good = dict(_schema(1, 2, 2, 0.0), data=[[[2.0], [0.5]], [[0.5], [1.0]]])
        pts.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        code = run_cli("density", "--dist", "beta2-mv", "--beta", "1", "--m", "2",
                       "--n", "3", "--nu", "4", "--points", str(pts), "--out", str(out))
        assert (code, capsys.readouterr().err) == (2, f"error: --points line 2: {message}\n")
        assert not out.exists()

    # a null Xi is the identity, the field's default
    @pytest.mark.parametrize("case", sorted(set(MALFORMED_MATRICES) - {"null"}))
    @pytest.mark.parametrize("command", ["density", "sample"])
    def test_a_params_key(self, tmp_path, capsys, case, command):
        bad, message = MALFORMED_MATRICES[case]
        pfile, pts, out = (tmp_path / name for name in ("p.json", "pts.jsonl", "x.txt"))
        pfile.write_text(json.dumps({"beta": 1, "m": 2, "n": 3, "nu": 9.0, "Xi": bad}))
        pts.write_text(json.dumps(_schema(1, 2, 3)) + "\n")
        inputs = (["--points", str(pts)] if command == "density"
                  else ["--count", "2", "--seed", "1"])
        code = run_cli(command, "--dist", "matric-t", "--params", str(pfile), *inputs,
                       "--out", str(out))
        assert (code, capsys.readouterr().err) == (
            2, f"error: matric-t params key 'Xi': {message}\n")
        assert not out.exists()


def _point_text(last="1.0", rows="2", beta="1"):
    """One 2x2 real schema line whose last coefficient's text is `last`."""
    return ('{"beta": %s, "rows": %s, "cols": 2, "data": [[[2.0], [0.5]], [[0.5], [%s]]]}'
            % (beta, rows, last))


_GOOD = _point_text()
_BLOCK = 1024    # the reader's `_BLOCK_LINES`
_LONG = [_point_text(repr(0.25 * k)) for k in range(_BLOCK + 40)]

# a --points file's text -> its case; each is read as the per-line reader
# reads it (`_per_line_points`)
READER_CASES = {
    "nan": f"{_GOOD}\n{_point_text('NaN')}\n",
    "infinity": f"{_GOOD}\n{_point_text('-Infinity')}\n",
    "overflow": f"{_GOOD}\n{_point_text('1e400')}\n",
    "null": f"{_GOOD}\n{_point_text('null')}\n",
    "ragged": f'{_GOOD}\n{_GOOD.replace("[[0.5], [1.0]]", "[[0.5]]")}\n',
    "one-level-deeper": f'{_GOOD}\n{_GOOD.replace("[2.0]", "[[2.0]]")}\n',
    "string": _GOOD + "\n" + _point_text('"1.0"') + "\n",
    "false": f"{_GOOD}\n{_point_text('false')}\n{_GOOD}\n",
    "shape": f'{_GOOD}\n{_GOOD}\n{{"beta": 1, "rows": 1, "cols": 1, "data": [[[1.0]]]}}\n',
    "beta-true": f"{_GOOD}\n{_point_text(beta='true')}\n",
    "rows-string": _GOOD + "\n" + _point_text(rows='"2"') + "\n",
    "rows-3": f"{_GOOD}\n{_point_text(rows='3')}\n",
    "beta-2": f"{_GOOD}\n{_point_text(beta='2')}\n",
    "bad-first-line": f"{_point_text('true')}\n{_GOOD}\n",
    "json-first-line": "{\n" + f"{_GOOD}\n",
    "schema-then-json": f"{_GOOD}\n{_point_text('null')}\n{{not json\n{_GOOD}\n",
    "json-then-schema": f"{_GOOD}\n[1,\n{_point_text('null')}\n",
    "run-info-true": '{"record": "run-info", "params": {"flag": true}}\n'
                     f"{_GOOD}\n{_GOOD}\n",
    "escaped-key": _GOOD + "\n" + _GOOD.replace('"beta', '"\\u0062eta') + "\n",
    "crlf": f"{_GOOD}\r\n\r\n{_GOOD}\r\n{_point_text('NaN')}\r\n",
    "crlf-valid": f"{_GOOD}\r\n{_point_text('3.5')}\r\n",
    "form-feed": f"{_GOOD}\n\x0c\n{_point_text('null')}\n",
    "blank-and-spaces": f"  {_GOOD} \n\n\t\n{_point_text('7')}\n",
    "integral-float-dims": f"{_GOOD}\n{_point_text(rows='2.0')}\n",
    "int-above-2^63": f"{_GOOD}\n{_point_text(str(2**64 + 1))}\n",
    "empty": "",
    "run-info-only": '{"record": "run-info"}\n',
    "long-valid": "".join(line + "\n" for line in _LONG),
    "long-second-block-null": "".join(line + "\n" for line in _LONG[:_BLOCK + 3])
                              + _point_text("null") + "\n" + _GOOD + "\n",
    "long-second-block-shape": "".join(line + "\n" for line in _LONG[:_BLOCK + 7])
                               + '{"beta": 1, "rows": 1, "cols": 1, "data": [[[1.0]]]}\n',
    "long-second-block-json": "".join(line + "\n" for line in _LONG[:_BLOCK + 1])
                              + "{]\n" + _point_text("null") + "\n",
}


def _per_line_points(path):
    """(stack, linenos) of a --points file, or the message of its first bad
    line: each line read on its own, by `_schema_data`, at the first point's
    shape, the one-line-at-a-time reader that the block reader must match."""
    from rdmt.algebra import _schema_data

    points, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict) and obj.get("record") == "run-info":
                    continue
                _, data = _schema_data(obj)
                if points and data.shape != points[0].shape:
                    raise ValueError(
                        f"point shape/algebra mismatch: (rows, cols, beta) = "
                        f"{data.shape}, line {linenos[0]} has {points[0].shape}")
            except ValueError as exc:
                return f"error: --points line {lineno}: {exc}\n"
            points.append(data)
            linenos.append(lineno)
    return (np.stack(points) if points else None), linenos


class TestPointsReader:
    """The reader checks and stacks its lines a block at a time, and reads
    every file as the per-line reader does: the same stack and line numbers
    for a good file, the same exit code and message for a bad one."""

    DENSITY = ("density", "--dist", "beta2-mv", "--beta", "1", "--m", "2", "--n", "3",
               "--nu", "4")

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_a_file_reads_as_line_by_line(self, tmp_path, capsys, case):
        from rdmt.cli import _read_points

        pts, out = tmp_path / "pts.jsonl", tmp_path / "d.txt"
        pts.write_bytes(READER_CASES[case].encode())
        want = _per_line_points(pts)
        if isinstance(want, str):
            code = run_cli(*self.DENSITY, "--points", str(pts), "--out", str(out))
            assert (code, capsys.readouterr().err) == (2, want)
            assert not out.exists()
        else:
            stack, linenos = _read_points(str(pts))
            assert linenos == want[1]
            assert (stack is None and want[0] is None
                    or stack.shape == want[0].shape and _bits(stack) == _bits(want[0]))

    @pytest.mark.parametrize("case,message", [
        ("nan", "error: --points line 2: schema key 'data': must be finite (no NaN or inf)\n"),
        ("null", "error: --points line 2: schema key 'data': coefficients must be "
                 "numbers, got None\n"),
        ("schema-then-json", "error: --points line 2: schema key 'data': coefficients "
                             "must be numbers, got None\n"),
        ("json-then-schema", "error: --points line 2: Expecting value: line 1 column 4 "
                             "(char 3)\n"),
        ("crlf", "error: --points line 4: schema key 'data': must be finite "
                 "(no NaN or inf)\n"),
        ("form-feed", "error: --points line 3: schema key 'data': coefficients must be "
                      "numbers, got None\n"),
        ("long-second-block-null", f"error: --points line {_BLOCK + 4}: schema key 'data': "
                                   "coefficients must be numbers, got None\n"),
        ("long-second-block-shape", f"error: --points line {_BLOCK + 8}: point "
                                    "shape/algebra mismatch: (rows, cols, beta) = "
                                    "(1, 1, 1), line 1 has (2, 2, 1)\n"),
    ])
    def test_the_first_bad_line_is_named(self, tmp_path, capsys, case, message):
        pts = tmp_path / "pts.jsonl"
        pts.write_bytes(READER_CASES[case].encode())
        code = run_cli(*self.DENSITY, "--points", str(pts), "--out", str(tmp_path / "d"))
        assert (code, capsys.readouterr().err) == (2, message)

    @pytest.mark.parametrize("case", ["long-valid", "schema-then-json", "crlf"])
    def test_stdin_reads_as_the_file(self, tmp_path, capsys, monkeypatch, case):
        import io

        pts = tmp_path / "pts.jsonl"
        pts.write_bytes(READER_CASES[case].encode())
        outs, results = (tmp_path / "file.txt", tmp_path / "stdin.txt"), []
        for points, out in zip((str(pts), "-"), outs):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(pts.read_bytes())))
            code = run_cli(*self.DENSITY, "--points", points, "--out", str(out))
            results.append((code, capsys.readouterr().err,
                            out.read_text() if out.exists() else None))
        assert results[0] == results[1]
        assert results[0][0] == (0 if case == "long-valid" else 2)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestDensityBlocks:
    """`rdmt density` evaluates its stack `_BLOCK_ROWS` points per call.  A
    point gives the bits it has in any stack, so the values are the whole
    stack's, and an error names the line of the point at fault, its index
    counted over the whole stack."""

    @staticmethod
    def _cone_points(beta, count):
        # beta II points: most in the cone at ordinary sizes, every 5th
        # scaled by 2^400 and every 7th by 2^-400, which the power-of-two
        # rule scales and the others skip
        from rdmt.algebra import _gram_raw

        gen = np.random.default_rng(17)
        f = _gram_raw(gen.normal(size=(count, 2, 3, beta)))
        f[::5] *= 2.0**400
        f[3::7] *= 2.0**-400
        return f

    @pytest.mark.parametrize("dist", ["beta2-matric", "beta2-mv"])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_blocks_give_the_whole_stack_bits(self, tmp_path, monkeypatch, dist, beta):
        import rdmt.cli
        from rdmt.algebra import AlgebraTag

        points = self._cone_points(beta, 23)
        pts, out = tmp_path / "pts.jsonl", tmp_path / "d.txt"
        pts.write_text("".join(json.dumps({"beta": beta, "rows": 2, "cols": 2,
                                           "data": p.tolist()}) + "\n" for p in points))
        row = _FAMILIES[dist]
        want = row.density(row.record(AlgebraTag(beta), 2, 3, 9.5), points)
        assert np.isfinite(want).all()
        texts = []
        for block in (4, 5, 4096):
            monkeypatch.setattr(rdmt.cli, "_BLOCK_ROWS", block)
            assert run_cli("density", "--dist", dist, "--beta", str(beta), "--m", "2",
                           "--n", "3", "--nu", "9.5", "--points", str(pts),
                           "--out", str(out)) == 0
            texts.append(out.read_text())
            values = np.array([float(v) for v in texts[-1].splitlines()[1:]])
            assert _bits(values) == _bits(want)
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("block", [3, 4096])
    def test_an_error_names_its_line_and_whole_stack_index(self, tmp_path, capsys,
                                                          monkeypatch, block):
        import rdmt.cli

        monkeypatch.setattr(rdmt.cli, "_BLOCK_ROWS", block)
        good = {"beta": 1, "rows": 2, "cols": 2, "data": [[[2.0], [0.5]], [[0.5], [1.0]]]}
        skew = {"beta": 1, "rows": 2, "cols": 2, "data": [[[2.0], [0.5]], [[0.0], [1.0]]]}
        # line 9 is the stack's index 6: the run-info and blank lines count
        # as lines, not as points
        lines = ['{"record": "run-info"}'] + [json.dumps(good)] * 6 + [""] \
            + [json.dumps(skew)] + [json.dumps(good)] * 3
        pts = tmp_path / "pts.jsonl"
        pts.write_text("".join(line + "\n" for line in lines))
        code = run_cli("density", "--dist", "beta2-matric", "--beta", "1", "--m", "2",
                       "--n", "3", "--nu", "4", "--points", str(pts),
                       "--out", str(tmp_path / "d.txt"))
        assert (code, capsys.readouterr().err) == (
            2, "error: --points line 9: the evaluation point at index 6 is not "
               "Hermitian: max |A - A*| coefficient 5.000e-01\n")


class TestRho:
    @pytest.mark.parametrize("dist", ["gamma", "matrix-mt"])
    @pytest.mark.parametrize("rho", ["0", "-1.5"])
    def test_non_positive_rho_is_a_config_error(self, tmp_path, capsys, dist, rho):
        out = tmp_path / "s.jsonl"
        shape = ["--m", "1", "--n", "1"] if dist == "matrix-mt" else []
        code = run_cli("sample", "--dist", dist, "--beta", "1", *shape,
                       "--nu", "2", "--rho", rho, "--count", "2", "--seed", "1",
                       "--out", str(out))
        assert code == 2
        assert "rho > 0" in capsys.readouterr().err

    def test_omitted_rho_is_one(self, tmp_path):
        out = tmp_path / "s.jsonl"
        code = run_cli("sample", "--dist", "gamma", "--beta", "1", "--nu", "2",
                       "--count", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["params"]["rho"] == 1.0

    @pytest.mark.parametrize("kind", ["singular", "eigen"])
    def test_matrix_mt_grid_follows_rho(self, tmp_path, kind):
        # For 1x1 real T the singular value d = |t| has density 2 f(d), and
        # the eigenvalue l = t^2 of T T* has density f(sqrt(l)) / sqrt(l).
        from rdmt.algebra import AlgebraTag, DivMatrix
        from rdmt.distributions import MatrixMTParams, logpdf_matrix_mt

        grid = tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", "matrix-mt", "--beta", "1", "--m", "1",
                       "--n", "1", "--nu", "3", "--rho", "4", "--kind", kind,
                       "--count", "500", "--seed", "3", "--out", str(tmp_path / "s.csv"),
                       "--grid", str(grid))
        assert code == 0
        params = MatrixMTParams(AlgebraTag.REAL, 1, 1, 3.0, 4.0)
        rows = [line.split(",") for line in grid.read_text().splitlines()[2:]]
        assert len(rows) == 256
        for v, got in ((float(a), float(b)) for a, b in rows):
            if kind == "singular":
                want = math.log(2.0) + logpdf_matrix_mt(
                    params, DivMatrix.from_real(AlgebraTag.REAL, [[v]]))
            else:
                want = logpdf_matrix_mt(
                    params, DivMatrix.from_real(AlgebraTag.REAL, [[math.sqrt(v)]])
                ) - 0.5 * math.log(v)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestSpectrum:
    def test_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("spectrum", "--dist", "matric-t", "--beta", "1", "--m",
                       "2", "--n", "3", "--nu", "4", "--count", "50",
                       "--seed", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "v1,v2"
        assert len(lines) == 52

    def test_grid_overlay(self, tmp_path):
        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", "matric-t", "--beta", "1", "--m",
                       "1", "--n", "2", "--nu", "3", "--count", "200",
                       "--seed", "6", "--out", str(out), "--grid", str(grid))
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[1] == "v1,logpdf"
        assert len(lines) == 258

    def test_cogram_grid_uses_swapped_law(self, tmp_path):
        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", "beta2-matric", "--beta", "1",
                       "--m", "2", "--n", "1", "--nu", "3", "--count", "100",
                       "--seed", "8", "--out", str(out), "--grid", str(grid))
        assert code == 0
        lines = grid.read_text().splitlines()
        # scalar cogram law here is (1+x)^-2: check one grid row numerically
        x, logpdf = (float(v) for v in lines[2].split(","))
        assert math.isclose(logpdf, -2.0 * math.log1p(x), abs_tol=1e-9)

    @pytest.mark.parametrize("n,values", [(1, 1), (2, 2)])
    def test_tall_cogram_grid_is_written(self, tmp_path, n, values):
        # a cogram draw is n x n, so m = 3 still has a spectrum of n values,
        # under the gram law of the n x 3 transpose at nu + n - 3
        from rdmt.algebra import AlgebraTag
        from rdmt.spectral import log_joint_eig_beta2

        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", "beta2-matric", "--beta", "1",
                       "--m", "3", "--n", str(n), "--nu", "5", "--count", "50",
                       "--seed", "1", "--out", str(out), "--grid", str(grid))
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[1] == ",".join([f"v{i + 1}" for i in range(values)] + ["logpdf"])
        assert len(lines) == 2 + (256 if values == 1 else 64 * 63 // 2)
        *v, logpdf = (float(x) for x in lines[-1].split(","))
        want = log_joint_eig_beta2(AlgebraTag.REAL, n, 3, 5.0 + n - 3, v)
        assert math.isclose(logpdf, want, rel_tol=1e-13, abs_tol=1e-13)

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2)])
    def test_tall_matric_t_grid_is_the_wide_law(self, tmp_path, beta, m, n):
        # the singular values of an m x n T, m > n, follow its n x m
        # transpose at nu + n - m
        from rdmt.algebra import AlgebraTag
        from rdmt.spectral import log_joint_sv_matric_t

        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", "matric-t", "--beta", str(beta),
                       "--m", str(m), "--n", str(n), "--nu", "9", "--count", "50",
                       "--seed", "2", "--out", str(out), "--grid", str(grid))
        assert code == 0
        for line in grid.read_text().splitlines()[2::97]:
            *v, logpdf = (float(x) for x in line.split(","))
            want = log_joint_sv_matric_t(AlgebraTag(beta), n, m, 9.0 + n - m, v)
            assert math.isclose(logpdf, want, rel_tol=1e-13, abs_tol=1e-13)

    @pytest.mark.parametrize("family,wide_nu", [("matric-t", 5.0 + 2 - 3),
                                                 ("matrix-mt", 5.0)])
    def test_tall_eigen_is_the_wide_law(self, tmp_path, family, wide_nu):
        # a tall T's eigen spectrum is that of its n x n gram T* T: the
        # squared singular values, under the law of the wide n x m transpose
        # (at nu + n - m for the determinant kernel, at nu for the trace's)
        from rdmt.algebra import AlgebraTag

        flags = ("spectrum", "--dist", family, "--beta", "2", "--m", "3", "--n", "2",
                 "--nu", "5", "--count", "60", "--seed", "5")
        sv, eig, grid = tmp_path / "s.csv", tmp_path / "e.csv", tmp_path / "g.csv"
        assert run_cli(*flags, "--out", str(sv)) == 0
        assert run_cli(*flags, "--kind", "eigen", "--out", str(eig),
                       "--grid", str(grid)) == 0

        def rows(path):
            return np.array([[float(v) for v in line.split(",")]
                             for line in path.read_text().splitlines()[2:]])

        np.testing.assert_allclose(rows(eig), rows(sv) ** 2, rtol=1e-12)
        overlay = _FAMILIES[family].overlays["eigen"]
        table = rows(grid)
        want = overlay(AlgebraTag.COMPLEX, 2, 3, wide_nu, table[:, :2])
        np.testing.assert_allclose(table[:, 2], want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (1, 2)])
    def test_gaussian_eigen_is_the_gram_spectrum(self, tmp_path, m, n):
        from rdmt.algebra import AlgebraTag
        from rdmt.distributions import GaussianParams, RngStream, sample_gaussian
        from rdmt.spectral import singular_values_batch

        out = tmp_path / "e.csv"
        code = run_cli("spectrum", "--dist", "gaussian", "--beta", "2", "--m", str(m),
                       "--n", str(n), "--kind", "eigen", "--count", "40", "--seed", "6",
                       "--out", str(out))
        assert code == 0
        got = np.array([[float(v) for v in l.split(",")]
                        for l in out.read_text().splitlines()[2:]])
        draws = sample_gaussian(RngStream(6, 0), GaussianParams(AlgebraTag.COMPLEX, m, n),
                                size=40)
        want = singular_values_batch(AlgebraTag.COMPLEX, draws) ** 2
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dist,flags,message", [
        ("gaussian", ["--m", "1", "--n", "2"], "no analytic overlay"),
        ("wishart", ["--m", "2", "--nu", "5"], "no analytic overlay"),
        ("elliptical-t", ["--m", "1", "--n", "2", "--nu", "3", "--kind", "eigen"],
         "no analytic overlay"),
        ("matric-t", ["--m", "3", "--n", "4", "--nu", "6"], "m <= 2"),
        ("matrix-mt", ["--m", "4", "--n", "3", "--nu", "6"], "m <= 2"),
        ("beta2-matric", ["--m", "4", "--n", "3", "--nu", "6"], "m <= 2"),
    ])
    def test_grid_config_error_leaves_no_output(self, tmp_path, capsys, dist, flags,
                                                message):
        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", dist, "--beta", "1", *flags, "--count",
                       "20", "--seed", "2", "--out", str(out), "--grid", str(grid))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not grid.exists()

    @pytest.mark.parametrize("kind", ["singular", "eigen"])
    def test_octonion_scalar_spectrum(self, tmp_path, kind):
        # 1x1 octonion draws are legal, so are their spectra: |t| and |t|^2
        from rdmt.algebra import AlgebraTag
        from rdmt.distributions import MatricTParams, RngStream, sample_matric_t

        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", "matric-t", "--beta", "8", "--m", "1",
                       "--n", "1", "--nu", "3", "--kind", kind, "--count", "30",
                       "--seed", "4", "--out", str(out), "--grid", str(grid))
        assert code == 0
        got = np.array([float(l) for l in out.read_text().splitlines()[2:]])
        t = sample_matric_t(RngStream(4, 0), MatricTParams(AlgebraTag.OCTONION, 1, 1, 3.0),
                            size=30)
        want = np.linalg.norm(t[:, 0, 0], axis=-1) ** (1 if kind == "singular" else 2)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert len(grid.read_text().splitlines()) == 2 + 256

    def test_eigen_kind_on_wishart(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli("spectrum", "--dist", "wishart", "--beta", "2", "--m",
                       "2", "--nu", "6", "--count", "10", "--seed", "2",
                       "--out", str(out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines()[2:]]
        vals = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.all(vals[:, 0] >= vals[:, 1])


class TestVerify:
    def test_default_suite_report_is_the_library_report(self, tmp_path, capsys):
        from rdmt import RngStream, default_suite, run_suite

        report = tmp_path / "r.json"
        assert run_cli("verify", "--seed", "11", "--report", str(report)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 18
        assert lines[-1].startswith("overall: PASS ")
        assert report.read_text() == run_suite(default_suite(), RngStream(11)).to_json() + "\n"

    def test_custom_suite_pass_and_report(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {"name": "ks-reference-values", "kind": "identity",
             "threshold": 1e-9},
            {"name": "gamma-ratio-identity", "kind": "identity", "budget": 50,
             "threshold": 1e-10},
        ]))
        report = tmp_path / "r.json"
        code = run_cli("verify", "--suite", str(suite), "--seed", "11",
                       "--report", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["overall_pass"] is True
        assert len(obj["checks"]) == 2
        out = capsys.readouterr().out
        assert "PASS gamma-ratio-identity" in out

    def test_failing_suite_exit_1(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {"name": "scalar-law-cauchy", "kind": "ks1", "budget": 5000,
             "threshold": 0.9999999},
        ]))
        code = run_cli("verify", "--suite", str(suite), "--seed", "3")
        assert code == 1

    def test_report_byte_identical(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {"name": "scalar-law-cauchy", "kind": "ks1", "budget": 10000,
             "threshold": 0.005},
        ]))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("verify", "--suite", str(suite), "--seed", "4", "--report", str(r1))
        run_cli("verify", "--suite", str(suite), "--seed", "4", "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()

    def test_suite_file_entries_need_only_a_name(self, tmp_path, capsys):
        # the rows fill in kind, params, budget and threshold; a partial
        # params dict keeps the row's other values (nu = 8 at beta = 4)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {"name": "gamma-ratio-identity"},
            {"name": "construction-equivalence-beta4", "params": {"beta": 4},
             "budget": 2000},
            {"name": "ks-reference-values", "kind": "identity"},
        ]))
        report = tmp_path / "r.json"
        code = run_cli("verify", "--suite", str(suite), "--seed", "11",
                       "--report", str(report))
        obj = json.loads(report.read_text())
        assert [c["kind"] for c in obj["checks"]] == ["ks2", "identity", "identity"]
        assert "error" not in json.dumps(obj)
        assert code == 0, capsys.readouterr().out

    @pytest.mark.parametrize("entry,message", [
        ({"name": "no-such-check"}, "unknown check name"),
        ({"name": "normalization-scalar-beta2", "params": {"Nu": 7.0}},
         "has no param 'Nu'"),
        ({"name": "scalar-law-cauchy", "kind": "identity", "threshold": 0.005},
         "of kind 'ks1', not 'identity'"),
        ({"name": "scalar-law-cauchy", "threshold": 1.5}, "p-values"),
        ({"name": "scalar-law-cauchy", "budgett": 10}, "key 'budgett'"),
        ({"name": "normalization-eig-2d", "params": {"m": 2.7}},
         "param 'm' must be an integer"),
        ({"name": "elliptical-invariance-beta1", "params": {"nu": 4.9}},
         "param 'nu' must be an integer"),
        ({"name": "elliptical-invariance-beta1", "params": {"weights": "abc"}},
         "param 'weights' must be a list"),
        ({"name": "wishart-mean", "budget": 2000.7}, "budget must be a whole number"),
        ({"name": "wishart-mean", "budget": True}, "budget must be a whole number"),
        ({"name": "wishart-mean", "budget": 0}, "budget must be a whole number"),
    ])
    def test_bad_suite_file_exit_2(self, tmp_path, capsys, entry, message):
        suite, report = tmp_path / "suite.json", tmp_path / "r.json"
        suite.write_text(json.dumps([entry]))
        code = run_cli("verify", "--suite", str(suite), "--seed", "1",
                       "--report", str(report))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not report.exists()


class TestParsing:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        from rdmt.cli import _build_parser

        assert _build_parser() is _build_parser()
        flags = ["sample", "--dist", "matric-t", "--beta", "1", "--m", "1",
                 "--n", "2", "--nu", "3", "--count", "2", "--seed", "1"]
        csv, jsonl = tmp_path / "a.csv", tmp_path / "b.jsonl"
        assert run_cli(*flags, "--format", "csv", "--stream", "4", "--out", str(csv)) == 0
        assert run_cli(*flags, "--out", str(jsonl)) == 0
        # the second command reads its own defaults, not the first one's flags
        header = json.loads(jsonl.read_text().splitlines()[0])
        assert header["stream"] == 0
        assert jsonl.read_text().splitlines()[1].startswith("{")
        assert '"stream": 4' in csv.read_text().splitlines()[0]

    @pytest.mark.parametrize("command,flags,short", [
        ("sample", ["--count", "2", "--seed", "1"], ["--form", "csv"]),
        ("sample", ["--seed", "1"], ["--co", "2"]),
        ("sample", ["--count", "2"], ["--se", "1"]),
        ("density", [], ["--point", "{points}"]),
    ], ids=["sample-form", "sample-co", "sample-se", "density-point"])
    def test_a_shortened_flag_is_refused(self, tmp_path, capsys, command, flags,
                                         short):
        # argparse would read a prefix as the flag it starts: --form as
        # --format, --point as --points, --co as --count, --se as --seed
        pts, out = tmp_path / "pts.jsonl", tmp_path / "x"
        pts.write_text('{"beta": 1, "rows": 1, "cols": 2, "data": [[[0.5], [1.0]]]}\n')
        short = [a.format(points=pts) for a in short]
        code = run_cli(command, "--dist", "matric-t", "--beta", "1", "--m", "1",
                       "--n", "2", "--nu", "3", *flags, *short, "--out", str(out))
        assert code == 2 and not out.exists()
        assert short[0] in capsys.readouterr().err

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        code = run_cli("sample", "--dist", "no-such-law", "--beta", "1",
                       "--nu", "1", "--count", "1", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("command,with_grid", [("sample", False),
                                                   ("spectrum", False),
                                                   ("spectrum", True)])
    def test_count_below_one_is_refused(self, tmp_path, capsys, count, command,
                                        with_grid):
        out, grid = tmp_path / "out", tmp_path / "grid.csv"
        code = run_cli(command, "--dist", "matric-t", "--beta", "1", "--m", "1",
                       "--n", "2", "--nu", "3", "--count", count, "--seed", "1",
                       "--out", str(out), *(["--grid", str(grid)] if with_grid else []))
        assert code == 2
        assert "--count must be positive" in capsys.readouterr().err
        assert not out.exists() and not grid.exists()

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "rdmt.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    @pytest.mark.parametrize("command,dist,flags", [
        ("sample", "gamma", ["--nu", "2"]),
        *[(command, dist, ["--m", "2", "--n", "3", "--nu", "4"])
          for command in ("sample", "spectrum")
          for dist in ("gaussian", "matrix-mt", "beta2-matric", "elliptical-t")],
    ])
    def test_method_on_a_family_without_methods_is_refused(self, tmp_path, capsys,
                                                          command, dist, flags):
        # no construction method is used, so none may be recorded in the header
        out = tmp_path / "x"
        code = run_cli(command, "--dist", dist, "--beta", "1", *flags, "--method",
                       "gram", "--count", "5", "--seed", "1", "--out", str(out))
        assert code == 2
        assert f"{dist} has no construction method" in capsys.readouterr().err
        assert not out.exists()

    def test_form_on_matrix_mt_density_is_refused(self, tmp_path, capsys):
        pts, out = tmp_path / "pts.jsonl", tmp_path / "d.txt"
        pts.write_text('{"beta": 1, "rows": 1, "cols": 2, "data": [[[0.5], [1.0]]]}\n')
        code = run_cli("density", "--dist", "matrix-mt", "--beta", "1", "--m", "1",
                       "--n", "2", "--nu", "3", "--points", str(pts), "--form", "dual",
                       "--out", str(out))
        assert code == 2
        assert "matrix-mt has one density form; drop --form" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "spectrum"])
    def test_rho_on_matric_t_is_refused(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        code = run_cli(command, "--dist", "matric-t", "--beta", "1", "--m", "1",
                       "--n", "2", "--nu", "3", "--rho", "5", "--count", "5",
                       "--seed", "1", "--out", str(out))
        assert code == 2
        assert "matric-t has no rho parameter; drop --rho" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,dist,flags,name", [
        ("sample", "wishart", ["--m", "2", "--n", "3", "--nu", "9"], "n"),
        ("spectrum", "wishart", ["--m", "2", "--n", "3", "--nu", "9"], "n"),
        ("sample", "gamma", ["--m", "9", "--nu", "2"], "m"),
        ("sample", "gamma", ["--n", "7", "--nu", "2"], "n"),
        ("sample", "gaussian", ["--m", "2", "--n", "3", "--nu", "4"], "nu"),
    ])
    def test_a_flag_that_fills_no_field_is_refused(self, tmp_path, capsys, command,
                                                   dist, flags, name):
        out = tmp_path / "x"
        code = run_cli(command, "--dist", dist, "--beta", "1", *flags, "--count", "5",
                       "--seed", "1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert (f"{dist} has no {name} parameter; drop --{name}"
                in capsys.readouterr().err)

    def test_a_flag_that_fills_no_field_is_refused_with_a_params_file(
            self, tmp_path, capsys):
        pfile, out = tmp_path / "p.json", tmp_path / "x"
        pfile.write_text(json.dumps({"beta": 1, "m": 2, "nu": 9.0}))
        code = run_cli("sample", "--dist", "wishart", "--params", str(pfile), "--n", "3",
                       "--count", "5", "--seed", "1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert "wishart has no n parameter; drop --n" in capsys.readouterr().err

    @pytest.mark.parametrize("command,dist", [("sample", "matric-t"),
                                              ("sample", "gaussian"),
                                              ("spectrum", "matrix-mt")])
    def test_mix_off_elliptical_t_is_refused(self, tmp_path, capsys, command, dist):
        out = tmp_path / "x"
        code = run_cli(command, "--dist", dist, "--beta", "1", "--m", "1", "--n", "2",
                       "--nu", "3", "--mix", "0.5:1,0.5:3", "--count", "5",
                       "--seed", "1", "--out", str(out))
        assert code == 2
        assert f"{dist} is not a scale mixture; drop --mix" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("mix", ["0.5", "0.5:1,x:3", "a:b"])
    def test_malformed_mix_exits_2_naming_the_flag(self, tmp_path, capsys, mix):
        out = tmp_path / "x"
        code = run_cli("sample", "--dist", "elliptical-t", "--beta", "1", "--m", "1",
                       "--n", "2", "--nu", "3", "--mix", mix, "--count", "5",
                       "--seed", "1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"--mix {mix!r}: expected 'w:s,w:s,...'" in capsys.readouterr().err


def _record_command(tmp_path, family: str, source: list, command=None) -> tuple:
    """(argv, output path) of the `command` that builds `family`'s record
    from `source` and would write its draws, or its densities at one 2x2
    point; by default "sample" if the family has a sampler."""
    out = tmp_path / "out"
    if command == "density" or _FAMILIES[family].sampler is None:
        points = tmp_path / "f.jsonl"
        points.write_text(json.dumps({"beta": 1, "rows": 2, "cols": 2,
                                      "data": [[[2.0], [0.5]], [[0.5], [1.0]]]}) + "\n")
        return ["density", "--dist", family, *source, "--points", str(points),
                "--out", str(out)], out
    return ["sample", "--dist", family, *source, "--count", "2", "--seed", "1",
            "--out", str(out)], out


class TestNonFiniteFields:
    """A NaN or inf given for a record's float field, by a flag or in a
    --params file, exits 2 naming the field and writes no output."""

    @staticmethod
    def _flags(legal: dict) -> list:
        flags = ["--beta", "1"]
        for name, value in legal.items():
            if isinstance(value, tuple):
                continue
            flags.append(f"--{name}={value}")
        if "weights" in legal:
            flags.append("--mix=" + ",".join(f"{w}:{s}" for w, s in
                                             zip(legal["weights"], legal["scales"])))
        return flags

    @pytest.mark.parametrize("family,name,value", non_finite_fields())
    def test_a_flag_is_refused_naming_the_field(self, tmp_path, capsys, family, name,
                                                value):
        flags = self._flags(dict(LEGAL_FIELDS[family], **{name: value}))
        argv, out = _record_command(tmp_path, family, flags)
        assert run_cli(*argv) == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family,name,value", non_finite_fields())
    def test_a_params_file_is_refused_naming_the_field(self, tmp_path, capsys, family,
                                                       name, value):
        pfile = tmp_path / "p.json"
        # json writes the non-finite numbers as Infinity, -Infinity and NaN
        text = json.dumps(dict(LEGAL_FIELDS[family], beta=1, **{name: value}))
        assert any(word in text for word in ("Infinity", "NaN"))
        pfile.write_text(text)
        argv, out = _record_command(tmp_path, family, ["--params", str(pfile)])
        assert run_cli(*argv) == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not out.exists()


_STARTUP_SCRIPT = """
import sys
from pathlib import Path

import rdmt, rdmt.cli, rdmt.verify

out = Path(sys.argv[1])
common = ["--beta", "2", "--m", "1", "--n", "2", "--nu", "3"]
assert rdmt.cli.main(["sample", "--dist", "matric-t", *common, "--count", "20",
                      "--seed", "1", "--out", str(out / "s.jsonl")]) == 0
assert rdmt.cli.main(["density", "--dist", "matric-t", *common, "--points",
                      str(out / "s.jsonl"), "--out", str(out / "d.csv")]) == 0
assert rdmt.cli.main(["spectrum", "--dist", "matric-t", *common, "--count", "200",
                      "--seed", "1", "--out", str(out / "v.csv"),
                      "--grid", str(out / "g.csv")]) == 0
assert "scipy" not in sys.modules, "scipy loaded without a verify check"
report = rdmt.run_suite([rdmt.CheckSpec("gamma-ratio-identity", {}, 5, 1e-10)],
                        rdmt.RngStream(1))
assert report.overall_pass
assert "scipy.special" in sys.modules
print("ok")
"""



class TestStartup:
    def test_scipy_loads_only_for_verify_checks(self, tmp_path):
        # a fresh interpreter: this test process has scipy loaded already
        src = str(Path(rdmt.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


def _run_info_line(**params):
    return json.dumps({"params": params, "record": "run-info", "seed": 7,
                       "stream": 2, "version": "0.1.0"}, sort_keys=True)


def _eye(beta, m):
    return {"beta": beta, "cols": m, "rows": m,
            "data": [[[1.0 if i == j and k == 0 else 0.0 for k in range(beta)]
                      for j in range(m)] for i in range(m)]}


def _zeros(beta, m, n):
    return {"beta": beta, "cols": n, "rows": m,
            "data": [[[0.0] * beta for _ in range(n)] for _ in range(m)]}


class TestFrozenOutput:
    """Run-info headers and value lines frozen as text: the CLI's output
    bytes must not move under refactors of the records behind it."""

    SAMPLE_CASES = {
        "matric-t": (
            ["--beta", "2", "--m", "1", "--n", "2", "--nu", "5",
             "--method", "inverse_root"],
            '{"params": {"Sigma": {"beta": 2, "cols": 2, "data": [[[1.0, 0.0], '
            '[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "rows": 2}, "Xi": {"beta": 2, '
            '"cols": 1, "data": [[[1.0, 0.0]]], "rows": 1}, "beta": 2, "count": 3, '
            '"family": "matric-t", "format": "jsonl", "m": 1, "method": '
            '"inverse_root", "mu": {"beta": 2, "cols": 2, "data": [[[0.0, 0.0], '
            '[0.0, 0.0]]], "rows": 1}, "n": 2, "nu": 5.0}, "record": "run-info", '
            '"seed": 7, "stream": 2, "version": "0.1.0"}'),
        "matrix-mt": (
            ["--beta", "4", "--m", "1", "--n", "1", "--nu", "3", "--rho", "1.5"],
            '{"params": {"Delta": {"beta": 4, "cols": 1, "data": [[[1.0, 0.0, 0.0, '
            '0.0]]], "rows": 1}, "Lambda": {"beta": 4, "cols": 1, "data": [[[1.0, '
            '0.0, 0.0, 0.0]]], "rows": 1}, "beta": 4, "count": 3, "family": '
            '"matrix-mt", "format": "jsonl", "m": 1, "mu": {"beta": 4, "cols": 1, '
            '"data": [[[0.0, 0.0, 0.0, 0.0]]], "rows": 1}, "n": 1, "nu": 3.0, '
            '"rho": 1.5}, "record": "run-info", "seed": 7, "stream": 2, "version": '
            '"0.1.0"}'),
        "wishart": (
            ["--beta", "1", "--m", "2", "--nu", "6", "--method", "gram"],
            '{"params": {"Xi": {"beta": 1, "cols": 2, "data": [[[1.0], [0.0]], '
            '[[0.0], [1.0]]], "rows": 2}, "beta": 1, "count": 3, "family": '
            '"wishart", "format": "jsonl", "m": 2, "method": "gram", "nu": 6.0}, '
            '"record": "run-info", "seed": 7, "stream": 2, "version": "0.1.0"}'),
        "gamma": (
            ["--beta", "8", "--nu", "2", "--rho", "0.5"],
            '{"params": {"beta": 8, "count": 3, "family": "gamma", "format": '
            '"jsonl", "nu": 2.0, "rho": 0.5}, "record": "run-info", "seed": 7, '
            '"stream": 2, "version": "0.1.0"}'),
        "gaussian": (
            ["--beta", "4", "--m", "1", "--n", "2"],
            '{"params": {"beta": 4, "count": 3, "family": "gaussian", "format": '
            '"jsonl", "m": 1, "n": 2}, "record": "run-info", "seed": 7, "stream": '
            '2, "version": "0.1.0"}'),
        "beta2-matric": (
            ["--beta", "1", "--m", "3", "--n", "2", "--nu", "4"],
            '{"params": {"beta": 1, "count": 3, "family": "beta2", "format": '
            '"jsonl", "m": 3, "n": 2, "nu": 4.0, "orientation": "cogram", "scale": '
            'null}, "record": "run-info", "seed": 7, "stream": 2, "version": '
            '"0.1.0"}'),
        "elliptical-t": (
            ["--beta", "2", "--m", "2", "--n", "3", "--nu", "4",
             "--mix", "0.25:0.5,0.75:2"],
            '{"params": {"beta": 2, "count": 3, "family": "elliptical-t", '
            '"format": "jsonl", "m": 2, "n": 3, "nu": 4.0, "scales": [0.5, 2.0], '
            '"weights": [0.25, 0.75]}, "record": "run-info", "seed": 7, "stream": '
            '2, "version": "0.1.0"}'),
    }

    @pytest.mark.parametrize("family", sorted(SAMPLE_CASES))
    def test_sample_run_info_line(self, tmp_path, family):
        flags, expected = self.SAMPLE_CASES[family]
        out = tmp_path / "s.jsonl"
        code = run_cli("sample", "--dist", family, *flags, "--count", "3",
                       "--seed", "7", "--stream", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == expected
        assert len(lines) == 4

    # (flags, point, params of the header, value line).  Value lines are
    # compared to 1e-13 (relative, absolute near zero): they go through
    # log-gamma and Cholesky, whose last bits may move with the library,
    # while the text of a header may not move at all.
    DENSITY_CASES = {
        "matric-t": (
            ["--beta", "2", "--m", "1", "--n", "2", "--nu", "3", "--form", "dual"],
            {"beta": 2, "rows": 1, "cols": 2,
             "data": [[[0.5, -0.25], [1.0, 0.75]]]},
            dict(Sigma=_eye(2, 2), Xi=_eye(2, 1), beta=2, family="matric-t",
                 form="dual", m=1, mu=_zeros(2, 1, 2), n=2, nu=3.0),
            "-5.084816493157371"),
        "matrix-mt": (
            ["--beta", "4", "--m", "1", "--n", "2", "--nu", "3", "--rho", "1.5"],
            {"beta": 4, "rows": 1, "cols": 2,
             "data": [[[0.5, -0.25, 0.125, 1.0], [0.0, 0.75, -0.5, 0.25]]]},
            dict(Delta=_eye(4, 1), Lambda=_eye(4, 2), beta=4, family="matrix-mt",
                 m=1, mu=_zeros(4, 1, 2), n=2, nu=3.0, rho=1.5),
            "-9.53976882599849"),
        "beta2-matric": (
            ["--beta", "1", "--m", "2", "--n", "3", "--nu", "4"],
            {"beta": 1, "rows": 2, "cols": 2, "data": [[[2.0], [0.5]], [[0.5], [1.0]]]},
            dict(beta=1, family="beta2", m=2, n=3, nu=4.0, orientation="gram",
                 scale=None),
            "-4.558879176579595"),
        "beta2-mv": (
            ["--beta", "2", "--m", "1", "--n", "2", "--nu", "3"],
            {"beta": 2, "rows": 1, "cols": 1, "data": [[[0.75, 0.0]]]},
            dict(beta=2, family="beta2", m=1, n=2, nu=3.0, orientation="gram",
                 scale=None),
            "-0.6008543623408964"),
    }

    @pytest.mark.parametrize("family", sorted(DENSITY_CASES))
    def test_density_header_and_value_line(self, tmp_path, family):
        flags, point, params, value = self.DENSITY_CASES[family]
        pts, out = tmp_path / "p.jsonl", tmp_path / "d.txt"
        pts.write_text(json.dumps(point) + "\n")
        code = run_cli("density", "--dist", family, *flags, "--points", str(pts),
                       "--out", str(out))
        assert code == 0
        header, line = out.read_text().splitlines()
        expected = json.loads(_run_info_line(**params))
        expected["seed"] = expected["stream"] = None
        assert header == "# " + json.dumps(expected, sort_keys=True)
        assert line == repr(float(line))
        assert math.isclose(float(line), float(value), rel_tol=1e-13,
                            abs_tol=1e-13)

    def test_density_header_literal(self, tmp_path):
        pts, out = tmp_path / "p.jsonl", tmp_path / "d.txt"
        pts.write_text(json.dumps(self.DENSITY_CASES["beta2-mv"][1]) + "\n")
        run_cli("density", "--dist", "beta2-mv", "--beta", "2", "--m", "1",
                "--n", "2", "--nu", "3", "--points", str(pts), "--out", str(out))
        assert out.read_text().splitlines()[0] == (
            '# {"params": {"beta": 2, "family": "beta2", "m": 1, "n": 2, "nu": '
            '3.0, "orientation": "gram", "scale": null}, "record": "run-info", '
            '"seed": null, "stream": null, "version": "0.1.0"}')

    @pytest.mark.parametrize("family,flags,header,rows,first,last", [
        ("elliptical-t",
         ["--beta", "1", "--m", "1", "--n", "2", "--nu", "3",
          "--mix", "0.5:1,0.5:3"],
         '# {"params": {"beta": 1, "count": 200, "family": "elliptical-t", '
         '"kind": "singular", "m": 1, "n": 2, "nu": 3.0, "scales": [1.0, 3.0], '
         '"weights": [0.5, 0.5]}, "record": "run-info", "seed": 5, "stream": 0, '
         '"version": "0.1.0"}',
         258, "0.013888864588324524,-3.178537784881688",
         "3.7945333665952536,-4.4034988396228885"),
        ("beta2-matric", ["--beta", "1", "--m", "2", "--n", "1", "--nu", "3"],
         '# {"params": {"beta": 1, "count": 200, "family": "beta2", "kind": '
         '"eigen", "m": 2, "n": 1, "nu": 3.0, "orientation": "cogram", "scale": '
         'null}, "record": "run-info", "seed": 5, "stream": 0, "version": '
         '"0.1.0"}',
         258, "0.005420536031238385,-0.01081179560003921",
         "949.875254902111,-13.714765762777066"),
        ("matrix-mt",
         ["--beta", "2", "--m", "2", "--n", "2", "--nu", "3", "--kind", "eigen"],
         None, 2018, "0.1363077251903421,0.0007391679729701101,0.9905072152270304",
         "8.541558272667405,8.405989715450033,-18.32262611002389"),
    ])
    def test_spectrum_grid_lines(self, tmp_path, family, flags, header, rows,
                                 first, last):
        out, grid = tmp_path / "s.csv", tmp_path / "g.csv"
        code = run_cli("spectrum", "--dist", family, *flags, "--count", "200",
                       "--seed", "5", "--out", str(out), "--grid", str(grid))
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == out.read_text().splitlines()[0]
        if header is not None:
            assert lines[0] == header
        assert len(lines) == rows
        for got, want in ((lines[2], first), (lines[-1], last)):
            g, w = got.split(","), want.split(",")
            assert g[:-1] == w[:-1] and g[-1] == repr(float(g[-1]))
            assert math.isclose(float(g[-1]), float(w[-1]), rel_tol=1e-13,
                                abs_tol=1e-13)


def _data_lines(path, skip=1):
    """The lines of an output after its run-info line (and CSV header)."""
    return path.read_text().splitlines()[skip:]


class TestWriter:
    """Every output line equals an independent route from the library's own
    values: json.dumps of the schema dict for JSONL matrices, repr of each
    float for CSV rows and density lines.  The writer's block size is cut
    to 4 rows so a run spans several blocks and a partial last one."""

    SEED, STREAM, COUNT = 19, 3, 10

    # family -> (flags, library draws at (seed, stream)); the flags and the
    # library call are written out independently of the CLI's tables
    @staticmethod
    def _library_draws(family, tag, rng, count):
        from rdmt import distributions as D

        one = tag.beta == 8
        m, n = (1, 1) if one else (2, 3)
        if family == "matric-t":
            return (["--m", str(m), "--n", str(n), "--nu", "9"],
                    D.sample_matric_t(rng, D.MatricTParams(tag, m, n, 9.0), size=count))
        if family == "matrix-mt":
            return (["--m", str(m), "--n", str(n), "--nu", "3", "--rho", "1.5"],
                    D.sample_matrix_mt(rng, D.MatrixMTParams(tag, m, n, 3.0, 1.5),
                                       size=count))
        if family == "wishart":
            return (["--m", str(m), "--nu", "9"],
                    D.sample_wishart(rng, D.WishartParams(tag, m, 9.0), size=count))
        if family == "gamma":
            return (["--nu", "2", "--rho", "0.5"],
                    D.sample_gamma_scalar(rng, D.GammaScalarParams(tag, 2.0, 0.5),
                                          size=count))
        if family == "gaussian":
            return (["--m", str(m), "--n", str(n)],
                    D.sample_gaussian(rng, D.GaussianParams(tag, m, n), size=count))
        if family == "beta2-matric":
            return (["--m", str(m), "--n", str(n), "--nu", "9"],
                    D.sample_beta2_matric(rng, D.BetaIIParams(tag, m, n, 9.0),
                                          size=count))
        params = D.EllipticalTParams(tag, m, n, 4.0, (0.5, 0.5), (1.0, 3.0))
        return (["--m", str(m), "--n", str(n), "--nu", "4", "--mix", "0.5:1,0.5:3"],
                D.sample_elliptical_t(rng, params, size=count))

    # every family with a sampler, at every beta
    CASES = [(f, b) for f, row in _FAMILIES.items() if row.sampler for b in (1, 2, 4, 8)]

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        import rdmt.cli

        monkeypatch.setattr(rdmt.cli, "_BLOCK_ROWS", 4)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("family,beta", CASES)
    def test_sample_lines(self, tmp_path, family, beta, fmt):
        from rdmt.algebra import AlgebraTag, DivMatrix
        from rdmt.distributions import RngStream

        tag = AlgebraTag(beta)
        flags, draws = self._library_draws(family, tag, RngStream(self.SEED, self.STREAM),
                                           self.COUNT)
        out = tmp_path / f"s.{fmt}"
        code = run_cli("sample", "--dist", family, "--beta", str(beta), *flags,
                       "--count", str(self.COUNT), "--seed", str(self.SEED),
                       "--stream", str(self.STREAM), "--format", fmt, "--out", str(out))
        assert code == 0
        if fmt == "csv":
            want = [",".join(repr(float(v)) for v in np.ravel(d)) for d in draws]
        elif family == "gamma":
            want = [json.dumps({"value": float(v)}) for v in draws]
        else:
            want = [json.dumps(DivMatrix(tag, d).to_schema_dict()) for d in draws]
        assert _data_lines(out, 2 if fmt == "csv" else 1) == want

    @pytest.mark.parametrize("kind,beta", [("singular", 1), ("singular", 4),
                                           ("eigen", 2)])
    def test_spectrum_lines(self, tmp_path, kind, beta):
        from rdmt.algebra import AlgebraTag
        from rdmt.distributions import MatricTParams, RngStream, sample_matric_t
        from rdmt.spectral import singular_values_batch

        tag = AlgebraTag(beta)
        out = tmp_path / "s.csv"
        code = run_cli("spectrum", "--dist", "matric-t", "--beta", str(beta), "--m", "2",
                       "--n", "3", "--nu", "9", "--kind", kind, "--count", str(self.COUNT),
                       "--seed", str(self.SEED), "--out", str(out))
        assert code == 0
        draws = sample_matric_t(RngStream(self.SEED, 0), MatricTParams(tag, 2, 3, 9.0),
                                size=self.COUNT)
        sv = singular_values_batch(tag, draws)
        lines = _data_lines(out, 2)
        got = np.array([[float(v) for v in l.split(",")] for l in lines])
        assert got.shape == (self.COUNT, 2)
        want = sv if kind == "singular" else sv ** 2
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        if kind == "singular":
            assert lines == [",".join(repr(float(v)) for v in row) for row in sv]

    @pytest.mark.parametrize("form", ["primal", "dual"])
    def test_density_lines(self, tmp_path, form):
        from rdmt.algebra import AlgebraTag
        from rdmt.distributions import MatricTParams, logpdf_matric_t

        pts = tmp_path / "p.jsonl"
        assert run_cli("sample", "--dist", "matric-t", "--beta", "2", "--m", "2", "--n",
                       "3", "--nu", "5", "--count", str(self.COUNT), "--seed",
                       str(self.SEED), "--out", str(pts)) == 0
        out = tmp_path / "d.txt"
        assert run_cli("density", "--dist", "matric-t", "--beta", "2", "--m", "2", "--n",
                       "3", "--nu", "5", "--points", str(pts), "--form", form,
                       "--out", str(out)) == 0
        stack = np.array([json.loads(l)["data"] for l in _data_lines(pts)])
        values = logpdf_matric_t(MatricTParams(AlgebraTag.COMPLEX, 2, 3, 5.0), stack,
                                 form=form)
        assert _data_lines(out) == [repr(float(v)) for v in values]


class TestCliOutputsCompare:
    """tools/cli_outputs.py --compare: which files differ, and by how much."""

    @staticmethod
    def _tool():
        import importlib.util

        path = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
        spec = importlib.util.spec_from_file_location("cli_outputs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_reports_moved_numbers_text_and_missing_files(self, tmp_path, capsys):
        tool = self._tool()
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            (root / "cmd").mkdir(parents=True)
            (root / "cmd" / "exit").write_text("0\n")
        (a / "cmd" / "out").write_text('# {"version": "0.1.0"}\n1.0,2.5\n-3e-05,4\n')
        (b / "cmd" / "out").write_text('# {"version": "0.1.0"}\n1.0,2.5\n-3.00003e-05,4\n')
        (a / "cmd" / "stderr").write_text("error: one\n")
        (b / "cmd" / "stderr").write_text("error: two\n")
        (a / "cmd" / "grid").write_text("1\n")
        assert tool.compare(str(a), str(b)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"cmd/grid: only in {a}",
            "cmd/out: 1 of 4 values moved, largest relative move 1e-05 (line 3)",
            "cmd/stderr: text differs beyond its numbers",
            "3 of 4 files differ",
        ]
        assert tool.compare(str(a), str(a)) == 0
