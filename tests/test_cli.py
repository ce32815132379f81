import json
import subprocess
import sys

import numpy as np
import pytest

from flagparam import errors
from flagparam.density import GAP_TOL
from flagparam.iojson import matrix_from_json, matrix_to_json


def run_cli(args, input_text=None, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "flagparam.cli", *args],
        input=input_text,
        capture_output=True,
        text=True,
        env=full_env,
    )


def golden_31_params():
    # profile (3,1), x = (0.1, 0.2, 0.3), lambdas (0.3, 0.1)
    x = np.array([[0.1], [0.2], [0.3]])
    return {
        "profile": [3, 1],
        "lambdas": [0.3, 0.1],
        "levels": [{"chart": [1, 2, 3, 4], "X": matrix_to_json(x)}],
    }


def golden_31_rho():
    # independent evaluation of the conjugation with the rank-one
    # square-root formula: (I - xx*)^(1/2) = I + (x*x)^{-1}(sqrt(1-x*x)-1) xx*
    x = np.array([[0.1], [0.2], [0.3]])
    t = float((x.conj().T @ x).real[0, 0])
    a = np.eye(3) + ((np.sqrt(1 - t) - 1) / t) * (x @ x.conj().T)
    u = np.zeros((4, 4), dtype=complex)
    u[:3, :3] = a
    u[:3, 3:] = x
    u[3:, :3] = -x.conj().T
    u[3, 3] = np.sqrt(1 - t)
    return u @ np.diag([0.3, 0.3, 0.3, 0.1]) @ u.conj().T


class TestParamToRho:
    def test_maximally_mixed(self):
        doc = {"profile": [4], "lambdas": [0.25], "levels": []}
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 0
        rho = matrix_from_json(json.loads(r.stdout))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-15)

    def test_dimension_out_of_range(self):
        # 2^40 * 2^-40 is exactly 1, so every other check passes; without a
        # bound the rebuild would ask for a 2^40 x 2^40 identity
        doc = {"profile": [1099511627776], "lambdas": [9.094947017729282e-13], "levels": []}
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 2
        error = json.loads(r.stdout)["error"]
        assert error["code"] == "BAD_DIMENSION"
        assert "n = 1099511627776" in error["message"]

    def test_golden_example(self):
        r = run_cli(["param-to-rho"], json.dumps(golden_31_params()))
        assert r.returncode == 0
        rho = matrix_from_json(json.loads(r.stdout))
        assert np.abs(rho - golden_31_rho()).max() <= 1e-11

    def test_profile_sum_error(self):
        doc = golden_31_params()
        doc["profile"] = [2, 1]
        doc["lambdas"] = [0.45, 0.1]
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "PROFILE_SUM"

    @pytest.mark.parametrize(
        "field, value",
        [("chart", "ab"), ("chart", [1, "x", 3, 4]), ("lambdas", 5), ("lambdas", ["x", 0.4])],
    )
    def test_malformed_field(self, field, value):
        doc = golden_31_params()
        if field == "chart":
            doc["levels"][0]["chart"] = value
        else:
            doc["lambdas"] = value
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "BAD_JSON"

    def test_fractional_profile(self):
        # a valid (2, 1) document but for its profile, which int() would truncate
        doc = {
            "profile": [2.7, 1.0],
            "lambdas": [0.4, 0.2],
            "levels": [{"chart": [1, 2, 3], "X": matrix_to_json(np.array([[0.1], [0.2]]))}],
        }
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "BAD_JSON"

    @pytest.mark.parametrize("field", ["lambdas", "profile", "chart"])
    def test_integer_out_of_range(self, field):
        # JSON integers have no bound: 400 nines overflow a double and an int64
        big = int("9" * 400)
        if field == "lambdas":
            doc = {"profile": [1], "lambdas": [big], "levels": []}
        elif field == "profile":
            doc = {"profile": [big], "lambdas": [1.0], "levels": []}
        else:
            doc = golden_31_params()
            doc["levels"][0]["chart"] = [big, 1, 2, 3]
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "BAD_JSON"

    def test_boolean_matrix_entry(self):
        doc = matrix_to_json(np.eye(2) / 2)
        doc["im"][0][1] = False
        r = run_cli(["rho-to-param"], json.dumps(doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "BAD_JSON"

    @pytest.mark.parametrize("lambdas", [[float("nan"), 0.1], [0.3, float("nan")]])
    def test_non_finite_eigenvalue(self, lambdas):
        # every comparison against NaN is false, so only the finiteness
        # check can reject these; json.dumps writes them as the token NaN
        doc = golden_31_params()
        doc["lambdas"] = lambdas
        r = run_cli(["param-to-rho"], json.dumps(doc))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "NOT_FINITE"

    def test_files_in_and_out(self, tmp_path):
        infile = tmp_path / "params.json"
        outfile = tmp_path / "rho.json"
        infile.write_text(json.dumps(golden_31_params()))
        r = run_cli(["param-to-rho", "--in", str(infile), "--out", str(outfile)])
        assert r.returncode == 0
        assert r.stdout == ""
        rho = matrix_from_json(json.loads(outfile.read_text()))
        assert np.abs(rho - golden_31_rho()).max() <= 1e-11
        # the file holds exactly what the same command writes to stdout
        piped = run_cli(["param-to-rho", "--in", str(infile)])
        assert outfile.read_bytes() == piped.stdout.encode("utf-8")


class TestRhoToParam:
    def test_maximally_mixed(self):
        r = run_cli(["rho-to-param"], json.dumps(matrix_to_json(np.eye(4) / 4)))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["profile"] == [4]
        assert doc["levels"] == []

    def test_roundtrip_golden(self):
        rho_doc = json.dumps(matrix_to_json(golden_31_rho()))
        r = run_cli(["rho-to-param"], rho_doc)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["profile"] == [3, 1]
        np.testing.assert_allclose(doc["lambdas"], [0.3, 0.1], atol=1e-12)
        x = matrix_from_json(doc["levels"][0]["X"])
        np.testing.assert_allclose(x, [[0.1], [0.2], [0.3]], atol=1e-9)

    def test_not_density(self):
        r = run_cli(["rho-to-param"], json.dumps(matrix_to_json(np.eye(4))))
        assert r.returncode == 2

    def test_negative_eigenvalue(self):
        # Hermitian with unit trace, so only the PSD check can reject it
        v = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
        rho = (v * [0.6, 0.3, 0.1 + 1e-6, -1e-6]) @ v.T
        r = run_cli(["rho-to-param"], json.dumps(matrix_to_json((rho + rho.T) / 2)))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "NOT_DENSITY_PSD"

    def test_gap_ambiguity_exit_code(self):
        gap = 5e-6
        rho = np.diag([0.25 + gap / 2] * 2 + [0.25 - gap / 2] * 2)
        r = run_cli(["rho-to-param"], json.dumps(matrix_to_json(rho)))
        assert r.returncode == 4
        assert json.loads(r.stdout)["error"]["code"] == "GAP_AMBIGUITY"

    def test_chained_merge_exit_code(self):
        # every gap 0.9e-6 merges, but the merged cluster spans 5.4e-6
        from flagparam import haar_unitary

        lam = np.array([0.3] + [0.1 + j * 0.9e-6 for j in range(6, -1, -1)])
        lam /= lam.sum()
        u = haar_unitary(8, 3)
        rho = (u * lam) @ u.conj().T
        r = run_cli(["rho-to-param"], json.dumps(matrix_to_json((rho + rho.conj().T) / 2)))
        assert r.returncode == 4
        assert json.loads(r.stdout)["error"]["code"] == "GAP_AMBIGUITY"

    def test_gap_tol_flag_resolves_ambiguity(self):
        gap = 5e-6
        rho = np.diag([0.25 + gap / 2] * 2 + [0.25 - gap / 2] * 2)
        r = run_cli(["rho-to-param", "--gap-tol", "1e-7"], json.dumps(matrix_to_json(rho)))
        assert r.returncode == 0
        assert json.loads(r.stdout)["profile"] == [2, 2]

    def test_close_spectrum_roundtrip(self):
        # gap_tol only clusters: parameters extracted with a small --gap-tol
        # rebuild rho without one, as their eigenvalues strictly decrease
        gap = 5e-7
        rho = np.diag([0.25 + gap / 2] * 2 + [0.25 - gap / 2] * 2)
        out = run_cli(["rho-to-param", "--gap-tol", "1e-8"], json.dumps(matrix_to_json(rho)))
        assert out.returncode == 0
        back = run_cli(["param-to-rho"], out.stdout)
        assert back.returncode == 0
        assert np.abs(matrix_from_json(json.loads(back.stdout)) - rho).max() <= 1e-12


class TestGapTolFlag:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_rho_to_param_rejects_bad_gap_tol(self, value):
        # non-degenerate: a nan tolerance used to merge it into the maximally mixed state
        rho = np.diag([0.4, 0.3, 0.2, 0.1])
        r = run_cli(["rho-to-param", "--gap-tol", value], json.dumps(matrix_to_json(rho)))
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "BAD_TOL"

    def test_param_to_rho_has_no_gap_tol(self):
        # refused by argparse as an unknown option, before any input is read
        r = run_cli(["param-to-rho", "--gap-tol", "1e-8"], json.dumps(golden_31_params()))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "unrecognized arguments: --gap-tol" in r.stderr


class TestDecomposeUnitary:
    def test_identity(self):
        r = run_cli(
            ["decompose-unitary", "--profile", "2,2"],
            json.dumps(matrix_to_json(np.eye(4))),
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["profile"] == [2, 2]
        x = matrix_from_json(doc["levels"][0]["X"])
        assert np.abs(x).max() <= 1e-14

    def test_golden_two_by_two(self):
        phi = 0.4
        g = np.array([[0.0, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
        r = run_cli(
            ["decompose-unitary", "--profile", "1,1", "--reconstruct"],
            json.dumps(matrix_to_json(g)),
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["levels"][0]["chart"] == [2, 1]
        assert np.abs(matrix_from_json(doc["levels"][0]["X"])).max() <= 1e-14
        h1 = matrix_from_json(doc["h_blocks"][0])[0, 0]
        h2 = matrix_from_json(doc["h_blocks"][1])[0, 0]
        assert abs(h1 + np.exp(-1j * phi)) <= 1e-14
        assert abs(h2 - np.exp(1j * phi)) <= 1e-14
        assert doc["reconstruction_residual"] <= 1e-10

    def test_haar_reconstruction_residual(self):
        from flagparam import haar_unitary

        g = haar_unitary(4, 42)
        r = run_cli(
            ["decompose-unitary", "--profile", "2,2", "--reconstruct"],
            json.dumps(matrix_to_json(g)),
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["reconstruction_residual"] <= 1e-10

    def test_malformed_profile(self):
        r = run_cli(
            ["decompose-unitary", "--profile", "1,x"], json.dumps(matrix_to_json(np.eye(3)))
        )
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "PROFILE_VALUES"

    def test_levels_are_the_coordinates_document(self, tmp_path):
        from flagparam import cli, decompose_unitary, haar_unitary
        from flagparam.iojson import coords_to_json, loads

        g = haar_unitary(4, 7)
        infile, outfile = tmp_path / "g.json", tmp_path / "out.json"
        infile.write_text(json.dumps(matrix_to_json(g)))
        args = ["--profile", "2,1,1", "--in", str(infile), "--out", str(outfile)]
        assert cli.main(["decompose-unitary", *args]) == 0
        doc = loads(outfile.read_text())
        coords = decompose_unitary(g, (2, 1, 1))[0]
        assert {"profile": doc["profile"], "levels": doc["levels"]} == json.loads(
            json.dumps(coords_to_json(coords))
        )

    def test_rejects_non_unitary(self):
        r = run_cli(
            ["decompose-unitary", "--profile", "2,2"],
            json.dumps(matrix_to_json(np.diag([2.0, 1.0, 1.0, 1.0]))),
        )
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "NOT_UNITARY"

    def test_env_tolerance_override(self):
        slightly_off = np.eye(4) + 1e-8 * np.ones((4, 4))
        doc = json.dumps(matrix_to_json(slightly_off))
        strict = run_cli(["decompose-unitary", "--profile", "2,2"], doc)
        assert strict.returncode == 2
        loose = run_cli(
            ["decompose-unitary", "--profile", "2,2"],
            doc,
            env={"FLAGPARAM_TOL": "1e-6"},
        )
        assert loose.returncode == 0


class TestEnvTolerance:
    # FLAGPARAM_TOL must be finite and >= 0: nan or inf would accept any
    # input, and a negative value would refuse exact ones as NOT_UNITARY or
    # NOT_HERMITIAN
    CASES = {
        # singular, so nothing near it is unitary
        "decompose-unitary": (["decompose-unitary", "--profile", "2,1"], np.ones((3, 3))),
        # not Hermitian
        "rho-to-param": (["rho-to-param"], np.array([[0.5, 0.4], [0.0, 0.5]])),
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    @pytest.mark.parametrize("command", sorted(CASES))
    def test_rejects_bad_value(self, command, value):
        args, m = self.CASES[command]
        r = run_cli(args, json.dumps(matrix_to_json(m)), env={"FLAGPARAM_TOL": value})
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "BAD_TOL"

    def test_zero_is_valid(self):
        r = run_cli(
            ["rho-to-param"], json.dumps(matrix_to_json(np.eye(2) / 2)), env={"FLAGPARAM_TOL": "0"}
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["profile"] == [2]


class TestSample:
    def test_deterministic(self):
        a = run_cli(["sample", "4", "--profile", "3,1", "--seed", "9"])
        b = run_cli(["sample", "4", "--profile", "3,1", "--seed", "9"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_scalar_case(self):
        r = run_cli(["sample", "1", "--seed", "1"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["params"]["profile"] == [1]
        np.testing.assert_allclose(matrix_from_json(doc["rho"]), [[1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_are_consistent(self, seed):
        # the emitted parameters regenerate the emitted density matrix
        r = run_cli(["sample", "4", "--profile", "3,1", "--seed", str(seed)])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        back = run_cli(["param-to-rho"], json.dumps(doc["params"]))
        assert back.returncode == 0
        rho_a = matrix_from_json(doc["rho"])
        rho_b = matrix_from_json(json.loads(back.stdout))
        assert np.abs(rho_a - rho_b).max() <= 1e-12

    def test_malformed_profile(self):
        r = run_cli(["sample", "6", "--profile", "1,x"])
        assert r.returncode == 2
        assert json.loads(r.stdout)["error"]["code"] == "PROFILE_VALUES"

    def test_profile_must_sum(self):
        r = run_cli(["sample", "4", "--profile", "3,3"])
        assert r.returncode == 2

    @pytest.mark.parametrize("n", [64, 256])
    def test_large_nondegenerate(self, n):
        # the default gap 1e-3 is infeasible for (1,)*n from n = 46 on;
        # sample then takes half the largest feasible gap, 1.53e-5 at
        # n = 256, still ten times GAP_TOL, so rho-to-param splits every
        # eigenvalue again
        r = run_cli(["sample", str(n), "--seed", "3"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        lam = np.array(doc["params"]["lambdas"])
        assert np.min(lam[:-1] - lam[1:]) >= 10 * GAP_TOL
        back = run_cli(["rho-to-param"], json.dumps(doc["rho"]))
        assert back.returncode == 0
        assert json.loads(back.stdout)["profile"] == [1] * n

    def test_gap_too_small_to_split_back(self):
        # at n = 1001 half the largest feasible gap is 1.0e-6 < 10*GAP_TOL:
        # the spectrum could not be split back, so sample refuses at once
        r = run_cli(["sample", "1001"])
        assert r.returncode == 2
        error = json.loads(r.stdout)["error"]
        assert error["code"] == "SPECTRUM_SAMPLING"
        assert len(error["message"]) < 200


class TestExitCodeWiring:
    """Codes 1 and 3 cannot be reached through valid inputs on a correct
    build, so the dispatch is exercised in-process.  Each error class
    declares its wire code and exit status; these cases pin them."""

    def test_verify_failure_exits_one(self, tmp_path, monkeypatch):
        from flagparam import cli, verify

        def failing_run(suite, seed):
            return {"seed": seed, "suites": [], "pass": False}

        monkeypatch.setattr(verify, "run", failing_run)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "all", "--out", str(out)]) == 1

    @pytest.mark.parametrize(
        "exc,code,status",
        [
            (errors.NotPSDError("synthetic"), "NOTPSD", 3),
            (errors.SingularInputError("synthetic"), "SINGULARINPUT", 3),
            (errors.OutOfChartError("synthetic"), "OUTOFCHART", 3),
            (errors.NoChartError("synthetic"), "NOCHART", 3),
            (errors.FlagparamError("synthetic"), "NUMERIC", 3),
            (errors.GapAmbiguityError("synthetic"), "GAP_AMBIGUITY", 4),
            (errors.ValidationError("synthetic", code="X"), "X", 2),
            (errors.ValidationError("synthetic"), "INVALID", 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
    )
    def test_error_code_and_status(self, exc, code, status, tmp_path, monkeypatch):
        from flagparam import cli

        def boom(params):
            raise exc

        monkeypatch.setattr(cli, "parametrize", boom)
        infile = tmp_path / "params.json"
        outfile = tmp_path / "out.json"
        infile.write_text(json.dumps(golden_31_params()))
        rc = cli.main(["param-to-rho", "--in", str(infile), "--out", str(outfile)])
        assert rc == status
        assert json.loads(outfile.read_text())["error"] == {"code": code, "message": "synthetic"}


class TestVerify:
    def test_single_suite(self):
        r = run_cli(["verify", "--suite", "jarlskog"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["pass"] is True
        names = {p["property"] for s in doc["suites"] for p in s["properties"]}
        assert "jarlskog_matches_ball_unitary" in names

    def test_all_suites_pass(self):
        r = run_cli(["verify", "--suite", "all"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert {s["suite"] for s in doc["suites"]} == {
            "unitarity",
            "roundtrip",
            "sections",
            "lie",
            "jarlskog",
        }
