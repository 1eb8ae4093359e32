import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import detsing
from conftest import fixture_path
from detsing import cli, detvar, grobner, indexcalc, polyalg


def load(stdout):
    return json.loads(stdout)


class TestVerify:
    def test_cone_identity_verified(self, run_cli):
        code, out, err = run_cli("verify", fixture_path("twisted_cubic.json"), "--json")
        assert code == 0 and err == ""
        report = load(out)
        assert report["command"] == "verify"
        assert report["identity"]["status"] == "verified"
        assert report["identity"]["lhs"] == 5
        assert report["identity"]["rhs"] == 5
        assert report["ledger"]["chi_X"] == 3
        assert report["ledger"]["defects"] == [{"point": "[0:0:0:0:1]", "defect": 2}]

    def test_wrong_euler_characteristic_violated(self, run_cli):
        code, out, _ = run_cli(
            "verify", fixture_path("twisted_cubic_wrong_chi.json"), "--json"
        )
        assert code == 1
        report = load(out)
        assert report["identity"]["status"] == "violated"
        assert report["identity"]["lhs"] == 5
        assert report["identity"]["rhs"] == 6

    def test_smooth_classical_case(self, run_cli):
        code, out, _ = run_cli("verify", fixture_path("smooth_conic.json"), "--json")
        assert code == 0
        report = load(out)
        assert report["identity"]["status"] == "verified"
        assert report["ledger"]["defects"] == []
        assert report["identity"]["lhs"] == 2

    def test_nonsmoothable_ledger_solves_index(self, run_cli):
        code, out, _ = run_cli("index", fixture_path("segre_cone.json"),
                               "--at", "[0:0:0:0:0:0:1]", "--json")
        assert code == 0
        report = load(out)
        assert report["identity"]["status"] == "solved"
        assert report["identity"]["name"] == "index@[0:0:0:0:0:0:1]"
        assert report["identity"]["value"] == 4
        defects = {d["point"]: d["defect"] for d in report["ledger"]["defects"]}
        assert defects["[0:0:0:0:0:0:1]"] == 3

    def test_unknown_blocks_verify(self, run_cli):
        code, out, err = run_cli(
            "verify", fixture_path("twisted_cubic_euler.json"), "--json"
        )
        assert code == 3
        assert "chi_X" in err

    def test_timing_opt_in(self, run_cli):
        code, out, _ = run_cli("verify", fixture_path("twisted_cubic.json"), "--json")
        assert load(out)["timing_ms"] is None
        code, out, _ = run_cli(
            "verify", fixture_path("twisted_cubic.json"), "--json", "--timing"
        )
        assert isinstance(load(out)["timing_ms"], int)


class TestEulerAndIndex:
    def test_euler_solves_chi(self, run_cli):
        code, out, _ = run_cli("euler", fixture_path("twisted_cubic_euler.json"), "--json")
        assert code == 0
        report = load(out)
        assert report["identity"]["status"] == "solved"
        assert report["identity"]["name"] == "chi_X"
        assert report["identity"]["value"] == 3

    def test_euler_rejects_known_chi(self, run_cli):
        code, _, err = run_cli("euler", fixture_path("twisted_cubic.json"))
        assert code == 2
        assert "chi_X" in err

    def test_index_at_singular_point(self, run_cli):
        code, out, _ = run_cli(
            "index", fixture_path("twisted_cubic_index.json"),
            "--at", "[0:0:0:0:1]", "--json",
        )
        assert code == 0
        report = load(out)
        assert report["identity"]["status"] == "solved"
        assert report["identity"]["name"] == "index@[0:0:0:0:1]"
        assert report["identity"]["value"] == 3

    def test_index_accepts_unnormalized_point(self, run_cli):
        code, out, _ = run_cli(
            "index", fixture_path("twisted_cubic_index.json"),
            "--at", "[0:0:0:0:2]", "--json",
        )
        assert code == 0
        assert load(out)["identity"]["value"] == 3

    def test_index_at_smooth_fixed_point_is_direct(self, run_cli):
        code, out, _ = run_cli(
            "index", fixture_path("twisted_cubic_index.json"),
            "--at", "[1:0:0:0:0]", "--json",
        )
        assert code == 0
        report = load(out)
        assert report["identity"]["status"] == "solved"
        assert report["identity"]["value"] == 1
        assert report["identity"]["lhs"] is None

    def test_index_at_point_outside_ledger(self, run_cli):
        code, _, err = run_cli(
            "index", fixture_path("twisted_cubic_index.json"), "--at", "[0:1:0:0:0]"
        )
        assert code == 2
        assert "ledger" in err

    def test_index_already_known(self, run_cli):
        code, _, err = run_cli(
            "index", fixture_path("twisted_cubic.json"), "--at", "[0:0:0:0:1]"
        )
        assert code == 2

    def test_index_malformed_point(self, run_cli):
        code, _, err = run_cli(
            "index", fixture_path("twisted_cubic_index.json"), "--at", "0:0:1"
        )
        assert code == 2


class TestAnalyze:
    def test_cone_classification(self, run_cli):
        code, out, _ = run_cli("analyze", fixture_path("twisted_cubic.json"), "--json")
        assert code == 0
        got = load(out)["classification"]
        assert got["codimension"] == 2
        assert got["dimension"] == 2
        assert got["determinantal"] is True
        assert got["isolated_singularity"] is True
        assert got["smoothable"] is True
        assert got["singular_points"] == ["[0:0:0:0:1]"]
        assert got["singular_points_exact"] is True

    def test_segre_cone_not_smoothable(self, run_cli):
        code, out, _ = run_cli("analyze", fixture_path("segre_cone.json"), "--json")
        assert code == 0
        got = load(out)["classification"]
        assert got["dimension"] == 4
        assert got["smoothable"] is False

    def test_non_quasi_homogeneous_unsupported(self, run_cli):
        # the report is still printed; the exit code flags the limitation
        code, out, err = run_cli("analyze", fixture_path("non_quasihomogeneous.json"))
        assert code == 3
        assert "weighted-homogeneous" in out
        assert "local_supported: false" in out

    def test_affine_analyze_allowed(self, run_cli):
        code, out, _ = run_cli("analyze", fixture_path("form_staircase.json"), "--json")
        assert code == 0
        got = load(out)["classification"]
        assert got["empty"] is False


class TestGroebner:
    def test_minors_chart_at_singular_point(self, run_cli):
        code, out, _ = run_cli(
            "groebner", fixture_path("twisted_cubic.json"), "--ideal", "minors", "--json"
        )
        assert code == 0
        got = load(out)["groebner"]
        assert got["ideal"] == "minors"
        assert got["chart_point"] == "[0:0:0:0:1]"
        assert got["variables"] == ["x0", "x1", "x2", "x3"]
        assert got["basis"] == ["x1^2 - x0*x2", "x1*x2 - x0*x3", "x2^2 - x1*x3"]
        assert got["dimension"] == 2
        assert got["quotient_dimension"] == "infinite"

    def test_lower_ideal_is_zero_dimensional_in_chart(self, run_cli):
        code, out, _ = run_cli(
            "groebner", fixture_path("twisted_cubic.json"), "--ideal", "lower", "--json"
        )
        assert code == 0
        got = load(out)["groebner"]
        assert got["basis"] == ["x0", "x1", "x2", "x3"]
        assert got["dimension"] == 0
        assert got["quotient_dimension"] == 1

    def test_explicit_form_ideal(self, run_cli):
        code, out, _ = run_cli(
            "groebner", fixture_path("form_staircase.json"), "--ideal", "form", "--json"
        )
        assert code == 0
        got = load(out)["groebner"]
        assert got["ideal"] == "form"
        # descending by leading monomial, so the cubic sorts first
        assert got["basis"] == ["y^3", "x^2"]
        assert got["quotient_dimension"] == 6

    def test_form_ideal_needs_explicit_form(self, run_cli):
        code, _, err = run_cli(
            "groebner", fixture_path("twisted_cubic.json"), "--ideal", "form"
        )
        assert code == 2

    def test_smooth_model_uses_global_chart(self, run_cli):
        code, out, _ = run_cli(
            "groebner", fixture_path("smooth_conic.json"), "--ideal", "minors", "--json"
        )
        assert code == 0
        got = load(out)["groebner"]
        assert got["chart_point"] is None
        assert got["variables"] == ["x0", "x1", "x2"]


class TestInputValidation:
    def write(self, tmp_path, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def base_payload(self):
        return {
            "schema_version": 1,
            "variables": ["x0", "x1", "x2", "x3", "x4"],
            "matrix": [["x0", "x1", "x2"], ["x1", "x2", "x3"]],
            "t": 2,
            "ambient": {"kind": "projective", "dim": 4},
            "singularities": [{"point": "[0:0:0:0:1]", "mu": 1}],
            "weights": [0, 1, 2, 3, 4],
            "form": {"kind": "cstar"},
            "known": {"chi_X": 3},
        }

    def test_missing_file(self, run_cli):
        code, _, err = run_cli("verify", "/nonexistent/input.json")
        assert code == 2

    def test_invalid_json(self, run_cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli("verify", str(path))
        assert code == 2

    def test_unknown_top_level_key(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["extra"] = True
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "extra" in err

    def test_bad_schema_version(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["schema_version"] = 2
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2

    def test_malformed_polynomial_reports_position(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["matrix"][0][1] = "x1 +"
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "matrix[0][1]" in err
        assert "position" in err

    def test_all_zero_matrix_rejected(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["matrix"] = [["0", "0", "0"], ["0", "0", "0"]]
        code, _, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 2
        assert "matrix must have a nonzero entry" in err
        assert "Traceback" not in err

    def test_deep_nesting_rejected(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["matrix"][0][1] = "(" * 3000 + "x1" + ")" * 3000
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "matrix[0][1]" in err
        assert "parentheses nest deeper than" in err
        assert "Traceback" not in err

    def test_bad_ambient_kind(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["ambient"]["kind"] = "torus"
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2

    def test_bad_point_string(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["singularities"][0]["point"] = "[0:0:0:0"
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2

    def test_singularities_must_cover_computed_points(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["singularities"] = []
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "does not match the computed" in err

    def test_listed_smooth_point_rejected(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["singularities"] = [
            {"point": "[0:0:0:0:1]", "mu": 1},
            {"point": "[1:0:0:0:0]"},
        ]
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "smooth stratum, not the singular locus" in err

    def test_duplicate_known_index(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["known"]["indices"] = {
            "[0:0:0:0:1]": 3,
            "[0:0:0:0:2]": 3,
        }
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "names [0:0:0:0:1] twice" in err

    def test_conflicting_smooth_index(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["known"]["indices"] = {"[1:0:0:0:0]": 2}
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "conflicts with the computed index" in err

    def test_known_index_off_ledger_rejected(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["known"]["indices"] = {"[0:1:0:0:0]": 1}
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "must lie in the smooth stratum" in err

    def test_cstar_form_with_coefficients_rejected(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["form"]["coefficients"] = ["x0", "x1", "x2", "x3", "x4"]
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "takes its data from weights" in err

    def test_explicit_form_requires_affine(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["form"] = {"kind": "explicit",
                           "coefficients": ["x0", "x1", "x2", "x3", "x4"]}
        payload.pop("weights")
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "affine mode only" in err

    def test_budget_must_be_positive(self, run_cli):
        code, _, err = run_cli(
            "verify", fixture_path("twisted_cubic.json"), "--spair-budget", "0"
        )
        assert code == 2

    def test_budget_exhaustion_reports_resource_limit(self, run_cli):
        code, _, err = run_cli(
            "verify", fixture_path("twisted_cubic.json"), "--spair-budget", "2"
        )
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("argv", [
        ("verify", fixture_path("twisted_cubic.json")),
        ("index", fixture_path("segre_cone.json"), "--at", "[0:0:0:0:0:0:1]"),
    ])
    def test_budget_boundary(self, run_cli, argv):
        # the smallest budget that completes moves with pair order and pair
        # criteria, so a change to either shows here
        code, _, err = run_cli(*argv, "--spair-budget", "14")
        assert code == 3
        assert "S-pair budget of 14 exceeded" in err
        code, _, err = run_cli(*argv, "--spair-budget", "15")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("indices", [[], "[0:0:0:0:1]", 3, True],
                             ids=["list", "string", "int", "bool"])
    def test_known_indices_must_be_an_object(self, run_cli, tmp_path, indices):
        payload = json.loads(Path(fixture_path("twisted_cubic.json")).read_text())
        payload["known"]["indices"] = indices
        code, _, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2
        assert "known.indices must be a JSON object" in err

    @pytest.mark.parametrize("weights, message", [
        ([0, 1, 1, 3, 4], "pairwise distinct"),
        ([0, 2, 1, 3, 4], "does not preserve the variety"),
    ], ids=["repeated", "not_invariant"])
    def test_torus_weight_errors(self, run_cli, tmp_path, weights, message):
        payload = json.loads(Path(fixture_path("twisted_cubic.json")).read_text())
        payload["weights"] = weights
        code, out, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert message in err

    def fixture_payload(self, name):
        return json.loads(Path(fixture_path(name)).read_text())

    def test_singularity_field_must_be_an_integer(self, run_cli, tmp_path):
        payload = self.fixture_payload("twisted_cubic.json")
        payload["singularities"][0]["mu"] = "1"
        code, out, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert "singularities[0].mu must be an integer" in err

    def test_projective_point_coordinate_count(self, run_cli, tmp_path):
        payload = self.fixture_payload("twisted_cubic.json")
        payload["singularities"][0]["point"] = "[0:0:0:1]"
        code, out, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert "singularities[0].point: expected 5 coordinates" in err

    def test_affine_point_coordinate_count(self, run_cli, tmp_path):
        payload = self.fixture_payload("form_staircase.json")
        payload["singularities"] = [{"point": "(0)"}]
        code, out, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert "singularities[0].point: expected 2 coordinates" in err

    def test_affine_ledger_unsupported(self, run_cli):
        code, _, err = run_cli("verify", fixture_path("non_quasihomogeneous.json"))
        assert code == 3

    def test_usage_error(self, run_cli):
        code, _, _ = run_cli("index", fixture_path("twisted_cubic_index.json"))
        assert code == 2


class TestLedgerWork:
    """A command builds each basis once and locates each point once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = Counter()
        buchberger, rank_at_point = grobner.buchberger, polyalg.rank_at_point
        weights = grobner.quasi_homogeneous_weights

        def counted_buchberger(ideal, order=grobner.GREVLEX, *rest, **named):
            seen[order.kind] += 1
            return buchberger(ideal, order, *rest, **named)

        def counted_rank_at_point(*args):
            seen["rank_at_point"] += 1
            return rank_at_point(*args)

        def counted_weights(*args):
            seen["weights"] += 1
            return weights(*args)

        counted = {"buchberger": counted_buchberger,
                   "rank_at_point": counted_rank_at_point,
                   "quasi_homogeneous_weights": counted_weights}
        for module in (cli, detvar, grobner, indexcalc, polyalg):
            for name, wrapper in counted.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        return seen

    @pytest.mark.parametrize("argv, expected", [
        (("verify", fixture_path("twisted_cubic.json")),
         {"grevlex": 2, "rank_at_point": 6, "weights": 1}),
        (("index", fixture_path("segre_cone.json"), "--at", "[0:0:0:0:0:0:1]"),
         {"grevlex": 2, "rank_at_point": 8, "weights": 1}),
        (("groebner", fixture_path("twisted_cubic.json"), "--ideal", "minors"),
         {"grevlex": 2, "weights": 0}),
        (("groebner", fixture_path("twisted_cubic.json"), "--ideal", "lower"),
         {"grevlex": 2, "weights": 0}),
        (("groebner", fixture_path("form_staircase.json"), "--ideal", "form"),
         {"grevlex": 2, "weights": 0}),
    ], ids=["verify_twisted_cubic", "index_segre_cone",
            "groebner_minors", "groebner_lower", "groebner_form"])
    def test_pinned_counts(self, run_cli, counts, argv, expected):
        code, _, _ = run_cli(*argv)
        assert code == 0
        # Counter equality treats a missing key as zero
        assert counts == Counter(expected)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_command(self, run_cli):
        path = fixture_path("twisted_cubic.json")
        src = str(Path(detsing.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "detsing.cli", "analyze", path],
            env=env, capture_output=True, text=True, timeout=60)
        code, out, _ = run_cli("analyze", path)
        assert done.returncode == 0 and code == 0
        assert done.stdout == out
        assert out.startswith("command: analyze")

    def test_parser_is_built_once(self, run_cli, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the argument parser")

        monkeypatch.setattr(cli, "_build_parser", rebuilt)
        code, _, _ = run_cli("analyze", fixture_path("twisted_cubic.json"))
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", fixture_path("twisted_cubic.json")),
            ("verify", fixture_path("twisted_cubic.json"), "--json"),
            ("analyze", fixture_path("segre_cone.json"), "--json"),
            ("groebner", fixture_path("twisted_cubic.json"), "--ideal", "minors"),
            ("euler", fixture_path("twisted_cubic_euler.json"), "--json"),
        ],
    )
    def test_byte_identical_reruns(self, run_cli, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second

    def test_text_report_layout(self, run_cli):
        _, out, _ = run_cli("verify", fixture_path("twisted_cubic.json"))
        lines = out.splitlines()
        assert lines[0] == "command: verify"
        assert "identity:" in lines
        assert "  status: verified" in lines
