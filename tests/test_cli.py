import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detsing
from conftest import fixture_path
from test_cli_golden import GENERIC_3X3, _resolve
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

    @pytest.mark.parametrize("index,code,status,lhs", [
        (1, 0, "verified", 2), (2, 1, "violated", 3)])
    def test_known_indices_at_smooth_points_without_a_form(
            self, run_cli, tmp_path, index, code, status, lhs):
        # with no C*-form, each known index at a smooth point of the conic
        # enters the ledger as given, not as a fixed point's computed 1
        data = json.loads(Path(fixture_path("smooth_conic.json")).read_text())
        del data["form"], data["weights"]
        data["known"] = {"chi_X": 2, "indices": {"[1:0:0]": 1, "[0:0:1]": index}}
        path = tmp_path / "smooth_conic_known.json"
        path.write_text(json.dumps(data))
        got, out, _ = run_cli("verify", path, "--json")
        assert got == code
        report = load(out)
        identity = report["identity"]
        assert (identity["status"], identity["lhs"], identity["rhs"]) == (status, lhs, 2)
        assert [e["role"] for e in report["ledger"]["entries"]] == [
            "form_singularity_smooth_point"] * 2

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


# one passing command of each kind
ENVELOPE_COMMANDS = {
    "analyze": ("analyze", fixture_path("twisted_cubic.json")),
    "verify": ("verify", fixture_path("twisted_cubic.json")),
    "euler": ("euler", fixture_path("twisted_cubic_euler.json")),
    "index": ("index", fixture_path("twisted_cubic_index.json"),
              "--at", "[0:0:0:0:1]"),
    "groebner": ("groebner", fixture_path("twisted_cubic.json"),
                 "--ideal", "lower"),
}


class TestEnvelope:
    """Every report: command and input, the command's blocks, then timing_ms."""

    @pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
    @pytest.mark.parametrize("argv", ENVELOPE_COMMANDS.values(),
                             ids=ENVELOPE_COMMANDS.keys())
    def test_json_envelope(self, run_cli, argv, timing):
        code, out, _ = run_cli(*argv, "--json", *(["--timing"] if timing else []))
        assert code == 0
        report = load(out)
        keys = list(report)
        assert keys[:2] == ["command", "input"]
        assert keys[-1] == "timing_ms"
        assert (report["command"], report["input"]) == (argv[0], Path(argv[1]).name)
        if timing:
            assert type(report["timing_ms"]) is int
        else:
            assert report["timing_ms"] is None

    @pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
    @pytest.mark.parametrize("argv", ENVELOPE_COMMANDS.values(),
                             ids=ENVELOPE_COMMANDS.keys())
    def test_text_envelope(self, run_cli, argv, timing):
        code, out, _ = run_cli(*argv, *(["--timing"] if timing else []))
        assert code == 0
        top = [line for line in out.splitlines() if not line.startswith((" ", "-"))]
        assert top[:2] == [f"command: {argv[0]}", f"input: {Path(argv[1]).name}"]
        key, value = top[-1].split(": ")
        assert key == "timing_ms"
        assert value.isdigit() if timing else value == "none"
        assert sum(line.startswith("timing_ms") for line in top) == 1


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

    def test_forty_variable_row_of_products(self, run_cli, tmp_path):
        # 1 x 20 matrix of x{2i}*x{2i+1}: a scan of variable subsets for the
        # rank ideal's dimension would walk C(40, k) subsets for k >= 21
        variables = [f"x{i}" for i in range(40)]
        path = tmp_path / "row.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": variables,
            "matrix": [[f"x{2 * i}*x{2 * i + 1}" for i in range(20)]], "t": 1,
            "ambient": {"kind": "affine", "dim": 40}, "singularities": []}))
        code, out, err = run_cli("analyze", path, "--json")
        assert code == 0 and err == ""
        got = load(out)["classification"]
        assert got["codimension"] == 20
        assert got["dimension"] == 20
        assert got["determinantal"] is True
        assert got["singular_points"] == []


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

    def test_form_staircase_past_five_million(self, run_cli, tmp_path):
        # 6 000 000 standard monomials under x^2000 and y^3000
        payload = json.loads(Path(fixture_path("form_staircase.json")).read_text())
        payload["form"]["coefficients"] = ["x^2000", "y^3000"]
        path = tmp_path / "staircase.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli("groebner", path, "--ideal", "form", "--json")
        assert code == 0 and err == ""
        assert load(out)["groebner"]["quotient_dimension"] == 6_000_000

    def test_form_ideal_needs_explicit_form(self, run_cli):
        code, _, err = run_cli(
            "groebner", fixture_path("twisted_cubic.json"), "--ideal", "form"
        )
        assert code == 2

    def test_form_ideal_is_global(self, run_cli, tmp_path):
        # the model has the singular point (1, 2), but the form's
        # coefficients are global polynomials
        path = tmp_path / "form.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [["x - 1", "y - 2"], ["y - 2", "x - 1"]], "t": 2,
            "ambient": {"kind": "affine", "dim": 2}, "singularities": [],
            "form": {"kind": "explicit", "coefficients": ["x^2", "y^3"]}}))
        code, out, err = run_cli("groebner", path, "--ideal", "form", "--json")
        assert code == 0 and err == ""
        got = load(out)["groebner"]
        assert got["chart_point"] is None
        assert got["basis"] == ["y^3", "x^2"]

    def test_form_ideal_checks_the_form_before_solving(self, run_cli):
        # one S-pair cannot solve the singular locus of the twisted cubic,
        # but the missing explicit form is found first
        code, out, err = run_cli(
            "groebner", fixture_path("twisted_cubic.json"), "--ideal", "form",
            "--spair-budget", "1")
        assert code == 2 and out == ""
        assert err == "error: --ideal form needs an explicit form with coefficients\n"

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

    def test_equal_cells_parse_once(self, tmp_path, monkeypatch):
        parses = []

        def counted_parse(text, variables):
            parses.append(text)
            return polyalg.parse_polynomial(text, variables)

        monkeypatch.setattr(cli, "parse_polynomial", counted_parse)
        payload = self.base_payload()
        entries = cli.load_input(self.write(tmp_path, payload)).model.matrix.entries
        assert parses == ["x0", "x1", "x2", "x3"]
        assert entries[0][1] is entries[1][0] and entries[0][2] is entries[1][1]

    def test_repeated_bad_cell_fails_at_its_first_position(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["matrix"] = [["x0", "x1 +", "x2"], ["x1 +", "x2", "x3"]]
        code, _, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 2
        assert err.startswith("error: matrix[0][1]: ")

    @pytest.mark.parametrize("name", ["α1", "_t", "ξ_2", "x٣"])
    def test_unicode_names_that_read_back_pass(self, run_cli, tmp_path, name):
        # a Unicode letter starts a name, and a Unicode digit may follow
        payload = self.base_payload()
        payload["variables"][4] = name
        payload["matrix"][1][2] = name
        code, _, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 0, err

    @settings(max_examples=200)
    @given(st.text(max_size=4))
    def test_accepted_names_are_one_name_token(self, name):
        # load_input takes a name exactly when the entry grammar reads it
        # back as one name token
        try:
            one_token = polyalg._tokenize(name) == [("name", name, 0),
                                                     ("end", None, len(name))]
        except polyalg.ParseError:
            one_token = False
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "input.json"
            path.write_text(json.dumps({
                "schema_version": 1, "variables": [name], "matrix": [["1"]],
                "t": 1, "ambient": {"kind": "affine", "dim": 1},
                "singularities": []}), encoding="utf-8")
            try:
                cli.load_input(path)
            except cli.InputError as e:
                assert not one_token and str(e).startswith("variables[0]: ")
            else:
                assert one_token

    def test_missing_file(self, run_cli):
        code, _, err = run_cli("verify", "/nonexistent/input.json")
        assert code == 2

    def test_invalid_json(self, run_cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli("verify", str(path))
        assert code == 2

    def test_file_that_is_not_utf8(self, run_cli, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(self.base_payload()).encode())
        code, _, err = run_cli("analyze", path)
        assert code == 2
        assert err.startswith("error: ") and "latin.json" in err
        assert "Traceback" not in err

    def test_integer_past_the_int_digit_limit(self, run_cli, tmp_path):
        path = tmp_path / "huge.json"
        text = json.dumps(self.base_payload())
        path.write_text(text.replace('"chi_X": 3', '"chi_X": ' + "9" * 5000))
        code, _, err = run_cli("analyze", path)
        assert code == 2
        assert err.startswith("error: ") and "huge.json" in err
        assert "Traceback" not in err

    def test_arrays_nested_past_the_recursion_limit(self, run_cli, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        code, _, err = run_cli("analyze", path)
        assert code == 2
        assert err.startswith("error: ") and "deep.json" in err
        assert "Traceback" not in err

    def test_ragged_matrix_rejected(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["matrix"][1].pop()
        code, _, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 2
        assert "matrix rows must have equal length" in err

    def test_non_ascii_digit_in_polynomial(self, run_cli, tmp_path):
        payload = self.base_payload()
        payload["matrix"][0][1] = "x1^²"
        code, _, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 2
        assert "matrix[0][1]" in err
        assert "position 3" in err
        assert "Traceback" not in err

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
        # the chart basis that groebner --ideal minors presents takes 3 pairs
        code, _, err = run_cli(
            "groebner", fixture_path("twisted_cubic.json"), "--ideal", "minors",
            "--spair-budget", "2"
        )
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("argv, budget", [
        # both dimensions certify from the generators, so the pairs are
        # those of the charted lower basis that the command presents: the
        # C(4, 2) pairs of the four distinct 1-minors x0, x1, x2, x3
        (("groebner", "twisted_cubic.json", "--ideal", "lower"), 6),
        # the lower ideal of the six 1-minors certifies its floor 1 after 2
        # pairs; a 2-minor splits into weight components, but the torus
        # check tests the span of the 2-minors and takes no pair
        (("index", "segre_cone_column_op.json", "--at", "[0:0:0:0:0:0:1]"), 2),
    ], ids=["argv0", "argv1"])
    def test_budget_boundary(self, run_cli, tmp_path, argv, budget):
        # the smallest budget that completes moves with pair order, pair
        # criteria and the bases a command builds, so a change to any of
        # them shows here
        argv = _resolve(argv, tmp_path)
        code, _, err = run_cli(*argv, "--spair-budget", str(budget - 1))
        assert code == 3
        assert f"S-pair budget of {budget - 1} exceeded" in err
        code, _, err = run_cli(*argv, "--spair-budget", str(budget))
        assert code == 0 and err == ""

    def test_certified_ledger_completes_at_the_smallest_budget(self, run_cli):
        # both dimensions of the Segre cone certify from the generators, and
        # the cstar check builds no basis, so no pair is taken
        code, _, err = run_cli("index", fixture_path("segre_cone.json"),
                               "--at", "[0:0:0:0:0:0:1]", "--spair-budget", "1")
        assert code == 0 and err == ""

    def test_dense_model_certifies_within_a_small_budget(self, run_cli, tmp_path):
        # a 3 x 4 matrix of dense random linear forms, t = 3 in P^11.  The
        # rank and lower ideals certify their dimensions 10 and 6 after 3 and
        # 125 pairs; their full bases take 21 and 666
        rng = random.Random(1)
        variables = [f"x{i}" for i in range(12)]

        def form():
            return " + ".join(f"({rng.randint(-3, 3)})*{v}" for v in variables)

        path = self.write(tmp_path, {
            "schema_version": 1, "variables": variables,
            "matrix": [[form() for _ in range(4)] for _ in range(3)], "t": 3,
            "ambient": {"kind": "projective", "dim": 11}, "singularities": []})
        code, _, err = run_cli("analyze", path, "--spair-budget", "124")
        assert code == 3
        assert "S-pair budget of 124 exceeded" in err
        code, out, err = run_cli("analyze", path, "--spair-budget", "125",
                                 "--json")
        assert code == 0 and err == ""
        report = load(out)["classification"]
        assert (report["codimension"], report["dimension"]) == (2, 9)
        assert report["singular_locus_dimension"] == 6
        assert report["determinantal"] is True

    def test_dense_affine_model_certifies_within_a_small_budget(self, run_cli,
                                                                tmp_path):
        # the dense model above read as affine in A^12: its linear forms
        # vanish at the origin, so the same floors certify the same ideals
        # after the same 125 pairs, where the full bases take 21 and 666
        rng = random.Random(1)
        variables = [f"x{i}" for i in range(12)]

        def form():
            return " + ".join(f"({rng.randint(-3, 3)})*{v}" for v in variables)

        path = self.write(tmp_path, {
            "schema_version": 1, "variables": variables,
            "matrix": [[form() for _ in range(4)] for _ in range(3)], "t": 3,
            "ambient": {"kind": "affine", "dim": 12}, "singularities": []})
        code, _, err = run_cli("analyze", path, "--spair-budget", "124")
        assert code == 3
        assert "S-pair budget of 124 exceeded" in err
        started = time.perf_counter()
        code, out, err = run_cli("analyze", path, "--spair-budget", "125",
                                 "--json")
        assert time.perf_counter() - started < 5
        assert code == 0 and err == ""
        report = load(out)["classification"]
        assert (report["codimension"], report["dimension"]) == (2, 10)
        assert report["singular_locus_dimension"] == 6
        assert report["determinantal"] is True
        assert report["singular_points"] == []

    def test_point_solver_budget_boundary(self, run_cli, tmp_path):
        # a rational 3x3x3 grid of singular points of [[f, g], [h, f]] with
        # f(x), g(y), h(z) vanishing at the origin.  The rank ideal is
        # principal and the three distinct 1-minors give the lower ideal the
        # floor 0, so both dimensions certify with no pair, and the point
        # solver builds the lower basis itself: its 3 pairs are the only
        # ones.  The basis splits at every variable, so the rest of it,
        # projected, is solved once for all the roots.  The germs are not weighted-homogeneous, so a completed
        # report also exits 3.
        f, g, h = ("x*(2*x + 1)*(x + 3)", "y*(3*y - 1)*(y + 1)",
                   "z*(z - 2)*(2*z + 3)")
        path = self.write(tmp_path, {
            "schema_version": 1, "variables": ["x", "y", "z"],
            "matrix": [[f, g], [h, f]], "t": 2,
            "ambient": {"kind": "affine", "dim": 3}, "singularities": []})
        code, out, err = run_cli("analyze", path, "--spair-budget", "2")
        assert code == 3 and out == ""
        assert "S-pair budget of 2 exceeded" in err
        code, out, err = run_cli("analyze", path, "--spair-budget", "3")
        assert code == 3 and err == ""
        assert "singular_points_exact: true" in out
        assert out.count("is not weighted-homogeneous") == 27

    def test_grid_solver_builds_no_basis_with_pairs(self, run_cli, tmp_path):
        # [[f, g], [g, f]]: the rank ideal is principal, the lower basis of
        # the distinct [f, g] takes their one pair, and the roots of g meet
        # those of the projected f, whose basis is read off the lower basis,
        # so the smallest budget completes the 3x3 grid
        f, g = "(x - 1)*(2*x + 1)*(x + 3)", "(y - 2)*(3*y - 1)*(y + 1)"
        path = self.write(tmp_path, {
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [[f, g], [g, f]], "t": 2,
            "ambient": {"kind": "affine", "dim": 2}, "singularities": []})
        code, out, err = run_cli("analyze", path, "--spair-budget", "1")
        assert code == 3 and err == ""
        assert "singular_points_exact: true" in out
        assert out.count("is not weighted-homogeneous") == 9

    def test_point_solver_on_a_quotient_of_dimension_twenty(self, run_cli, tmp_path):
        # the lower ideal has a 19-element basis and a quotient of dimension
        # 20; its eliminant has degree 10 and the single rational root 0,
        # which leaves no rational point.  A lex basis of these generators
        # ran for minutes on Fraction growth.
        path = self.write(tmp_path, {
            "schema_version": 1, "variables": ["x0", "x1", "x2", "x3"],
            "matrix": [["x3", "x0 + 3*x1*x2", "0"],
                       ["-2*x0", "3*x3 - 3", "2*x1^2 - 1"],
                       ["5", "-2*x0 - x2^2 - 1", "x1*x3 - 2*x0*x3"]],
            "t": 3, "ambient": {"kind": "affine", "dim": 4}, "singularities": []})
        started = time.perf_counter()
        code, out, err = run_cli("analyze", path)
        assert time.perf_counter() - started < 5
        assert code == 0 and err == ""
        assert "singular_points: (none)" in out
        assert "singular_points_exact: false" in out

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

    @pytest.mark.parametrize("coordinate", [
        "1e3", "1E3", "1e10000000", "1_0", "+1", "0x10", ".5", "5.", "inf",
        "nan", "\u0661", "1/0", "1/-2", "", "1 / 2", "9" * 5000,
        "0." + "9" * 5000])
    def test_affine_coordinates_are_plain_rationals(self, run_cli, tmp_path,
                                                    coordinate):
        payload = self.fixture_payload("form_staircase.json")
        payload["singularities"] = [{"point": f"({coordinate}, 0)"}]
        code, out, err = run_cli("analyze", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert "singularities[0].point: coordinates must be rational numbers" in err
        code, out, err = run_cli("index", fixture_path("form_staircase.json"),
                                 "--at", f"(0, {coordinate})")
        assert code == 2 and out == ""
        assert "--at: coordinates must be rational numbers" in err

    @pytest.mark.parametrize("coordinate", ["0", "-7", "3/2", "-3/4", "0.25",
                                            "-10.50", "007"])
    def test_affine_coordinate_forms_accepted(self, run_cli, coordinate):
        # the point parses; the ledger then refuses the affine model
        code, out, err = run_cli("index", fixture_path("form_staircase.json"),
                                 "--at", f"({coordinate}, 0)")
        assert code == 3 and out == ""
        assert err.startswith("unsupported: ")

    @pytest.mark.parametrize("point", [
        "[1_0:0:0:0:1]", "[0:0:0:0:+1]", "[\u0661:0:0:0:0]", "[0:0:0:0:0x1]",
        "[0:0:0:0:1.0]", "[0:0:0:0:1e0]", "[0:0:0:0:1/1]", "[0:0:0:0:]",
        "[0:0:0:0:1 0]", "[0:0:0:0:" + "9" * 5000 + "]"])
    def test_projective_entries_are_plain_integers(self, run_cli, tmp_path,
                                                    point):
        message = "projective point entries must be integers"
        payload = self.fixture_payload("twisted_cubic.json")
        payload["singularities"][0]["point"] = point
        code, out, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert f"singularities[0].point: {message}" in err
        payload = self.fixture_payload("twisted_cubic.json")
        payload["known"]["indices"] = {point: 3}
        code, out, err = run_cli("verify", self.write(tmp_path, payload))
        assert code == 2 and out == ""
        assert f"known.indices[{point!r}]: {message}" in err
        code, out, err = run_cli("index", fixture_path("twisted_cubic_index.json"),
                                 "--at", point)
        assert code == 2 and out == ""
        assert f"--at: {message}" in err

    @pytest.mark.parametrize("point", ["[0:0:0:0:1]", "[ 0 : 0 : 0 : 0 : 007 ]",
                                       "[0:0:0:0:-2]", " [-0:0:0:0:1] "])
    def test_projective_entry_forms_accepted(self, run_cli, point):
        code, out, err = run_cli("index", fixture_path("twisted_cubic_index.json"),
                                 "--at", point, "--json")
        assert code == 0 and err == ""
        assert load(out)["identity"]["name"] == "index@[0:0:0:0:1]"

    def test_rational_root_search_is_bounded(self, run_cli, tmp_path):
        # the eliminant a*x^3 - b is irreducible; its constant term has 2592
        # divisors and its leading coefficient 64
        a, b = 17 * 19 * 23 * 29 * 31 * 37, 2**8 * 3**5 * 5**3 * 7**2 * 11 * 13
        entry = f"{a}*x^3 - {b}"
        path = self.write(tmp_path, {
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [[entry, "y"], ["y", entry]], "t": 2,
            "ambient": {"kind": "affine", "dim": 2}, "singularities": []})
        code, out, err = run_cli("analyze", path)
        assert code == 3 and out == ""
        assert err == ("resource limit: rational-root search exceeded its "
                       f"limit of {detvar.MAX_ROOT_CANDIDATES} candidates\n")

    def test_linear_eliminant_with_many_candidates(self, run_cli, tmp_path):
        a, b = 17 * 19 * 23 * 29 * 31 * 37, 2**8 * 3**5 * 5**3 * 7**2 * 11 * 13
        entry = f"{a}*x - {b}"
        path = self.write(tmp_path, {
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [[entry, "y"], ["y", entry]], "t": 2,
            "ambient": {"kind": "affine", "dim": 2}, "singularities": []})
        code, out, err = run_cli("analyze", path, "--json")
        assert code == 0 and err == ""
        report = load(out)["classification"]
        assert report["singular_points"] == [f"({b}/{a}, 0)"]
        assert report["singular_points_exact"] is True

    def test_quadratic_eliminant_with_late_roots(self, run_cli, tmp_path):
        # (33263*x - 907200) (1763*x - 1062347): both roots come after more
        # candidates than the limit, and the quadratic needs no search; the
        # germs are not weighted-homogeneous, so analyze exits 3 after the
        # report
        entry = "58642669*x^2 - 36936241861*x + 963761198400"
        path = self.write(tmp_path, {
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [[entry, "y"], ["y", entry]], "t": 2,
            "ambient": {"kind": "affine", "dim": 2}, "singularities": []})
        code, out, err = run_cli("analyze", path, "--json")
        assert code == 3 and err == ""
        report = load(out)["classification"]
        assert report["singular_points"] == ["(907200/33263, 0)",
                                             "(1062347/1763, 0)"]
        assert report["singular_points_exact"] is True

    def grid_model(self, tmp_path, diagonal, off_diagonal):
        return self.write(tmp_path, {
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [[diagonal, off_diagonal], [off_diagonal, diagonal]],
            "t": 2, "ambient": {"kind": "affine", "dim": 2},
            "singularities": []})

    def test_root_coefficient_bound_stops_the_search(self, run_cli, tmp_path):
        # the eliminant in y is the cubic g, whose leading coefficient
        # 1000003 * 1000033 is past the bound: its three rational roots
        # would need the candidate search, so analyze stops rather than
        # report an empty singular locus
        g = "(1000003*y + 1)*(1000033*y + 1)*(y - 2)"
        code, out, err = run_cli("analyze", self.grid_model(tmp_path, "x - 1", g))
        assert code == 3 and out == ""
        assert err == ("resource limit: rational-root search exceeded its "
                       f"limit of {detvar.MAX_ROOT_COEFFICIENT} on the constant "
                       "and leading coefficients\n")

    def test_linear_eliminant_past_the_coefficient_bound(self, run_cli, tmp_path):
        entry = "10000000000037*y - 3"
        code, out, err = run_cli(
            "analyze", self.grid_model(tmp_path, "x - 1", entry), "--json")
        assert code == 0 and err == ""
        report = load(out)["classification"]
        assert report["singular_points"] == ["(1, 3/10000000000037)"]
        assert report["singular_points_exact"] is True

    def test_linear_eliminant_with_a_42_digit_coefficient(self, run_cli, tmp_path):
        # trial division of the leading coefficient would not finish; the
        # linear root is read off without it
        big = 10**41 + 7
        code, out, err = run_cli(
            "analyze", self.grid_model(tmp_path, "x - 1", f"{big}*y - 3"), "--json")
        assert code == 0 and err == ""
        report = load(out)["classification"]
        assert report["singular_points"] == [f"(1, 3/{big})"]
        assert report["singular_points_exact"] is True

    def test_affine_ledger_unsupported(self, run_cli):
        code, _, err = run_cli("verify", fixture_path("non_quasihomogeneous.json"))
        assert code == 3

    def test_usage_error(self, run_cli):
        code, _, _ = run_cli("index", fixture_path("twisted_cubic_index.json"))
        assert code == 2


class TestLedgerWork:
    """A command builds each basis once and locates each point once.

    "grevlex" counts full bases and "certified" the runs that stopped once
    a dimension floor certified a dimension, with no basis.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = Counter()
        buchberger, rank_at_point = grobner.buchberger, polyalg.rank_at_point
        weights = grobner.quasi_homogeneous_weights
        certified_dimension = grobner.certified_dimension

        def counted_buchberger(ideal, **named):
            seen["grevlex"] += 1
            return buchberger(ideal, **named)

        def counted_certified_dimension(ideal, floor, **named):
            dimension, basis = certified_dimension(ideal, floor, **named)
            seen["certified" if basis is None else "grevlex"] += 1
            return dimension, basis

        def counted_rank_at_point(*args):
            seen["rank_at_point"] += 1
            return rank_at_point(*args)

        def counted_weights(*args):
            seen["weights"] += 1
            return weights(*args)

        counted = {"buchberger": counted_buchberger,
                   "certified_dimension": counted_certified_dimension,
                   "rank_at_point": counted_rank_at_point,
                   "quasi_homogeneous_weights": counted_weights}
        for module in (cli, detvar, grobner, indexcalc, polyalg):
            for name, wrapper in counted.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        return seen

    @pytest.fixture
    def eliminations(self, counts, monkeypatch):
        # counts["eliminate"]: calls of Polynomial.eliminate
        eliminate = polyalg.Polynomial.eliminate

        def counted_eliminate(self, assignments):
            counts["eliminate"] += 1
            return eliminate(self, assignments)

        monkeypatch.setattr(polyalg.Polynomial, "eliminate", counted_eliminate)

    @pytest.mark.parametrize("argv, expected", [
        # both dimensions certify, the lower one by its Krull floor 5 - 4
        # (four distinct 1-minors), and the cstar check builds no basis; the
        # vertex chart's minors are homogeneous, so its weight gate runs no
        # simplex
        (("verify", "twisted_cubic.json"),
         {"certified": 2, "rank_at_point": 6}),
        # both dimensions certify, and no 2-minor splits
        (("index", "segre_cone.json", "--at", "[0:0:0:0:0:0:1]"),
         {"certified": 2, "rank_at_point": 8}),
        # a 2-minor splits, and the cstar check tests the span of the
        # 2-minors, so it builds no basis
        (("index", "segre_cone_column_op.json", "--at", "[0:0:0:0:0:0:1]"),
         {"certified": 2, "rank_at_point": 8}),
        # the lower dimension certifies; only the charted basis is built
        (("groebner", "twisted_cubic.json", "--ideal", "minors"),
         {"grevlex": 1, "certified": 1, "weights": 0}),
        (("groebner", "twisted_cubic.json", "--ideal", "lower"),
         {"grevlex": 1, "certified": 1, "weights": 0}),
        # the form ideal is global: the singular locus is not solved for it
        (("groebner", "form_staircase.json", "--ideal", "form"),
         {"grevlex": 1, "weights": 0}),
    ], ids=["verify_twisted_cubic", "index_segre_cone",
            "index_segre_cone_column_op", "groebner_minors", "groebner_lower",
            "groebner_form"])
    def test_pinned_counts(self, run_cli, counts, tmp_path, argv, expected):
        code, _, _ = run_cli(*_resolve(argv, tmp_path))
        assert code == 0
        # Counter equality treats a missing key as zero
        assert counts == Counter(expected)

    def test_defect_is_evaluated_once_per_call_site(self, run_cli,
                                                    monkeypatch):
        # the ledger's defects block and global_identity each evaluate a
        # record's defect once
        calls = Counter()
        defect = indexcalc.defect

        def counted_defect(record):
            calls[record.point] += 1
            return defect(record)

        for module in (cli, indexcalc):
            if hasattr(module, "defect"):
                monkeypatch.setattr(module, "defect", counted_defect)
        code, out, _ = run_cli("verify", fixture_path("twisted_cubic.json"),
                               "--json")
        assert code == 0
        points = [d["point"] for d in load(out)["ledger"]["defects"]]
        assert points == ["[0:0:0:0:1]"]
        assert calls == Counter({point: 2 for point in points})

    @pytest.mark.parametrize("k", [3, 6])
    def test_hankel_cone_takes_no_pair(self, run_cli, counts, monkeypatch,
                                       tmp_path, k):
        # analyze of the Hankel 2 x k cone in P^(k+1), the twisted cubic at
        # k = 3: the rank ideal's floor comes from Eagon-Northcott, and the
        # lower ideal's from its k + 1 distinct 1-minors (Krull), which
        # their own leading monomials meet, so no Buchberger run starts; the
        # vertex chart's minors are homogeneous, so no weight simplex runs
        run, s_pair = grobner._buchberger, grobner._s_pair

        def counted_run(*args):
            counts["runs"] += 1
            return run(*args)

        def counted_s_pair(*args):
            counts["s_pair"] += 1
            return s_pair(*args)

        monkeypatch.setattr(grobner, "_buchberger", counted_run)
        monkeypatch.setattr(grobner, "_s_pair", counted_s_pair)
        path = tmp_path / f"hankel_2x{k}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": [f"x{i}" for i in range(k + 2)],
            "matrix": [[f"x{i}" for i in range(k)],
                       [f"x{i}" for i in range(1, k + 1)]],
            "t": 2, "ambient": {"kind": "projective", "dim": k + 1},
            "singularities": []}))
        code, out, _ = run_cli("analyze", path, "--json")
        assert code == 0
        report = load(out)["classification"]
        assert (report["dimension"], report["singular_locus_dimension"]) == (2, 1)
        assert report["singular_points"] == [f"[{'0:' * (k + 1)}1]"]
        assert counts == Counter({"certified": 2})

    def test_uncharted_lower_ideal_is_reduced_once(self, run_cli, counts,
                                                   tmp_path):
        # with no singular point to chart, groebner --ideal lower presents
        # the lower basis; here lower_stratum_points only certifies the
        # dimension 5 of the 2-minors, so the command builds the one basis
        path = tmp_path / "generic_3x3_t3.json"
        path.write_text(json.dumps(GENERIC_3X3))
        code, out, _ = run_cli("groebner", path, "--ideal", "lower", "--json")
        assert code == 0
        assert load(out)["groebner"]["chart_point"] is None
        assert counts == Counter({"grevlex": 1, "certified": 1})


    def test_empty_projective_locus_is_not_searched(self, run_cli, counts,
                                                    eliminations, monkeypatch,
                                                    tmp_path):
        # generic 2 x 4, t = 2 in P^7: the 1-minors are the variables, whose
        # only zero is the origin, so the lower stratum has no projective
        # point and no cell is eliminated or solved
        for name in ("_projective_points", "_solve_zero_dimensional"):
            def solver(*args, name=name):
                counts[name] += 1
                raise AssertionError(f"{name} searched an empty locus")
            monkeypatch.setattr(detvar, name, solver)
        path = tmp_path / "generic_2x4_t2.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": [f"x{i}" for i in range(8)],
            "matrix": [["x0", "x1", "x2", "x3"], ["x4", "x5", "x6", "x7"]],
            "t": 2, "ambient": {"kind": "projective", "dim": 7},
            "singularities": []}))
        code, out, _ = run_cli("analyze", path, "--json")
        assert code == 0
        report = load(out)["classification"]
        assert report["singular_locus_dimension"] == 0
        assert report["singular_points"] == []
        assert report["singular_points_exact"] is True
        assert counts == Counter({"certified": 2})

    def test_cone_vertex_gate_runs_no_simplex(self, run_cli, counts):
        # the twisted cubic's only singular point is the cone's vertex,
        # whose chart minors are homogeneous
        code, out, _ = run_cli("analyze", fixture_path("twisted_cubic.json"),
                               "--json")
        assert code == 0
        assert load(out)["classification"]["local_supported"] is True
        assert counts["weights"] == 0

    def test_inhomogeneous_charts_run_the_simplex(self, run_cli, counts,
                                                  tmp_path):
        # a curve in P^2 singular at [0:0:1] and [1:0:0], where neither
        # chart's minors are homogeneous: each support runs the simplex,
        # which finds no weights
        path = tmp_path / "p2_two_points.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": ["x0", "x1", "x2"],
            "matrix": [["x0*x2^2", "x1*x2^2"],
                       ["x1*x2^2", "x0^2*x2 + x1^3 - x1^2*x2"]],
            "t": 2, "ambient": {"kind": "projective", "dim": 2},
            "singularities": []}))
        code, out, _ = run_cli("analyze", path, "--json")
        assert code == 3
        report = load(out)["classification"]
        assert report["singular_points"] == ["[0:0:1]", "[1:0:0]"]
        assert report["local_supported"] is False
        assert report["notes"] == [
            f"chart ideal at {point} is not weighted-homogeneous; symbolic "
            "local computations are unsupported"
            for point in ("[0:0:1]", "[1:0:0]")]
        assert counts["weights"] == 2

    def test_projective_cells_restrict_distinct_generators(
            self, run_cli, counts, eliminations, tmp_path):
        # Hankel 2 x 4 in P^5, the cone over the rational normal quartic:
        # its 1-minors list x1, x2 and x3 twice.  Cell i sets x_i = 1 in the
        # distinct generators left nonzero by the cells before it and stops
        # at x_i, which becomes 1: one call per cell, five in all, next to
        # the five that chart the vertex.  Restricting to x_i = 0 for the
        # later cells makes no call.  Eliminating both ways in every
        # generator made 35 calls, and substituting every earlier coordinate
        # anew, per cell, 53.
        path = tmp_path / "hankel_2x4.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": [f"x{i}" for i in range(6)],
            "matrix": [["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "x4"]],
            "t": 2, "ambient": {"kind": "projective", "dim": 5},
            "singularities": []}))
        code, out, _ = run_cli("analyze", path, "--json")
        assert code == 0
        report = load(out)["classification"]
        assert report["singular_points"] == ["[0:0:0:0:0:1]"]
        assert report["singular_points_exact"] is True
        assert counts["eliminate"] == 10


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

    def test_script_entry_exits_with_the_code_of_main(self, monkeypatch,
                                                      capsys):
        # the `detsing` console script: main's exit code leaves as SystemExit
        for argv, code in ((["analyze", fixture_path("twisted_cubic.json")], 0),
                           (["euler", fixture_path("twisted_cubic.json")], 2)):
            monkeypatch.setattr(sys, "argv", ["detsing", *argv])
            with pytest.raises(SystemExit) as stop:
                cli.main_script()
            assert stop.value.code == code
        out, err = capsys.readouterr()
        assert out.startswith("command: analyze")
        assert err.startswith("error: ")

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
