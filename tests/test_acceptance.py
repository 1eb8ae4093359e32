"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line after its assertions; running with -v
also yields one status line per criterion from pytest itself.
"""

import json
import time

from conftest import fixture_path
from test_grobner import (QUOTIENT_TABLE, brute_force_quotient_dimension,
                          is_groebner_basis)

from detsing.grobner import Ideal, buchberger, ideal_dimension, quotient_dimension
from detsing.indexcalc import SingularPointRecord, defect, phn_from_radial
from detsing.polyalg import parse_polynomial
from detsing.topo import (
    HOLDS,
    INSUFFICIENT_DATA,
    VIOLATED,
    BouquetDescriptor,
    CWDescriptor,
    MilnorData,
    chi_bouquet,
    chi_cw,
    chi_smoothing,
    le_greuel_check,
)

P4 = ("x0", "x1", "x2", "x3", "x4")
CONE_FIXTURE = fixture_path("twisted_cubic.json")


def test_acceptance_1_cone_identity_verifies_quickly(run_cli):
    started = time.perf_counter()
    code, out, err = run_cli("verify", CONE_FIXTURE, "--json")
    elapsed = time.perf_counter() - started
    assert code == 0, err
    report = json.loads(out)
    assert report["identity"] == {
        "status": "verified",
        "lhs": 5,
        "rhs": 5,
        "name": None,
        "value": None,
    }
    assert report["ledger"]["chi_X"] == 3
    assert report["ledger"]["defects"] == [{"point": "[0:0:0:0:1]", "defect": 2}]
    indices = {e["point"]: e["index"] for e in report["ledger"]["entries"]}
    assert indices == {"[0:0:0:0:1]": 3, "[1:0:0:0:0]": 1, "[0:0:0:1:0]": 1}
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: verify 1+1+3 = 3+2 in {elapsed:.2f}s")


def test_acceptance_2_euler_and_index_solvers(run_cli):
    code, out, _ = run_cli("euler", fixture_path("twisted_cubic_euler.json"), "--json")
    assert code == 0
    euler = json.loads(out)["identity"]
    assert (euler["status"], euler["name"], euler["value"]) == ("solved", "chi_X", 3)

    code, out, _ = run_cli(
        "index", fixture_path("twisted_cubic_index.json"), "--at", "[0:0:0:0:1]", "--json"
    )
    assert code == 0
    index = json.loads(out)["identity"]
    assert (index["status"], index["value"]) == ("solved", 3)
    assert index["name"] == "index@[0:0:0:0:1]"
    print("ACCEPTANCE 2 PASS: solved chi_X = 3 and vertex index = 3")


def test_acceptance_3_cone_classification(run_cli):
    code, out, _ = run_cli("analyze", CONE_FIXTURE, "--json")
    assert code == 0
    got = json.loads(out)["classification"]
    assert got["empty"] is False
    assert got["codimension"] == 2
    assert got["dimension"] == 2
    assert got["determinantal"] is True
    assert got["isolated_singularity"] is True
    assert got["smoothable"] is True
    assert got["singular_points"] == ["[0:0:0:0:1]"]
    assert got["singular_points_exact"] is True
    assert got["local_supported"] is True
    print("ACCEPTANCE 3 PASS: codim 2 surface cone, isolated vertex, smoothable")


def test_acceptance_4_defect_formulas():
    for mu in range(101):
        surface = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=2, smoothable=True, mu=mu
        )
        assert defect(surface) == 1 + mu
        threefold = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=3, smoothable=True, mu=mu
        )
        assert defect(threefold) == mu
    for chi in range(-5, 6):
        apex = SingularPointRecord(
            point="a", n=2, p=3, t=2, d=4, smoothable=False,
            chi_smoothing=chi, chi_lower_stratum=1,
        )
        assert defect(apex) == chi + 2
    print("ACCEPTANCE 4 PASS: defects 1+mu, mu and chi+2 across the ranges")


def test_acceptance_5_consistency_check_on_synthetic_instances():
    checked = 0
    for d in (2, 3):
        for mu in range(5):
            for mu_slice in range(3):
                extra = 1 if d == 3 else 0
                good = MilnorData(d=d, mu=mu, m_d=mu + mu_slice + extra,
                                  mu_slice=mu_slice)
                assert le_greuel_check(good).status == HOLDS
                bad = MilnorData(d=d, mu=mu, m_d=mu + mu_slice + extra + 1,
                                 mu_slice=mu_slice)
                assert le_greuel_check(bad).status == VIOLATED
                checked += 2
    missing = MilnorData(d=2, mu=4)
    assert le_greuel_check(missing).status == INSUFFICIENT_DATA
    out_of_scope = MilnorData(d=4, mu=1, m_d=2, mu_slice=1)
    assert le_greuel_check(out_of_scope).status == INSUFFICIENT_DATA
    checked += 2
    assert checked >= 50
    print(f"ACCEPTANCE 5 PASS: {checked} synthetic consistency instances classified")


def test_acceptance_6_groebner_engine_against_oracles():
    started = time.perf_counter()
    minors = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
    quads = ("x1^2 - x0*x2", "x1*x2 - x0*x3", "x2^2 - x1*x3")
    source = Ideal(P4[:4], [parse_polynomial(s, P4[:4]) for s in minors])
    basis = buchberger(source)
    assert is_groebner_basis(basis)
    assert list(basis.polynomials) == [parse_polynomial(s, P4[:4]) for s in quads]
    assert ideal_dimension(basis) == 2

    for texts, variables, expected in QUOTIENT_TABLE:
        zero_dim = buchberger(
            Ideal(variables, [parse_polynomial(t, variables) for t in texts])
        )
        assert is_groebner_basis(zero_dim)
        oracle = brute_force_quotient_dimension(zero_dim.polynomials, variables)
        assert quotient_dimension(zero_dim) == oracle == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 PASS: bases and staircase oracle agree in {elapsed:.2f}s")


def test_acceptance_7_euler_characteristic_models():
    import itertools

    for count in range(7):
        for dims in itertools.combinations_with_replacement((1, 2, 3, 4), count):
            cells = [1] + [0] * 4
            for k in dims:
                cells[k] += 1
            assert chi_bouquet(BouquetDescriptor(dims)) == chi_cw(CWDescriptor(cells))
    for mu in range(21):
        surface = MilnorData(d=2, mu=mu)
        assert chi_smoothing(surface) == chi_bouquet(BouquetDescriptor((2,) * mu))
        threefold = MilnorData(d=3, mu=mu)
        assert chi_smoothing(threefold) == chi_bouquet(
            BouquetDescriptor((2,) + (3,) * mu)
        )
    print("ACCEPTANCE 7 PASS: cell and bouquet Euler characteristics agree")


def test_acceptance_8_radial_bridge_matches_defect():
    for d in (2, 3):
        for mu in range(21):
            record = SingularPointRecord(
                point="v", n=2, p=3, t=2, d=d, smoothable=True, mu=mu
            )
            chi = chi_smoothing(MilnorData(d=d, mu=mu))
            assert phn_from_radial(1, d, chi) == defect(record)
    print("ACCEPTANCE 8 PASS: radial index 1 reproduces every defect")
