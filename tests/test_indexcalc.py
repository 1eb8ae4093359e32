import pytest

from detsing.detvar import (
    AFFINE,
    ESSENTIAL_SINGULAR,
    PROJECTIVE,
    SMOOTH_STRATUM,
    AmbientSpace,
    DeterminantalModel,
    classify,
)
from detsing.indexcalc import (
    ROLE_SMOOTH_FORM_POINT,
    ROLE_VARIETY_SINGULARITY,
    SOLVED,
    VERIFIED,
    VIOLATED,
    IdentityResult,
    IndexLedger,
    LedgerEntry,
    LedgerError,
    RadialDecomposition,
    SingularPointRecord,
    cstar_fixed_points,
    defect,
    defect_known,
    global_identity,
    phn_from_radial,
    phn_from_radial_nonsmoothable,
    radial_from_decomposition,
)
from detsing.polyalg import PolyMatrix
from detsing.topo import MilnorData, chi_smoothing

P4 = ("x0", "x1", "x2", "x3", "x4")
VERTEX = "[0:0:0:0:1]"


def catalecticant_model():
    grid = [["x0", "x1", "x2"], ["x1", "x2", "x3"]]
    return DeterminantalModel(
        PolyMatrix.from_strings(grid, P4), 2, AmbientSpace(PROJECTIVE, 4)
    )


def cone_record(**overrides):
    fields = dict(point=VERTEX, n=2, p=3, t=2, d=2, smoothable=True, mu=1)
    fields.update(overrides)
    return SingularPointRecord(**fields)


def apex_record(chi=1, lower=1):
    return SingularPointRecord(
        point="[0:0:0:0:0:0:1]",
        n=2,
        p=3,
        t=2,
        d=4,
        smoothable=False,
        chi_smoothing=chi,
        chi_lower_stratum=lower,
    )


class TestRecordValidation:
    def test_valid_record(self):
        rec = cone_record()
        assert rec.resolved_chi_smoothing() == 2
        assert rec.mu_linked()

    def test_codimension_must_be_two(self):
        with pytest.raises(LedgerError):
            cone_record(n=3, p=3)

    def test_t_range(self):
        with pytest.raises(LedgerError):
            cone_record(t=5)

    def test_smoothable_flag_must_match_bound(self):
        with pytest.raises(LedgerError):
            cone_record(smoothable=False)
        with pytest.raises(LedgerError):
            cone_record(d=4, smoothable=True, mu=None)

    def test_negative_mu(self):
        with pytest.raises(LedgerError):
            cone_record(mu=-1)

    def test_chi_conflicting_with_mu(self):
        with pytest.raises(LedgerError):
            cone_record(chi_smoothing=5)

    def test_chi_consistent_with_mu(self):
        rec = cone_record(chi_smoothing=2)
        assert defect(rec) == 2

    def test_transposed_type_does_not_link_mu(self):
        # with p = 2 the slice guard 2p > d + 2 fails for d = 2
        rec = SingularPointRecord(
            point="q", n=3, p=2, t=2, d=2, smoothable=True, mu=1
        )
        assert not rec.mu_linked()
        assert rec.resolved_chi_smoothing() is None
        with pytest.raises(LedgerError):
            defect(rec)

    def test_explicit_chi_fills_the_gap(self):
        rec = SingularPointRecord(
            point="q", n=3, p=2, t=2, d=2, smoothable=True, chi_smoothing=2
        )
        assert defect(rec) == 2


class TestDefect:
    @pytest.mark.parametrize("mu", range(0, 101, 7))
    def test_surface_defect(self, mu):
        assert defect(cone_record(mu=mu)) == 1 + mu

    @pytest.mark.parametrize("mu", range(0, 101, 7))
    def test_threefold_defect(self, mu):
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=3, smoothable=True, mu=mu
        )
        assert defect(rec) == mu

    @pytest.mark.parametrize("chi", range(-3, 4))
    def test_nonsmoothable_defect(self, chi):
        assert defect(apex_record(chi=chi)) == chi + 2

    def test_nonsmoothable_needs_lower_stratum(self):
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=4, smoothable=False, chi_smoothing=1
        )
        assert not defect_known(rec)
        with pytest.raises(LedgerError):
            defect(rec)

    def test_unresolvable_without_data(self):
        rec = cone_record(mu=None)
        assert not defect_known(rec)
        with pytest.raises(LedgerError):
            defect(rec)


class TestRadialBridge:
    def test_radial_index_values(self):
        assert radial_from_decomposition(RadialDecomposition()) == 1
        assert radial_from_decomposition(RadialDecomposition((1, 1))) == 3
        assert radial_from_decomposition(RadialDecomposition((-1,))) == 0
        assert RadialDecomposition((2, 0, 1)).count == 3

    def test_surface_example(self):
        assert phn_from_radial(1, 2, 2) == 2

    def test_threefold_example(self):
        assert phn_from_radial(1, 3, 2) == 0

    @pytest.mark.parametrize("d", (2, 3))
    def test_chi_one_is_neutral(self, d):
        for radial in (-2, 0, 1, 5):
            assert phn_from_radial(radial, d, 1) == radial

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("mu", range(21))
    def test_radial_one_reproduces_defect(self, d, mu):
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=d, smoothable=True, mu=mu
        )
        chi = chi_smoothing(MilnorData(d=d, mu=mu))
        assert phn_from_radial(1, d, chi) == defect(rec)

    @pytest.mark.parametrize("chi", range(-2, 3))
    def test_nonsmoothable_bridge(self, chi):
        rec = apex_record(chi=chi)
        assert phn_from_radial_nonsmoothable(1, rec) == defect(rec)
        assert phn_from_radial_nonsmoothable(0, rec) == defect(rec) - 1

    def test_vanishing_lower_stratum_reduces_to_plain_bridge(self):
        rec = apex_record(chi=1, lower=0)
        assert phn_from_radial_nonsmoothable(2, rec) == phn_from_radial(2, 4, 1)

    def test_smoothable_record_rejected(self):
        with pytest.raises(LedgerError):
            phn_from_radial_nonsmoothable(1, cone_record())


def cone_ledger(vertex_index=3, chi_x=3):
    entries = (
        LedgerEntry(VERTEX, ROLE_VARIETY_SINGULARITY, vertex_index),
        LedgerEntry("[1:0:0:0:0]", ROLE_SMOOTH_FORM_POINT, 1),
        LedgerEntry("[0:0:0:1:0]", ROLE_SMOOTH_FORM_POINT, 1),
    )
    return IndexLedger(entries, chi_x=chi_x)


class TestGlobalIdentity:
    def test_verified(self):
        got = global_identity(cone_ledger(), [cone_record()])
        assert got == IdentityResult(VERIFIED, lhs=5, rhs=5)

    def test_violated(self):
        got = global_identity(cone_ledger(chi_x=4), [cone_record()])
        assert got == IdentityResult(VIOLATED, lhs=5, rhs=6)

    def test_solve_index(self):
        got = global_identity(cone_ledger(vertex_index=None), [cone_record()])
        assert got.status == SOLVED
        assert got.name == f"index@{VERTEX}"
        assert got.value == 3
        assert got.lhs == got.rhs == 5

    def test_solve_chi(self):
        got = global_identity(cone_ledger(chi_x=None), [cone_record()])
        assert (got.status, got.name, got.value) == (SOLVED, "chi_X", 3)

    def test_solve_mu(self):
        got = global_identity(cone_ledger(), [cone_record(mu=None)])
        assert (got.status, got.name, got.value) == (SOLVED, f"mu@{VERTEX}", 1)

    def test_solved_mu_round_trip(self):
        # substitute the solved mu back and the ledger must verify
        solved = global_identity(cone_ledger(), [cone_record(mu=None)])
        again = global_identity(cone_ledger(), [cone_record(mu=solved.value)])
        assert again.status == VERIFIED

    def test_negative_solved_mu_rejected(self):
        ledger = cone_ledger(vertex_index=0)
        with pytest.raises(LedgerError):
            global_identity(ledger, [cone_record(mu=None)])

    def test_two_unknowns_rejected(self):
        ledger = cone_ledger(vertex_index=None, chi_x=None)
        with pytest.raises(LedgerError):
            global_identity(ledger, [cone_record()])

    def test_unknown_defect_must_be_mu_linked(self):
        entries = (LedgerEntry("q", ROLE_VARIETY_SINGULARITY, 1),)
        rec = SingularPointRecord(
            point="q", n=3, p=2, t=2, d=2, smoothable=True, mu=1
        )
        with pytest.raises(LedgerError):
            global_identity(IndexLedger(entries, chi_x=0), [rec])

    def test_duplicate_entries_rejected(self):
        entries = (
            LedgerEntry(VERTEX, ROLE_VARIETY_SINGULARITY, 3),
            LedgerEntry(VERTEX, ROLE_SMOOTH_FORM_POINT, 1),
        )
        with pytest.raises(LedgerError):
            global_identity(IndexLedger(entries, chi_x=3), [cone_record()])

    def test_record_point_mismatch_rejected(self):
        with pytest.raises(LedgerError):
            global_identity(cone_ledger(), [cone_record(point="[1:0:0:0:0]")])

    def test_mixed_matrix_types_rejected(self):
        entries = (
            LedgerEntry("a", ROLE_VARIETY_SINGULARITY, 1),
            LedgerEntry("b", ROLE_VARIETY_SINGULARITY, 1),
        )
        recs = [
            SingularPointRecord(point="a", n=2, p=3, t=2, d=2, smoothable=True, mu=0),
            SingularPointRecord(point="b", n=3, p=2, t=2, d=2, smoothable=True,
                                chi_smoothing=2),
        ]
        with pytest.raises(LedgerError):
            global_identity(IndexLedger(entries, chi_x=0), recs)

    def test_classical_smooth_ledger(self):
        entries = (
            LedgerEntry("[1:0]", ROLE_SMOOTH_FORM_POINT, 1),
            LedgerEntry("[0:1]", ROLE_SMOOTH_FORM_POINT, 1),
        )
        got = global_identity(IndexLedger(entries, chi_x=2), [])
        assert got.status == VERIFIED

    def test_bad_role_rejected(self):
        with pytest.raises(LedgerError):
            LedgerEntry("p", "somewhere")


class TestCStarForms:
    def test_repeated_weights_rejected(self):
        model = catalecticant_model()
        with pytest.raises(ValueError, match="pairwise distinct"):
            cstar_fixed_points(model, (0, 1, 1, 3, 4),
                               classify(model).rank_basis)

    def test_catalecticant_fixed_points(self):
        model = catalecticant_model()
        got = cstar_fixed_points(model, (0, 1, 2, 3, 4),
                                 classify(model).rank_basis)
        labels = [(str(p), loc.kind) for p, loc in got]
        assert labels == [
            ("[1:0:0:0:0]", SMOOTH_STRATUM),
            ("[0:0:0:1:0]", SMOOTH_STRATUM),
            ("[0:0:0:0:1]", ESSENTIAL_SINGULAR),
        ]

    def test_conic_fixed_points(self):
        m = PolyMatrix.from_strings([["x0*x2 - x1^2"]], ("x0", "x1", "x2"))
        model = DeterminantalModel(m, 1, AmbientSpace(PROJECTIVE, 2))
        got = cstar_fixed_points(model, (0, 1, 2), classify(model).rank_basis)
        labels = [(str(p), loc.kind) for p, loc in got]
        assert labels == [("[1:0:0]", SMOOTH_STRATUM), ("[0:0:1]", SMOOTH_STRATUM)]

    def test_non_invariant_action_rejected(self):
        m = PolyMatrix.from_strings([["x0*x2 - x1^2"]], ("x0", "x1", "x2"))
        model = DeterminantalModel(m, 1, AmbientSpace(PROJECTIVE, 2))
        with pytest.raises(ValueError):
            cstar_fixed_points(model, (0, 2, 1), classify(model).rank_basis)

    def test_affine_rejected(self):
        m = PolyMatrix.from_strings([["x"]], ("x", "y"))
        model = DeterminantalModel(m, 1, AmbientSpace(AFFINE, 2))
        with pytest.raises(ValueError):
            cstar_fixed_points(model, (0, 1), classify(model).rank_basis)

    def test_weight_count_mismatch(self):
        model = catalecticant_model()
        with pytest.raises(ValueError):
            cstar_fixed_points(model, (0, 1, 2), classify(model).rank_basis)
