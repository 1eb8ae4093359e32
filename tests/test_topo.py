import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsing.topo import (
    HOLDS,
    INSUFFICIENT_DATA,
    VIOLATED,
    BouquetDescriptor,
    CWDescriptor,
    MilnorData,
    UnsupportedDimensionError,
    chi_bouquet,
    chi_cw,
    chi_smoothing,
    le_greuel_check,
)


class TestEulerCharacteristics:
    def test_sphere_cw(self):
        # S^2 as one 0-cell and one 2-cell
        assert chi_cw(CWDescriptor((1, 0, 1))) == 2

    def test_projective_cone_cw(self):
        assert chi_cw(CWDescriptor((2, 1, 2, 1, 1))) == 3

    def test_point(self):
        assert chi_cw(CWDescriptor((1,))) == 1
        assert chi_bouquet(BouquetDescriptor(())) == 1

    def test_wedge_of_circles(self):
        assert chi_bouquet(BouquetDescriptor((1, 1, 1))) == -2

    def test_negative_cell_count_rejected(self):
        with pytest.raises(ValueError):
            CWDescriptor((1, -1))

    def test_zero_dimensional_sphere_rejected(self):
        with pytest.raises(ValueError):
            BouquetDescriptor((0,))

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=6))
    def test_bouquet_agrees_with_cw_model(self, dims):
        # wedge point plus one k-cell per sphere
        cells = [1] + [0] * (max(dims) if dims else 0)
        for k in dims:
            cells[k] += 1
        assert chi_bouquet(BouquetDescriptor(dims)) == chi_cw(CWDescriptor(cells))


class TestChiSmoothing:
    @pytest.mark.parametrize("mu", range(21))
    def test_surface_case_matches_bouquet(self, mu):
        data = MilnorData(d=2, mu=mu)
        assert chi_smoothing(data) == chi_bouquet(BouquetDescriptor((2,) * mu))

    @pytest.mark.parametrize("mu", range(21))
    def test_threefold_case_matches_bouquet(self, mu):
        # smoothing carries one 2-sphere and mu 3-spheres
        data = MilnorData(d=3, mu=mu)
        assert chi_smoothing(data) == chi_bouquet(BouquetDescriptor((2,) + (3,) * mu))

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            chi_smoothing(MilnorData(d=4, mu=1))

    def test_missing_mu(self):
        with pytest.raises(ValueError):
            chi_smoothing(MilnorData(d=2))

    def test_negative_invariants_rejected(self):
        with pytest.raises(ValueError):
            MilnorData(d=2, mu=-1)


class TestLeGreuel:
    def test_surface_holds(self):
        data = MilnorData(d=2, mu=1, m_d=2, mu_slice=1)
        got = le_greuel_check(data)
        assert (got.status, got.lhs, got.rhs) == (HOLDS, 2, 2)

    def test_threefold_defaults_b2(self):
        data = MilnorData(d=3, mu=2, m_d=5, mu_slice=2)
        got = le_greuel_check(data)
        assert (got.status, got.lhs, got.rhs) == (HOLDS, 5, 5)

    def test_threefold_explicit_b2(self):
        data = MilnorData(d=3, mu=2, b2=0, m_d=4, mu_slice=2)
        assert le_greuel_check(data).status == HOLDS

    def test_violation(self):
        data = MilnorData(d=2, mu=1, m_d=7, mu_slice=1)
        got = le_greuel_check(data)
        assert (got.status, got.lhs, got.rhs) == (VIOLATED, 7, 2)

    def test_missing_fields(self):
        assert le_greuel_check(MilnorData(d=2, mu=1)).status == INSUFFICIENT_DATA
        assert le_greuel_check(MilnorData(d=2, m_d=3)).status == INSUFFICIENT_DATA

    def test_dimension_out_of_scope(self):
        data = MilnorData(d=5, mu=1, m_d=2, mu_slice=1)
        assert le_greuel_check(data).status == INSUFFICIENT_DATA

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=5),
    )
    def test_constructed_instances_hold(self, d, mu, mu_slice, b2):
        rhs = mu_slice + mu + (b2 if d == 3 else 0)
        data = MilnorData(d=d, mu=mu, b2=b2, m_d=rhs, mu_slice=mu_slice)
        assert le_greuel_check(data).status == HOLDS

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=9),
    )
    def test_perturbed_instances_violated(self, d, mu, mu_slice, offset):
        rhs = mu_slice + mu + (1 if d == 3 else 0)
        data = MilnorData(d=d, mu=mu, m_d=rhs + offset, mu_slice=mu_slice)
        got = le_greuel_check(data)
        assert got.status == VIOLATED
        assert got.lhs - got.rhs == offset
