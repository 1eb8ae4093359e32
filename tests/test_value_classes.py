"""Construction, validation and equality of the library's value classes.

Each class is built positionally, by keyword and from its defaults; every
check its constructor makes is pinned by exception type and exact message;
equality and hashing are pinned where the library, README or tests compare or
hash instances.  The attributes the benchmark tracer reads (`polynomials`,
`generators`, `singular_points`) are read here too.
"""

from fractions import Fraction

import pytest

from detsing.detvar import (AFFINE, ESSENTIAL_SINGULAR, PROJECTIVE,
                            SMOOTH_STRATUM, AmbientSpace, DeterminantalModel,
                            GermClassification, ProjectivePoint, classify,
                            parse_point)
from detsing.grobner import GroebnerBasis, Ideal, buchberger
from detsing.indexcalc import (SOLVED, VERIFIED, IdentityResult,
                               LedgerError, SingularPointRecord,
                               cstar_fixed_points, global_identity)
from detsing.polyalg import PolyMatrix, Polynomial, parse_polynomial
from detsing.topo import (HOLDS, BouquetDescriptor, CWDescriptor,
                          LeGreuelResult, MilnorData)

CONE_VARS = ("x0", "x1", "x2", "x3", "x4")


def cone_matrix():
    return PolyMatrix.from_strings(
        [["x0", "x1", "x2"], ["x1", "x2", "x3"]], CONE_VARS)


def coordinate_space(count):
    """The projective space of `count` coordinates, as the model whose one
    row is its coordinates at t = 1, to read points in."""
    variables = tuple(f"x{i}" for i in range(count))
    return DeterminantalModel(PolyMatrix.from_strings([variables], variables),
                              1, AmbientSpace(PROJECTIVE, count - 1))


def raises_exactly(exc, message, build):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


class TestAmbientSpace:
    def test_positional_and_keyword(self):
        for space in (AmbientSpace(PROJECTIVE, 4),
                      AmbientSpace(kind=PROJECTIVE, dim=4)):
            assert (space.kind, space.dim) == (PROJECTIVE, 4)

    def test_unknown_kind(self):
        raises_exactly(ValueError, "unknown ambient kind 'toric'",
                       lambda: AmbientSpace("toric", 2))

    @pytest.mark.parametrize("dim", [0, -1, 2.0, "3", True])
    def test_dimension_must_be_a_positive_integer(self, dim):
        raises_exactly(ValueError, "ambient dimension must be a positive integer",
                       lambda: AmbientSpace(AFFINE, dim))


class TestProjectivePoint:
    def test_positional_and_keyword_normalize(self):
        for point in (ProjectivePoint((0, -4, 6)),
                      ProjectivePoint(coords=[0, Fraction(-8, 2), 6])):
            assert point.coords == (0, 2, -3)
            assert type(point.coords) is tuple

    def test_equal_points_compare_and_hash_equal(self):
        a, b = ProjectivePoint((2, 4, 0)), ProjectivePoint((-1, -2, 0))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b, ProjectivePoint((1, 0, 0))}) == 2
        assert a != ProjectivePoint((1, 2, 1))
        assert a != (1, 2, 0)

    def test_float_coordinate(self):
        raises_exactly(TypeError, "exact rational required, got float",
                       lambda: ProjectivePoint((1.0, 2)))

    def test_non_integral_coordinate(self):
        # the constructor scales a rational representative to integers; the
        # text grammar of `parse_point` still takes integer entries only
        assert ProjectivePoint((Fraction(1, 2), 1)).coords == (1, 2)
        raises_exactly(ValueError,
                       "projective point entries must be integers, got '[1/2:1]'",
                       lambda: parse_point("[1/2:1]", coordinate_space(2)))

    @pytest.mark.parametrize("coords", [(), (0, 0, 0)])
    def test_needs_a_nonzero_coordinate(self, coords):
        raises_exactly(ValueError, "projective point needs a nonzero coordinate",
                       lambda: ProjectivePoint(coords))

    def test_parse_and_fractions_build_the_same_point(self):
        assert (parse_point("[2:4:0]", coordinate_space(3))
                == ProjectivePoint((1, 2, 0)))
        point = ProjectivePoint([Fraction(1, 2), Fraction(1, 3)])
        assert point.coords == (3, 2)
        assert str(point) == "[3:2]"
        assert point == parse_point("[3:2]", coordinate_space(2))


class TestDeterminantalModel:
    def test_positional_and_keyword(self):
        matrix, ambient = cone_matrix(), AmbientSpace(PROJECTIVE, 4)
        for model in (DeterminantalModel(matrix, 2, ambient),
                      DeterminantalModel(matrix=matrix, t=2, ambient=ambient)):
            assert model.matrix is matrix and model.ambient is ambient
            assert model.t == 2
            assert (model.n, model.p, model.variables) == (2, 3, CONE_VARS)
            assert model.expected_codimension() == 2
            assert model.smoothability_bound() == 6
            assert model.smoothable_type()

    @pytest.mark.parametrize("t", [0, 3, 2.0, True])
    def test_threshold_range(self, t):
        raises_exactly(ValueError, "t must satisfy 1 <= t <= min(n, p) = 2",
                       lambda: DeterminantalModel(cone_matrix(), t,
                                                  AmbientSpace(PROJECTIVE, 4)))

    def test_variable_count(self):
        raises_exactly(ValueError,
                       "projective dimension 3 needs 4 variables, matrix has 5",
                       lambda: DeterminantalModel(cone_matrix(), 2,
                                                  AmbientSpace(PROJECTIVE, 3)))
        raises_exactly(ValueError,
                       "affine dimension 4 needs 4 variables, matrix has 5",
                       lambda: DeterminantalModel(cone_matrix(), 2,
                                                  AmbientSpace(AFFINE, 4)))

    def test_projective_entries_share_a_degree(self):
        matrix = PolyMatrix.from_strings([["x0", "x1^2"], ["x1", "x0"]],
                                         ("x0", "x1"))
        raises_exactly(ValueError,
                       "projective mode requires homogeneous entries of a common degree",
                       lambda: DeterminantalModel(matrix, 2,
                                                  AmbientSpace(PROJECTIVE, 1)))


class TestGermClassification:
    FIELDS = ("empty", "codimension", "dimension", "determinantal",
              "isolated_singularity", "smoothable", "singular_points",
              "singular_points_exact", "singular_locus_dimension",
              "local_supported", "notes", "point_labels")

    def test_positional_and_keyword(self):
        values = tuple(range(len(self.FIELDS)))
        for info in (GermClassification(*values),
                     GermClassification(**dict(zip(self.FIELDS, values)))):
            assert tuple(getattr(info, f) for f in self.FIELDS) == values

    def test_classify_fills_every_field(self):
        model = DeterminantalModel(cone_matrix(), 2, AmbientSpace(PROJECTIVE, 4))
        info = classify(model)
        assert [str(p) for p in info.singular_points] == ["[0:0:0:0:1]"]
        assert (info.empty, info.codimension, info.dimension) == (False, 2, 2)
        assert info.determinantal and info.isolated_singularity
        assert info.smoothable and info.singular_points_exact
        assert info.singular_locus_dimension == 1 and info.local_supported
        assert isinstance(info.notes, tuple)
        assert info.point_labels == ("[0:0:0:0:1]",)
        # a plain record: no basis and no hidden state
        assert GermClassification.__slots__ == self.FIELDS


class TestIdeal:
    def test_positional_and_keyword_drop_zero_generators(self):
        x = parse_polynomial("x", ("x", "y"))
        zero = Polynomial(("x", "y"))
        for ideal in (Ideal(["x", "y"], [x, zero]),
                      Ideal(variables=("x", "y"), generators=iter([zero, x]))):
            assert ideal.variables == ("x", "y")
            assert ideal.generators == (x,)

    def test_generators_must_be_polynomials(self):
        raises_exactly(ValueError, "generators must be polynomials",
                       lambda: Ideal(("x",), ["x"]))

    def test_generators_share_the_variables(self):
        raises_exactly(ValueError, "generators must share the ideal's variable list",
                       lambda: Ideal(("x", "y"), [parse_polynomial("x", ("x",))]))


class TestGroebnerBasis:
    def test_positional_and_keyword(self):
        x = parse_polynomial("x", ("x", "y"))
        for gb in (GroebnerBasis(("x", "y"), (x,)),
                   GroebnerBasis(variables=("x", "y"), polynomials=(x,))):
            assert gb.variables == ("x", "y")
            assert gb.polynomials == (x,)
            assert gb.leading_monomials() == ((1, 0),)

    def test_equality_follows_content(self):
        gens = [parse_polynomial(s, ("x", "y")) for s in ("x^2 - y", "x*y")]
        ideal = Ideal(("x", "y"), gens)
        a, b = buchberger(ideal), buchberger(ideal)
        assert a is not b and a == b and not a != b
        assert a != buchberger(Ideal(("x", "y"), gens[:1]))
        assert a != GroebnerBasis(a.variables, a.polynomials[:-1])
        assert a != a.polynomials

    def test_buchberger_fields_read_by_the_tracer(self):
        ideal = Ideal(("x", "y"), [parse_polynomial("x*y - 1", ("x", "y"))])
        gb = buchberger(ideal)
        assert len(gb.polynomials) == 1
        # the tracer would read a second positional argument as an order
        with pytest.raises(TypeError):
            buchberger(ideal, 10)
        assert len(ideal.generators) == 1


class TestSingularPointRecord:
    FIELDS = ("point", "n", "p", "t", "d", "smoothable", "mu",
              "chi_smoothing", "chi_lower_stratum", "index")

    def test_defaults(self):
        record = SingularPointRecord("P", 2, 3, 2, 2, True)
        assert (record.mu, record.chi_smoothing, record.chi_lower_stratum,
                record.index) == (None, None, None, None)
        assert record.resolved_chi_smoothing() is None
        assert record.mu_linked()

    def test_positional_and_keyword(self):
        values = ("P", 2, 3, 2, 4, False, None, 5, -1, -2)
        for record in (SingularPointRecord(*values),
                       SingularPointRecord(**dict(zip(self.FIELDS, values)))):
            assert tuple(getattr(record, f) for f in self.FIELDS) == values
            assert record.resolved_chi_smoothing() == 5

    def test_chi_derived_from_mu(self):
        record = SingularPointRecord("P", 2, 3, 2, 2, True, mu=3)
        assert record.resolved_chi_smoothing() == 4
        assert SingularPointRecord("P", 2, 3, 2, 2, True, 3, 4).chi_smoothing == 4

    @pytest.mark.parametrize("args, message", [
        (("P", 2, 3, 0, 2, True),
         "record at P: t must lie in [1, min(n, p)]"),
        (("P", 2, 3, 3, 2, True),
         "record at P: t must lie in [1, min(n, p)]"),
        (("P", 3, 3, 2, 2, True),
         "record at P: expected codimension is 4, but the index formulas "
         "cover codimension 2 only"),
        (("P", 2, 3, 2, 0, True),
         "record at P: d must be positive"),
        (("P", 2, 3, 2, 2, False),
         "record at P: smoothable flag contradicts the dimension bound 4 < 6"),
        (("P", 2, 3, 2, 4, True),
         "record at P: smoothable flag contradicts the dimension bound 6 < 6"),
        (("P", 2, 3, 2, 2, True, -1),
         "record at P: mu must be non-negative"),
        (("P", 2, 3, 2, 2, True, 3, 5),
         "record at P: chi_smoothing 5 contradicts the value 4 implied by mu"),
        # a bool or a float is not an integer, and an int is not a bool
        (("P", True, 3, 1, 2, True), "record at P: n must be an integer"),
        (("P", 2.0, 3, 2, 2, True), "record at P: n must be an integer"),
        (("P", 2, True, 1, 2, True), "record at P: p must be an integer"),
        (("P", 2, 3.0, 2, 2, True), "record at P: p must be an integer"),
        (("P", 2, 3, True, 2, True), "record at P: t must be an integer"),
        (("P", 2, 3, 2.0, 2, True), "record at P: t must be an integer"),
        (("P", 2, 3, 2, True, True), "record at P: d must be an integer"),
        (("P", 2, 3, 2, 2.0, True), "record at P: d must be an integer"),
        (("P", 2, 3, 2, 2, True, False), "record at P: mu must be an integer"),
        (("P", 2, 3, 2, 2, True, 3.0), "record at P: mu must be an integer"),
        (("P", 2, 3, 2, 2, True, None, True),
         "record at P: chi_smoothing must be an integer"),
        (("P", 2, 3, 2, 2, True, None, 4.0),
         "record at P: chi_smoothing must be an integer"),
        (("P", 2, 3, 2, 4, False, None, 5, True),
         "record at P: chi_lower_stratum must be an integer"),
        (("P", 2, 3, 2, 4, False, None, 5, 0.5),
         "record at P: chi_lower_stratum must be an integer"),
        (("P", 2, 3, 2, 2, 1), "record at P: smoothable must be a boolean"),
        (("P", 2, 3, 2, 2, None), "record at P: smoothable must be a boolean"),
    ])
    def test_validation(self, args, message):
        raises_exactly(LedgerError, message, lambda: SingularPointRecord(*args))


class TestLedgerEntry:
    """A singular point enters the ledger as its record, index included."""

    def test_default_positional_and_keyword(self):
        assert SingularPointRecord("A", 2, 3, 2, 2, True).index is None
        for record in (SingularPointRecord("A", 2, 3, 2, 2, True, 1, None,
                                           None, -2),
                       SingularPointRecord("A", 2, 3, 2, 2, True, mu=1,
                                           index=-2)):
            assert (record.point, record.index) == ("A", -2)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1"])
    def test_index_is_an_integer(self, index):
        raises_exactly(LedgerError, "record at A: index must be an integer",
                       lambda: SingularPointRecord("A", 2, 3, 2, 2, True,
                                                   index=index))


class TestIndexLedger:
    """The ledger is `global_identity`'s arguments: the records, the smooth
    zeros' indices and chi(X)."""

    def test_default_positional_and_keyword(self):
        smooth = {"[1:0]": 1, "[0:1]": 1}
        for result in (global_identity(iter([]), smooth, 2),
                       global_identity(records=[], smooth=smooth, chi_x=2)):
            assert result == IdentityResult(VERIFIED, lhs=2, rhs=2)

    @pytest.mark.parametrize("chi_x", [1.5, 2.0, False])
    def test_chi_x_is_an_integer(self, chi_x):
        raises_exactly(LedgerError, "ledger: chi_x must be an integer",
                       lambda: global_identity([], {}, chi_x))


class TestIdentityResult:
    FIELDS = ("status", "lhs", "rhs", "name", "value")

    def test_defaults(self):
        result = IdentityResult(VERIFIED)
        assert tuple(getattr(result, f) for f in self.FIELDS) == (
            VERIFIED, None, None, None, None)

    def test_positional_and_keyword(self):
        values = (SOLVED, 3, 3, "chi_X", 1)
        for result in (IdentityResult(*values),
                       IdentityResult(**dict(zip(self.FIELDS, values)))):
            assert tuple(getattr(result, f) for f in self.FIELDS) == values

    def test_equality_follows_content(self):
        a = IdentityResult(VERIFIED, lhs=5, rhs=5)
        assert a == IdentityResult(VERIFIED, 5, 5) and not a != a
        assert a != IdentityResult(VERIFIED, lhs=5, rhs=6)
        assert a != IdentityResult(VERIFIED, 5, 5, name="chi_X")
        assert a != (VERIFIED, 5, 5, None, None)


class TestCWDescriptor:
    def test_positional_and_keyword(self):
        for cw in (CWDescriptor([1, True, 1]), CWDescriptor(cell_counts=(1, 1, 1))):
            assert cw.cell_counts == (1, 1, 1)
            assert all(type(c) is int for c in cw.cell_counts)

    def test_negative_count(self):
        raises_exactly(ValueError, "cell counts must be non-negative",
                       lambda: CWDescriptor((1, -1)))

    @pytest.mark.parametrize("count", [1.9, "1"])
    def test_count_is_an_integer(self, count):
        # a float is not truncated and a string not parsed
        with pytest.raises(TypeError):
            CWDescriptor([1, count])


class TestBouquetDescriptor:
    def test_positional_and_keyword_sort(self):
        for bouquet in (BouquetDescriptor([3, 1, 2]),
                        BouquetDescriptor(sphere_dimensions=(2, 3, 1))):
            assert bouquet.sphere_dimensions == (1, 2, 3)

    def test_dimensions_positive(self):
        raises_exactly(ValueError, "sphere dimensions must be positive",
                       lambda: BouquetDescriptor((2, 0)))

    @pytest.mark.parametrize("dim", [2.0, "3"])
    def test_dimension_is_an_integer(self, dim):
        with pytest.raises(TypeError):
            BouquetDescriptor([1, dim])


class TestMilnorData:
    FIELDS = ("d", "mu", "b2", "m_d", "mu_slice")

    def test_defaults(self):
        data = MilnorData(2)
        assert tuple(getattr(data, f) for f in self.FIELDS) == (
            2, None, None, None, None)

    def test_positional_and_keyword(self):
        values = (3, 4, 1, 7, 2)
        for data in (MilnorData(*values),
                     MilnorData(**dict(zip(self.FIELDS, values)))):
            assert tuple(getattr(data, f) for f in self.FIELDS) == values

    @pytest.mark.parametrize("d", [2.0, 3.0, True, "2", 0, -1])
    def test_d_is_a_positive_integer(self, d):
        # a float d must not pass as its integer: chi_smoothing and
        # le_greuel_check would answer for a dimension never given
        raises_exactly(ValueError, "d must be a positive integer",
                       lambda: MilnorData(d, mu=1, m_d=3, mu_slice=1))

    @pytest.mark.parametrize("name", ["mu", "b2", "m_d", "mu_slice"])
    @pytest.mark.parametrize("value", [-1, 1.0, "2", True])
    def test_optional_fields_are_non_negative_integers(self, name, value):
        raises_exactly(ValueError, f"{name} must be a non-negative integer",
                       lambda: MilnorData(2, **{name: value}))


class TestLeGreuelResult:
    def test_defaults_positional_and_keyword(self):
        result = LeGreuelResult(HOLDS)
        assert (result.status, result.lhs, result.rhs) == (HOLDS, None, None)
        for result in (LeGreuelResult(HOLDS, 4, 4),
                       LeGreuelResult(status=HOLDS, lhs=4, rhs=4)):
            assert (result.status, result.lhs, result.rhs) == (HOLDS, 4, 4)


def test_located_points_carry_their_kind():
    model = DeterminantalModel(cone_matrix(), 2, AmbientSpace(PROJECTIVE, 4))
    fixed = cstar_fixed_points(model, (0, 1, 2, 3, 4))
    assert [kind for _, kind in fixed][-1] == ESSENTIAL_SINGULAR
    assert all(kind in (SMOOTH_STRATUM, ESSENTIAL_SINGULAR) for _, kind in fixed)
