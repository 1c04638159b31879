"""Tensor algebra, the Jacobi eigensolver and the dipole field formula."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptspec import (
    ComplexSymTensor3,
    InvalidInputError,
    InvalidRotationError,
    NumericRangeError,
    Rotation3,
    SingularityError,
    SymTensor3,
    dipole_green_hessian,
    eigen_sym3,
    offdiag_bound_report,
    perturbed_field,
    rotate_tensor,
)
from mptspec.tensors import _norms, _rotated, _shown, _symmetric_packed

finite_coeff = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
sym_tensors = st.builds(
    SymTensor3, st.lists(finite_coeff, min_size=6, max_size=6)
)


def char_poly_roots(t: SymTensor3) -> np.ndarray:
    """Independent eigenvalue oracle: roots of det(T - lam I)."""
    m = t.matrix
    c2 = -np.trace(m)
    c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
    c0 = -np.linalg.det(m)
    return np.sort(np.roots([1.0, c2, c1, c0]).real)


class TestSymTensor3:
    def test_symmetry_exact(self, rng):
        t = SymTensor3(rng.standard_normal(6))
        for i in range(3):
            for j in range(3):
                assert t[i, j] == t[j, i]

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SymTensor3([1, 2, np.inf, 0, 0, 0])
        with pytest.raises(InvalidInputError):
            SymTensor3([np.nan] * 6)

    def test_from_matrix_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 1e-3
        with pytest.raises(InvalidInputError):
            SymTensor3.from_matrix(m)

    def test_matrix_round_trip(self, rng):
        t = SymTensor3(rng.standard_normal(6))
        assert np.array_equal(SymTensor3.from_matrix(t.matrix).coeffs, t.coeffs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e308, 5e-324])
    def test_extreme_matrix_round_trip(self, rng, scale):
        # entries whose pairwise sums overflow, and subnormal ones
        t = SymTensor3(np.clip(rng.standard_normal(6), -1.7, 1.7) * scale)
        assert np.array_equal(SymTensor3.from_matrix(t.matrix).coeffs, t.coeffs)


class TestRows:
    # SymTensor3._rows: one tensor per row of a (k, 6) array, checked once
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_rejects_a_non_finite_entry_in_any_row(self, rng, row, bad):
        coeffs = rng.standard_normal((5, 6))
        coeffs[row, row % 6] = bad
        with pytest.raises(InvalidInputError, match="finite real numbers"):
            SymTensor3._rows(coeffs)

    @pytest.mark.parametrize("shape", [(), (6,), (0,), (2, 5), (2, 7), (0, 5), (1, 2, 6)])
    def test_rejects_every_other_shape(self, shape):
        with pytest.raises(InvalidInputError, match=r"expected \(k, 6\) coefficients"):
            SymTensor3._rows(np.zeros(shape))

    @pytest.mark.parametrize("k", [1, 2, 37])
    def test_same_bytes_as_per_row_construction(self, rng, k):
        coeffs = rng.standard_normal((k, 6)) * 10.0 ** rng.uniform(-300, 300, (k, 1))
        coeffs[0, 3:] = [-0.0, 5e-324, -1.7e308]
        got = SymTensor3._rows(coeffs)
        assert [type(t) for t in got] == [SymTensor3] * k
        want = [SymTensor3(row).coeffs.tobytes() for row in coeffs]
        assert [t.coeffs.tobytes() for t in got] == want
        # views of a float64 array, as SymTensor3(row) keeps them
        assert all(np.shares_memory(t.coeffs, coeffs) for t in got)

    def test_no_rows_give_no_tensors(self):
        assert SymTensor3._rows(np.zeros((0, 6))) == []

    def test_lists_and_ints_pass(self):
        got = SymTensor3._rows([[1, 2, 3, 4, 5, 6]])
        assert got[0].coeffs.dtype == float and got[0].coeffs.tolist() == [1, 2, 3, 4, 5, 6]


def squares_norm(t: SymTensor3) -> float:
    # the Frobenius norm as summed squares, the formula norm() keeps where
    # no square overflows
    c = t.coeffs
    return float(np.sqrt((c[:3] ** 2).sum() + 2.0 * (c[3:] ** 2).sum()))


@pytest.mark.filterwarnings("error")
class TestNorm:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=6, max_size=6)
    )
    def test_unchanged_where_squares_fit(self, coeffs):
        # tiny entries included: their squares underflow, and stay as they were
        t = SymTensor3(coeffs)
        assert t.norm() == squares_norm(t)

    @pytest.mark.parametrize("exponent", [160, 200, 300, 307])
    @pytest.mark.parametrize("position", range(6))
    def test_one_large_entry(self, position, exponent):
        c = np.zeros(6)
        c[position] = -(10.0**exponent)
        expected = 10.0**exponent * (1.0 if position < 3 else np.sqrt(2.0))
        assert SymTensor3(c).norm() == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("exponent", [155, 200, 300, 307])
    def test_large_mixed_entries(self, rng, exponent):
        unit = rng.uniform(-1.0, 1.0, 6)
        t = SymTensor3(unit * 10.0**exponent)
        expected = squares_norm(SymTensor3(unit)) * 10.0**exponent
        assert t.norm() == pytest.approx(expected, rel=1e-14)

    def test_complex_large_parts(self):
        real = SymTensor3.diag(3e200, 0.0, -1e190)
        imag = SymTensor3([0.0, 0.0, 0.0, 1e300, 0.0, 4e299])
        for t in (ComplexSymTensor3(real, imag), ComplexSymTensor3(imag, real)):
            expected = np.linalg.norm(t.matrix / 1e300) * 1e300
            assert t.norm() == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "tensor",
        [
            SymTensor3.diag(1.5e308, 1.5e308, 0.0),
            SymTensor3([0.0, 0.0, 0.0, 1.7e308, 0.0, 0.0]),
            ComplexSymTensor3(SymTensor3.diag(1.5e308, 0.0, 0.0), SymTensor3.identity() * 1e308),
        ],
        ids=["diagonal", "off-diagonal", "complex"],
    )
    def test_beyond_float_range_raises(self, tensor):
        with pytest.raises(NumericRangeError):
            tensor.norm()


def norm_by_recursion(t: SymTensor3) -> float:
    # norm() as it was before its sums were shared with the packed form:
    # squares as Python floats, and past their range the tensor divided by
    # its largest entry
    d1, d2, d3, o1, o2, o3 = t.coeffs.tolist()
    squares = (d1 * d1 + d2 * d2 + d3 * d3) + 2.0 * (o1 * o1 + o2 * o2 + o3 * o3)
    if squares < math.inf:
        return math.sqrt(squares)
    scale = float(np.abs(t.coeffs).max())
    return scale * norm_by_recursion(SymTensor3(t.coeffs / scale))


def _mixed_rows(rng, k):
    # k packed tensors from 1e-320 to 5e307 in scale, squares overflowing
    # in some; no norm leaves the float range
    rows = np.clip(rng.standard_normal((k, 6)), -1.0, 1.0)
    rows *= 5.0 * 10.0 ** rng.uniform(-321, 307, (k, 1))
    rows[0] = [5e307, -5e307, 0.0, 5e-324, -0.0, 4e307]
    return rows


@pytest.mark.filterwarnings("error")
class TestPackedForms:
    # the stacked norm, symmetrisation and rotation that the oracle battery
    # applies to whole grids: each row has the bits of the one-tensor form
    def test_norms_are_the_bits_of_norm(self, rng):
        rows = _mixed_rows(rng, 200)
        want = [norm_by_recursion(SymTensor3(r)) for r in rows]
        assert [SymTensor3(r).norm() for r in rows] == want
        assert _norms(rows).tolist() == want
        assert _norms(rows.reshape(2, 100, 6)).ravel().tolist() == want

    def test_norms_past_the_float_range_are_inf(self):
        rows = np.array([[1.5e308, 1.5e308, 0.0, 0.0, 0.0, 0.0], [1.0] * 6])
        assert _norms(rows).tolist() == [math.inf, 3.0]

    def test_symmetric_packed_is_from_matrix(self, rng):
        rows = _mixed_rows(rng, 100)
        m = SymTensor3._rows(rows)
        mats = np.array([t.matrix for t in m])
        mats[:, 0, 1] *= 1.0 + 1e-13  # asymmetric below the tolerance
        want = [SymTensor3.from_matrix(x, asym_tol=1e-12).coeffs.tobytes() for x in mats]
        assert [r.tobytes() for r in _symmetric_packed(mats, 1e-12)] == want

    def test_symmetric_packed_refuses_one_asymmetric_block(self, rng):
        mats = np.array([t.matrix for t in SymTensor3._rows(rng.standard_normal((5, 6)))])
        mats[3, 2, 0] += 1e-3
        with pytest.raises(InvalidInputError, match="not symmetric to tolerance"):
            _symmetric_packed(mats, 1e-9)

    def test_rotation_is_rotate_tensor(self, rng):
        rows = np.clip(rng.standard_normal((60, 6)), -1.0, 1.0)
        rows *= 10.0 ** rng.uniform(-300, 307, (60, 1))
        q = Rotation3(np.linalg.qr(rng.standard_normal((3, 3)))[0])
        got = _symmetric_packed(_rotated(rows, q), 1e-9)
        want = [rotate_tensor(SymTensor3(r), q).coeffs.tobytes() for r in rows]
        assert [r.tobytes() for r in got] == want


class TestEigenSym3:
    def test_identity(self):
        w, q = eigen_sym3(SymTensor3.identity())
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(q.matrix @ q.matrix.T, np.eye(3), atol=1e-14)

    def test_already_diagonal(self):
        w, _ = eigen_sym3(SymTensor3.diag(-2.0, 0.0, 5.0))
        np.testing.assert_allclose(w, [-2.0, 0.0, 5.0], atol=1e-14)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = SymTensor3.from_matrix(
                (lambda m: 0.5 * (m + m.T))(rng.standard_normal((3, 3)) * 10)
            )
            w, _ = eigen_sym3(t)
            np.testing.assert_allclose(
                w, char_poly_roots(t), atol=1e-10 * max(t.norm(), 1.0)
            )

    def test_decomposition_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = SymTensor3(rng.standard_normal(6))
            w, q = eigen_sym3(t)
            resid = t.matrix @ q.matrix - q.matrix @ np.diag(w)
            assert np.linalg.norm(resid) <= 1e-12 * max(t.norm(), 1e-30)

    def test_zero_tensor(self):
        w, q = eigen_sym3(SymTensor3.zero())
        np.testing.assert_array_equal(w, np.zeros(3))

    @settings(max_examples=80, deadline=None)
    @given(sym_tensors)
    def test_eigenvalues_ascending(self, t):
        w, _ = eigen_sym3(t)
        assert np.all(np.diff(w) >= 0.0)


class TestRotateTensor:
    def test_identity_rotation(self, rng):
        t = SymTensor3(rng.standard_normal(6))
        out = rotate_tensor(t, Rotation3.identity())
        np.testing.assert_allclose(out.coeffs, t.coeffs, atol=1e-15)

    def test_quarter_turn_permutes_axes(self):
        t = SymTensor3.diag(1.0, 2.0, 3.0)
        q = Rotation3.about_axis(2, np.pi / 2.0)
        out = rotate_tensor(t, q)
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 1.0, 3.0]), atol=1e-14)

    def test_eigenvalue_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = SymTensor3(rng.standard_normal(6))
            q_raw, r = np.linalg.qr(rng.standard_normal((3, 3)))
            q = Rotation3(q_raw * np.sign(np.diag(r)))
            w0, _ = eigen_sym3(t)
            w1, _ = eigen_sym3(rotate_tensor(t, q))
            np.testing.assert_allclose(w1, w0, atol=1e-12 * max(t.norm(), 1.0))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidRotationError):
            Rotation3(np.eye(3) * 1.1)
        with pytest.raises(InvalidRotationError):
            Rotation3(np.ones((3, 3)))


class TestDipoleGreenHessian:
    def test_axis_aligned(self):
        r = 0.37
        out = dipole_green_hessian([0.0, 0.0, r], [0.0, 0.0, 0.0])
        expect = np.diag([-1.0, -1.0, 2.0]) / (4.0 * np.pi * r**3)
        np.testing.assert_allclose(out.matrix, expect, rtol=1e-14)

    def test_trace_free(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, z = rng.standard_normal(3), rng.standard_normal(3)
            out = dipole_green_hessian(x, z)
            assert abs(out.trace()) <= 1e-14 * out.norm()

    def test_finite_difference_oracle(self):
        # central second differences of G = 1/(4 pi |x - z|)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(3)
            z = rng.standard_normal(3)
            r = np.linalg.norm(x - z)
            if r < 0.1:
                continue
            h = 1e-4 * r
            green = lambda p: 1.0 / (4.0 * np.pi * np.linalg.norm(p - z))
            hess = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    ei, ej = np.eye(3)[i] * h, np.eye(3)[j] * h
                    hess[i, j] = (
                        green(x + ei + ej)
                        - green(x + ei - ej)
                        - green(x - ei + ej)
                        + green(x - ei - ej)
                    ) / (4.0 * h * h)
            out = dipole_green_hessian(x, z)
            np.testing.assert_allclose(out.matrix, hess, rtol=0, atol=1e-6 * out.norm())

    def test_singularity(self):
        with pytest.raises(SingularityError):
            dipole_green_hessian([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [[1e110, 0.0, 0.0], [1e200, -1e200, 3e199]])
    def test_far_point_underflows_to_zero(self, offset):
        out = dipole_green_hessian(offset, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.coeffs, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [[1e-110, 0.0, 0.0], [1e-200, 1e-200, 0.0]])
    def test_overflowing_near_point_is_singular(self, offset):
        with pytest.raises(SingularityError, match=r"\|x - z\| = "):
            dipole_green_hessian(offset, [0.0, 0.0, 0.0])


class TestPerturbedField:
    def test_zero_tensor_zero_field(self):
        out = perturbed_field(
            [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], ComplexSymTensor3.zero(), [1.0, 1.0, 1.0]
        )
        np.testing.assert_array_equal(out, np.zeros(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["x", "z", "h0"])
    def test_non_finite_input_rejected(self, arg, value):
        vectors = {"x": [0.5, 0.0, 0.0], "z": [0.0, 0.0, 0.0], "h0": [0.0, 0.0, 1.0]}
        vectors[arg][1] = value
        m = ComplexSymTensor3(SymTensor3.isotropic(1.0), SymTensor3.zero())
        with pytest.raises(InvalidInputError):
            perturbed_field(vectors["x"], vectors["z"], m, vectors["h0"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x, m_val, h", [(1e-100, 1.8e-6, 1e160), (1.0, 1e10, 1e308)], ids=["near", "strong"]
    )
    def test_overflowing_field_raises(self, x, m_val, h):
        m = ComplexSymTensor3(SymTensor3.isotropic(m_val), SymTensor3.isotropic(1e-7))
        with pytest.raises(NumericRangeError, match="perturbed field"):
            perturbed_field([x, 0.0, 0.0], [0.0, 0.0, 0.0], m, [h, h, 0.0])

    def test_scalar_tensor_axial(self):
        r, m_val, h = 0.25, 3.0e-6, 7.0
        m = ComplexSymTensor3(SymTensor3.isotropic(m_val), SymTensor3.zero())
        out = perturbed_field([0.0, 0.0, r], [0.0, 0.0, 0.0], m, [0.0, 0.0, h])
        expect = np.array([0.0, 0.0, 2.0 * m_val * h / (4.0 * np.pi * r**3)])
        np.testing.assert_allclose(out.real, expect, rtol=1e-14)
        np.testing.assert_allclose(out.imag, np.zeros(3), atol=1e-20)

    def test_dense_matrix_oracle(self, rng):
        for _ in range(30):
            x, z = rng.standard_normal(3), rng.standard_normal(3) + 2.0
            re, im = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
            m = ComplexSymTensor3(
                SymTensor3.from_matrix(0.5 * (re + re.T)),
                SymTensor3.from_matrix(0.5 * (im + im.T)),
            )
            h0 = rng.standard_normal(3)
            out = perturbed_field(x, z, m, h0)
            d2g = dipole_green_hessian(x, z).matrix
            oracle = d2g.astype(complex) @ m.matrix @ h0
            np.testing.assert_allclose(out, oracle, rtol=1e-14)

    def test_additive_in_tensor(self, rng):
        x, z = np.array([1.0, 1.0, 1.0]), np.zeros(3)
        h0 = np.array([0.3, -0.2, 0.9])
        m1 = ComplexSymTensor3(
            SymTensor3(rng.standard_normal(6)), SymTensor3(rng.standard_normal(6))
        )
        m2 = ComplexSymTensor3(
            SymTensor3(rng.standard_normal(6)), SymTensor3(rng.standard_normal(6))
        )
        lhs = perturbed_field(x, z, m1 + m2, h0)
        rhs = perturbed_field(x, z, m1, h0) + perturbed_field(x, z, m2, h0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


class TestOffdiagBounds:
    def test_diagonal_passes(self):
        rep = offdiag_bound_report(SymTensor3.diag(-1, -2, -3), SymTensor3.diag(1, 2, 3))
        assert rep.pass_r and rep.pass_i

    def test_constructed_violation(self):
        bad = SymTensor3([0.1, 0.1, 0.1, 0.4, 0.0, 0.0])  # I12 > Tr(I) = 0.3
        rep = offdiag_bound_report(SymTensor3.diag(-1, -1, -1), bad)
        assert rep.pass_r and not rep.pass_i
        assert rep.margin_i < 0.0


BIG = SymTensor3([1e308] * 3 + [0.0] * 3)
HUGE = SymTensor3([1.7e308, -1.7e308, 1e308, 1.7e308, 1.7e308, 1.7e308])


class TestOverflowingOperations:
    # each of these warned and then raised InvalidInputError, or returned inf
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("op", [
        lambda: BIG + BIG,
        lambda: BIG - (-BIG),
        lambda: BIG * 10.0,
        lambda: ComplexSymTensor3(BIG, BIG) + ComplexSymTensor3(BIG, BIG),
    ], ids=["sum", "difference", "scale", "complex-sum"])
    def test_arithmetic(self, op):
        with pytest.raises(NumericRangeError, match="tensor arithmetic exceeds the float range"):
            op()

    @pytest.mark.filterwarnings("error")
    def test_rotation(self):
        with pytest.raises(NumericRangeError, match="rotated tensor exceeds the float range"):
            rotate_tensor(HUGE, Rotation3.about_axis(2, 0.7))

    @pytest.mark.filterwarnings("error")
    def test_eigenvalues(self):
        # eigh returned [-inf, -3.66e307, inf]
        with pytest.raises(NumericRangeError, match="eigenvalues exceed the float range"):
            eigen_sym3(HUGE)

    @pytest.mark.filterwarnings("error")
    def test_trace_and_the_bounds_that_read_it(self):
        t = SymTensor3([1.7e308] * 3 + [1.0] * 3)
        with pytest.raises(NumericRangeError, match="tensor trace exceeds the float range"):
            t.trace()
        # passed, with infinite margins
        with pytest.raises(NumericRangeError, match="tensor trace exceeds the float range"):
            offdiag_bound_report(t, t)

    @pytest.mark.parametrize("scalar", ["2", None, 10**400, True, np.nan],
                             ids=["string", "none", "giant-int", "bool", "nan"])
    def test_scale_factor_is_a_finite_real_number(self, scalar):
        # a string was coerced, None and a giant int raised bare builtin errors
        with pytest.raises(InvalidInputError, match=re.escape(f"got {_shown(scalar)}")):
            SymTensor3.identity() * scalar
        with pytest.raises(InvalidInputError, match="scale factor"):
            scalar * SymTensor3.identity()

    @given(a=sym_tensors, b=sym_tensors, k=finite_coeff)
    @settings(max_examples=50, deadline=None)
    def test_in_range_results_are_the_numpy_operations(self, a, b, k):
        assert (a + b).coeffs.tobytes() == (a.coeffs + b.coeffs).tobytes()
        assert (a - b).coeffs.tobytes() == (a.coeffs - b.coeffs).tobytes()
        assert (-a).coeffs.tobytes() == (-a.coeffs).tobytes()
        assert (a * k).coeffs.tobytes() == (k * a).coeffs.tobytes() == (a.coeffs * k).tobytes()

    @pytest.mark.parametrize("diagonal", [
        [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [1e308, -1e308, 1e308], [0.1, 0.2, 0.3],
        [1.0, 1e-17, -1.0], [5e-324, -0.0, -5e-324],
    ])
    def test_trace_is_numpy_sum(self, diagonal):
        t = SymTensor3(diagonal + [1.0, 2.0, 3.0])
        want = float(np.array(diagonal).sum())
        assert type(t.trace()) is float
        assert np.array(t.trace()).tobytes() == np.array(want).tobytes()
