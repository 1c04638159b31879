"""Symmetric 3x3 tensor algebra and the magnetic dipole field formula.

Real symmetric tensors are stored as their six independent coefficients in
the order (11, 22, 33, 12, 13, 23) so that symmetry holds exactly by
construction.  Units are documented per quantity but never enforced:
polarizability tensors carry m^3, field quantities A/m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Complex, Integral, Real

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidRotationError,
    NumericRangeError,
    SingularityError,
)

# row/column index of each packed coefficient, and its label in file headers
_PACK_IJ = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
PACKED_LABELS = ("11", "22", "33", "12", "13", "23")

ORTHOGONALITY_TOL = 1e-12
_TINY = np.finfo(float).tiny  # the least normal float


def is_number(x, kind=Real) -> bool:
    """A finite scalar of ``kind``, numpy scalars included, and not a bool."""
    try:
        return isinstance(x, kind) and not isinstance(x, bool) and cmath.isfinite(x)
    except OverflowError:  # an int too large for a double
        return False


def _shown(x) -> str:
    # repr(x) for an error message; Python refuses to print an int of more
    # than 4300 digits, so such an int shows its size instead, and a
    # container holding one its type and length
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, int):
            return f"<int of {x.bit_length()} bits>"
        return f"<{type(x).__name__} of {len(x)} items>"


# per element kind: the ndarray dtype kinds taken as is, the result's dtype, the message's noun
_ARRAY_KINDS = {
    Real: ("fiu", float, "real numbers"),
    Complex: ("fiuc", complex, "complex numbers"),
    Integral: ("iu", int, "integers"),
}


def _number_array(what: str, values, kind=Real) -> np.ndarray:
    """A float, complex or int array of finite numbers, for ``kind`` Real, Complex or Integral.

    A numeric ndarray of a matching dtype is not copied if it has the result's
    dtype already; anything else is checked element by element by
    :func:`is_number`, so a bool, a string, a value outside ``kind``, None or
    a ragged list raises InvalidInputError, never coerced.  Shapes are the
    caller's.
    """
    kinds, dtype, noun = _ARRAY_KINDS[kind]
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds:
        a = values.astype(dtype, copy=False)
        if np.isfinite(a).all():
            return a
    else:
        try:
            items = np.array(values, dtype=object)
            if all(is_number(x, kind) for x in items.flat):
                return items.astype(dtype)
        except (ValueError, OverflowError):  # ragged, or an int beyond int64
            pass
    raise InvalidInputError(f"{what} must be finite {noun}")


def packed_index(i: int, j: int) -> int:
    """Position of coefficient (i, j), in either order, among the six packed.

    Raises InvalidInputError unless i and j are integers 0, 1 or 2.
    """
    if not all(is_number(k, Integral) and 0 <= k <= 2 for k in (i, j)):
        raise InvalidInputError(
            f"tensor index ({_shown(i)}, {_shown(j)}) must be integers 0, 1 or 2"
        )
    return _PACK_IJ.index((min(i, j), max(i, j)))


# packed position of each (row, column) entry of the dense matrix, and the
# flat matrix position of each packed coefficient
_UNPACK = np.array([[packed_index(i, j) for j in range(3)] for i in range(3)])
_PACK_FLAT = np.array([3 * i + j for i, j in _PACK_IJ])


def unpack(coeffs) -> np.ndarray:
    """Dense symmetric matrices, shape (..., 3, 3), from packed (..., 6)."""
    return np.asarray(coeffs)[..., _UNPACK]


def _in_range(values, message: str, *args, normal: bool = False):
    """The float-range rule: ``values``, unless one is not finite or, with
    ``normal``, below the normal floats in magnitude; then NumericRangeError
    with ``message.format(*args)``.  Callers form the values warning-free."""
    if isinstance(values, (complex, float)):  # a scalar, without numpy's per-call cost
        finite = cmath.isfinite(values)
        small = normal and math.hypot(values.real, values.imag) < _TINY
    else:  # the abs of a complex array can overflow: call this under np.errstate
        flags = np.isfinite(values)  # counted, which is twice as fast as .all()
        finite = np.count_nonzero(flags) == flags.size
        small = normal and (np.abs(values) < _TINY).any()
    if not finite or small:
        raise NumericRangeError(message.format(*args))
    return values


@np.errstate(over="ignore")  # an infinite difference or bound compares as it should
def _symmetric_packed(m, asym_tol: float) -> np.ndarray:
    # packed (..., 6) coefficients of finite (..., 3, 3) matrices, by
    # from_matrix's rule
    peak = np.abs(m).max(axis=(-2, -1), keepdims=True)
    mt = m.swapaxes(-1, -2)
    if (np.abs(m - mt) > asym_tol * np.maximum(peak, 1.0)).any():
        raise InvalidInputError("matrix is not symmetric to tolerance")
    # halving the sum is exact, subnormals included, unless the sum
    # overflows; then halve first
    halve_first = peak >= 8e307
    if halve_first.any():
        s = np.where(halve_first, 0.5 * m + 0.5 * mt, 0.5 * (m + mt))
    else:
        s = 0.5 * (m + mt)
    return s.reshape(s.shape[:-2] + (9,)).take(_PACK_FLAT, axis=-1)


def _squares(d1, d2, d3, o1, o2, o3):
    # the squared Frobenius norm, summed in one order for floats and arrays
    return (d1 * d1 + d2 * d2 + d3 * d3) + 2.0 * (o1 * o1 + o2 * o2 + o3 * o3)


@np.errstate(over="ignore")
def _norms(coeffs) -> np.ndarray:
    # SymTensor3.norm of each packed (k, ..., 6) tensor, bit for bit; inf
    # past the float range
    squares = _squares(*np.moveaxis(coeffs, -1, 0))
    norms = np.sqrt(squares)
    big = squares == math.inf
    if big.any():
        scale = np.abs(coeffs[big]).max(axis=1)
        norms[big] = scale * np.sqrt(_squares(*(coeffs[big] / scale[:, None]).T))
    return norms


class SymTensor3:
    """Real symmetric 3x3 tensor backed by six packed coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _number_array("tensor coefficients", coeffs)
        if c.shape != (6,):
            raise InvalidInputError(f"expected 6 coefficients, got shape {c.shape}")
        self.coeffs = c

    @classmethod
    def _rows(cls, coeffs) -> list["SymTensor3"]:
        """One tensor per row of (k, 6) coefficients, checked once as a whole."""
        c = _number_array("tensor coefficients", coeffs)
        if c.ndim != 2 or c.shape[1] != 6:
            raise InvalidInputError(f"expected (k, 6) coefficients, got shape {c.shape}")
        tensors = [cls.__new__(cls) for _ in c]
        for t, row in zip(tensors, c):
            t.coeffs = row  # a view of c, as SymTensor3(row) keeps; finite, as c is
        return tensors

    @np.errstate(over="ignore")  # as a decorator it costs half a with block
    def _result(self, op, *other) -> "SymTensor3":
        t = SymTensor3.__new__(SymTensor3)
        t.coeffs = _in_range(op(self.coeffs, *other), "tensor arithmetic exceeds the float range")
        return t

    @classmethod
    def zero(cls) -> "SymTensor3":
        return cls(np.zeros(6))

    @classmethod
    def identity(cls) -> "SymTensor3":
        return cls([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

    @classmethod
    def diag(cls, d1: float, d2: float, d3: float) -> "SymTensor3":
        return cls([d1, d2, d3, 0.0, 0.0, 0.0])

    @classmethod
    def isotropic(cls, value: float) -> "SymTensor3":
        return cls([value, value, value, 0.0, 0.0, 0.0])

    @classmethod
    def from_matrix(cls, m, asym_tol: float = 1e-12) -> "SymTensor3":
        """Pack a dense symmetric matrix; reject if asymmetry exceeds tolerance."""
        if not (is_number(asym_tol) and asym_tol >= 0.0):
            raise InvalidInputError(
                f"asym_tol must be finite and nonnegative, got {_shown(asym_tol)}")
        m = _number_array("tensor coefficients", m)
        if m.shape != (3, 3):
            raise InvalidInputError(f"expected 3x3 matrix, got shape {m.shape}")
        t = cls.__new__(cls)  # finite, as m is: no second check
        t.coeffs = _symmetric_packed(m, asym_tol)
        return t

    @property
    def matrix(self) -> np.ndarray:
        return unpack(self.coeffs)

    def __getitem__(self, ij) -> float:
        return float(self.coeffs[packed_index(*ij)])

    def trace(self) -> float:
        # Python floats overflow without a warning; numpy's sum also starts at +0.0
        d1, d2, d3 = self.coeffs[:3].tolist()
        return _in_range(0.0 + d1 + d2 + d3, "tensor trace exceeds the float range")

    def norm(self) -> float:
        """Frobenius norm.

        Coefficients whose squares overflow are divided by the largest one
        first.  A norm beyond the float range raises NumericRangeError.
        """
        # Python floats overflow to inf without a warning
        squares = _squares(*self.coeffs.tolist())
        if squares < math.inf:
            return math.sqrt(squares)
        norm = float(_norms(self.coeffs[None])[0])
        return _in_range(norm, "tensor norm exceeds the float range")

    def __add__(self, other: "SymTensor3") -> "SymTensor3":
        return self._result(np.add, other.coeffs)

    def __sub__(self, other: "SymTensor3") -> "SymTensor3":
        return self._result(np.subtract, other.coeffs)

    def __neg__(self) -> "SymTensor3":
        return self._result(np.negative)

    def __mul__(self, scalar: float) -> "SymTensor3":
        if not is_number(scalar):
            raise InvalidInputError(f"scale factor must be finite and real, got {_shown(scalar)}")
        return self._result(np.multiply, float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SymTensor3({self.coeffs.tolist()})"


class ComplexSymTensor3:
    """Complex symmetric 3x3 tensor split into real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real: SymTensor3, imag: SymTensor3):
        self.real = real
        self.imag = imag

    @classmethod
    def zero(cls) -> "ComplexSymTensor3":
        return cls(SymTensor3.zero(), SymTensor3.zero())

    @classmethod
    def from_matrix(cls, m, asym_tol: float = 1e-12) -> "ComplexSymTensor3":
        m = _number_array("tensor coefficients", m, kind=Complex)
        return cls(
            SymTensor3.from_matrix(m.real, asym_tol),
            SymTensor3.from_matrix(m.imag, asym_tol),
        )

    @property
    def matrix(self) -> np.ndarray:
        return self.real.matrix + 1j * self.imag.matrix

    def __getitem__(self, ij) -> complex:
        return self.real[ij] + 1j * self.imag[ij]

    def __add__(self, other: "ComplexSymTensor3") -> "ComplexSymTensor3":
        return ComplexSymTensor3(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "ComplexSymTensor3") -> "ComplexSymTensor3":
        return ComplexSymTensor3(self.real - other.real, self.imag - other.imag)

    def norm(self) -> float:
        """Frobenius norm; beyond the float range raises NumericRangeError."""
        with np.errstate(over="ignore"):
            norm = float(np.hypot(self.real.norm(), self.imag.norm()))
        return _in_range(norm, "tensor norm exceeds the float range")

    def conj(self) -> "ComplexSymTensor3":
        return ComplexSymTensor3(self.real, -self.imag)

    def __repr__(self) -> str:
        return f"ComplexSymTensor3(real={self.real!r}, imag={self.imag!r})"


class Rotation3:
    """Orthogonal 3x3 matrix, proper or improper."""

    __slots__ = ("matrix",)

    def __init__(self, q):
        try:
            q = _number_array("rotation", q)
        except InvalidInputError as exc:
            raise InvalidRotationError(str(exc)) from None
        if q.shape != (3, 3):
            raise InvalidRotationError("rotation must be a finite 3x3 matrix")
        if np.abs(q.T @ q - np.eye(3)).max() > ORTHOGONALITY_TOL:
            raise InvalidRotationError("matrix is not orthogonal to 1e-12")
        if abs(abs(np.linalg.det(q)) - 1.0) > ORTHOGONALITY_TOL:
            raise InvalidRotationError("matrix determinant is not +-1 to 1e-12")
        self.matrix = q

    @classmethod
    def identity(cls) -> "Rotation3":
        return cls(np.eye(3))

    @classmethod
    def about_axis(cls, axis: int, angle: float) -> "Rotation3":
        """Right-handed rotation by `angle` radians about coordinate axis 0, 1 or 2."""
        if not (is_number(axis, Integral) and 0 <= axis <= 2 and is_number(angle)):
            raise InvalidRotationError(
                f"axis {_shown(axis)} must be 0..2 and angle {_shown(angle)} finite"
            )
        c, s = np.cos(angle), np.sin(angle)
        q = np.eye(3)
        a, b = [k for k in range(3) if k != axis]
        q[a, a] = c
        q[b, b] = c
        q[a, b] = -s
        q[b, a] = s
        return cls(q)

    def __repr__(self) -> str:
        return f"Rotation3({self.matrix.tolist()})"


def eigen_sym3(t: SymTensor3) -> tuple[np.ndarray, Rotation3]:
    """Eigen-decompose a symmetric tensor (LAPACK ``syevd`` via ``eigh``).

    Returns eigenvalues in ascending order and the orthogonal matrix whose
    columns are the matching eigenvectors, so ``T = Q diag(w) Q^T``.  For a
    repeated eigenvalue the eigenvectors are one orthonormal basis of the
    eigenspace; callers should compare subspace projectors, not vectors.
    """
    w, v = np.linalg.eigh(t.matrix)
    return _in_range(w, "eigenvalues exceed the float range"), Rotation3(v)


@np.errstate(over="ignore", invalid="ignore")
def _rotated(coeffs, q: Rotation3) -> np.ndarray:
    # dense Q T Q^T, (..., 3, 3), of packed (..., 6) coefficients, unchecked
    return q.matrix @ unpack(coeffs) @ q.matrix.T


def rotate_tensor(t: SymTensor3, q: Rotation3) -> SymTensor3:
    """Transform coefficients under a rotation: result_ij = Q_ip Q_jq T_pq."""
    m = _in_range(_rotated(t.coeffs, q), "rotated tensor exceeds the float range")
    return SymTensor3.from_matrix(m, asym_tol=1e-9)


def dipole_green_hessian(x, z) -> SymTensor3:
    """Hessian of the free-space Laplace Green's function 1/(4 pi |x-z|).

    Returns (1 / (4 pi r^3)) (3 rhat x rhat - I) in units 1/m^3; symmetric
    and trace-free for every x != z.  Far enough away it underflows to zero;
    a point so near that its entries would overflow raises
    :class:`SingularityError`.
    """
    x, z = _number_array("points", x), _number_array("points", z)
    if x.shape != (3,) or z.shape != (3,):
        raise InvalidInputError("points must be 3-vectors")
    r = x - z
    dist = math.hypot(*r)  # no squares to overflow or underflow
    if dist == 0.0:
        raise SingularityError("Green's function Hessian is singular at x == z")
    # one factor of dist at a time: a far point underflows to a zero Hessian
    scale = 1.0 / (4.0 * np.pi) / dist / dist / dist
    if not math.isfinite(3.0 * scale):
        raise SingularityError(
            f"Green's function Hessian overflows at |x - z| = {dist:g}"
        )
    rhat = r / dist
    m = (3.0 * np.outer(rhat, rhat) - np.eye(3)) * scale
    return SymTensor3.from_matrix(m, asym_tol=1e-9)


def perturbed_field(x, z, m: SymTensor3 | ComplexSymTensor3, h0_at_z) -> np.ndarray:
    """Leading-order perturbed magnetic field of a small object at z.

    Contracts the Green's-function Hessian with the polarizability tensor and
    the background field evaluated at the object centre:
    (H - H0)(x) = D^2 G(x, z) . M . H0(z).  Output is a 3-vector in the units
    of ``h0_at_z``, complex for a complex tensor and real for a real one (a
    time-domain kernel); one that overflows raises NumericRangeError.
    """
    h0 = _number_array("background field", h0_at_z)
    if h0.shape != (3,):
        raise InvalidInputError("background field must be a real 3-vector")
    d2g = dipole_green_hessian(x, z).matrix
    with np.errstate(over="ignore", invalid="ignore"):
        field = d2g @ (m.matrix @ h0)
    return _in_range(field, "perturbed field exceeds the float range")


@dataclass(frozen=True)
class OffdiagBoundReport:
    """Result of the off-diagonal magnitude bounds on the R and I tensors."""

    pass_r: bool
    pass_i: bool
    margin_r: float
    margin_i: float

    @property
    def passed(self) -> bool:
        return self.pass_r and self.pass_i


def offdiag_bound_report(r: SymTensor3, i: SymTensor3) -> OffdiagBoundReport:
    """Check |R_ij| <= |Tr R| and |I_ij| <= Tr I for all i != j.

    Margins are the smallest slack (bound minus off-diagonal magnitude); a
    negative margin means the corresponding bound fails.
    """
    off_r = np.abs(r.coeffs[3:]).max()
    off_i = np.abs(i.coeffs[3:]).max()
    margin_r = abs(r.trace()) - off_r
    margin_i = i.trace() - off_i
    # exact zero off-diagonals always pass, whatever the trace
    pass_r = margin_r >= 0.0 or off_r == 0.0
    pass_i = margin_i >= 0.0 or off_i == 0.0
    return OffdiagBoundReport(pass_r, pass_i, margin_r, margin_i)
