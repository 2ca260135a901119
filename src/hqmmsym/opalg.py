"""Dense operator algebra: operators, maps between matrix algebras, CPU defects.

Conventions used throughout the package:

- Operators are complex arrays of shape (d, d), and n of them stack as
  (n, d, d).  The tensor product is the
  Kronecker product, so basis vectors of A tensor B are ordered
  lexicographically: index (i, k) of the product maps to i * dim_B + k.
- A linear map E between matrix algebras is stored by its coefficients over
  matrix units, coeff[p, q, i, j] = E(e_ij)[p, q].  Applying the map is a
  single contraction over (i, j).
- The Choi matrix of E is C = sum_ij e_ij tensor E(e_ij), a square matrix on
  the input space tensor the output space, with entry [(i, p), (j, q)].
  choi_matrices is the one place that writes this layout.  E is completely
  positive exactly when C is positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, config_int

def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of one matrix, as operator_norms computes it."""
    return float(operator_norms(np.asarray(a)))


def operator_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix in a stack a[..., m, n].

    Each norm is a scaled Gram eigenvalue, nan for a non-finite matrix,
    exactly 0 for a zero matrix.  With s the largest |a_ij| and b = a / s,
    the norm is s * sqrt(lambda_max(b+ b)), the Gram matrix taken on the
    smaller side and the eigenvalues of the whole stack found by one
    eigvalsh.  The scale keeps the Gram entries at most max(m, n), so
    finite entries from 1e-300 to 1e300 neither underflow nor overflow.
    Non-finite and zero matrices never reach LAPACK.
    """
    scale = np.abs(a).max(axis=(-2, -1))
    ok = np.isfinite(scale) & (scale > 0)
    if ok.all():
        return scale * _unit_scale_norms(a / scale[..., None, None])
    out = np.where(scale == 0, 0.0, np.nan)
    if ok.any():
        out[ok] = scale[ok] * _unit_scale_norms(a[ok] / scale[ok][:, None, None])
    return out


def _unit_scale_norms(b: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack b[..., m, n] whose entries are at most 1."""
    bh = np.swapaxes(b, -1, -2).conj()
    gram = bh @ b if b.shape[-1] <= b.shape[-2] else b @ bh
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def worst_deviation(deviations) -> float:
    """Largest deviation, or nan when any deviation is not finite.

    check_result reduces every verify check's per-sample deviations through
    this helper, so a NaN anywhere is reported (and fails the check) instead
    of being dropped by max().  An empty set of deviations is refused: a
    check that saw no samples has shown nothing.
    """
    d = np.asarray(deviations, dtype=float)
    if d.size == 0:
        raise ValueError("no deviations to reduce; a check needs at least one sample")
    if not np.all(np.isfinite(d)):
        return float("nan")
    return float(d.max())


def positivity_defects(a: np.ndarray) -> tuple[float, float]:
    """Hermiticity defect ||A - A+|| and negativity max(0, -lambda_min((A + A+) / 2)).

    Both are 0 exactly when A is positive semidefinite; a non-finite A gets
    nan for both.  The norm is the operator norm.
    """
    if not np.isfinite(a).all():
        return float("nan"), float("nan")
    adjoint = a.conj().T
    negativity = max(0.0, -float(np.linalg.eigvalsh((a + adjoint) / 2)[0]))
    return operator_norm(a - adjoint), negativity


def choi_matrices(coeff: np.ndarray) -> np.ndarray:
    """Choi matrices of stacked coefficient tensors coeff[..., p, q, i, j].

    Entry [..., (i, p), (j, q)] is coeff[..., p, q, i, j]: the Choi matrix
    sum_ij e_ij tensor E(e_ij) of each map in the stack.
    """
    *lead, d_out, _, d_in, _ = coeff.shape
    return np.einsum("...pqij->...ipjq", coeff).reshape(*lead, d_in * d_out, d_in * d_out)


def batched_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of matching stacks a[B, m, n] and b[B, p, q]."""
    bsz, m, n = a.shape
    _, p, q = b.shape
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(bsz, m * p, n * q)


def frozen_square_stack(a, ndim: int, what: str) -> np.ndarray:
    """A read-only complex copy of a, which must have ndim axes and square last two."""
    a = np.array(a, dtype=complex)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(what, f"{ndim}-axis stack of square matrices", a.shape)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ComplexOperator:
    """Validated square complex matrix with a declared dimension.

    The library holds operators as plain arrays.  This class is the
    boundary: it checks a matrix against its declared dimension and reads
    and writes the files' matrix objects; np.asarray turns it into an array.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        a = frozen_square_stack(self.entries, 2, "operator")
        if a.shape[0] != self.dim:
            raise DimensionMismatchError("operator", self.dim, a.shape[0])
        object.__setattr__(self, "entries", a)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.entries, dtype=dtype)

    def to_json_dict(self) -> dict:
        re = [float(x) for x in self.entries.real.ravel()]
        im = [float(x) for x in self.entries.imag.ravel()]
        return {"dim": self.dim, "re": re, "im": im}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ComplexOperator":
        dim = config_int("dim", obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.size != dim * dim:
            raise DimensionMismatchError("re", dim * dim, re.size)
        if im.size != dim * dim:
            raise DimensionMismatchError("im", dim * dim, im.size)
        return cls(dim, (re + 1j * im).reshape(dim, dim))


def _matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


@dataclass(frozen=True)
class OperatorMap:
    """Linear map from one matrix algebra to another, stored over matrix units."""

    dim_in: int
    dim_out: int
    coeff: np.ndarray  # coeff[p, q, i, j] = map(e_ij)[p, q]

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex)
        want = (self.dim_out, self.dim_out, self.dim_in, self.dim_in)
        if c.shape != want:
            raise DimensionMismatchError("coefficient tensor", want, c.shape)
        c = np.array(c, copy=True)
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    # no library caller; kept as the tests' reference, and bench/tests reads it
    @classmethod
    def from_function(
        cls, dim_in: int, dim_out: int, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "OperatorMap":
        """Build the coefficient tensor by evaluating fn on every matrix unit."""
        coeff = np.zeros((dim_out, dim_out, dim_in, dim_in), dtype=complex)
        for i in range(dim_in):
            for j in range(dim_in):
                out = np.asarray(fn(_matrix_unit(dim_in, i, j)), dtype=complex)
                if out.shape != (dim_out, dim_out):
                    raise DimensionMismatchError("output", (dim_out, dim_out), out.shape)
                coeff[:, :, i, j] = out
        return cls(dim_in, dim_out, coeff)

    @classmethod
    def from_kraus(cls, dim_in: int, dim_out: int, kraus: Sequence[np.ndarray]) -> "OperatorMap":
        """Map W -> sum_s K_s W K_s^dagger for rectangular Kraus operators."""
        coeff = np.zeros((dim_out, dim_out, dim_in, dim_in), dtype=complex)
        for k in kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != (dim_out, dim_in):
                raise DimensionMismatchError("kraus", (dim_out, dim_in), k.shape)
            coeff += np.einsum("pi,qj->pqij", k, k.conj())
        return cls(dim_in, dim_out, coeff)

    def apply_array(self, m: np.ndarray) -> np.ndarray:
        """The map applied to a dim_in x dim_in array."""
        return np.einsum("pqij,ij->pq", self.coeff, m)

    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij e_ij tensor E(e_ij), entry [(i, p), (j, q)]."""
        return choi_matrices(self.coeff)


@dataclass(frozen=True)
class BipartiteMap(OperatorMap):
    """OperatorMap whose input algebra is a tensor product of two factors."""

    dim_in1: int
    dim_in2: int

    def __post_init__(self):
        if self.dim_in1 * self.dim_in2 != self.dim_in:
            raise DimensionMismatchError(
                "input factors", self.dim_in, (self.dim_in1, self.dim_in2)
            )
        super().__post_init__()

    @classmethod
    def build_from_kraus(
        cls, dim_in1: int, dim_in2: int, dim_out: int, kraus: Sequence[np.ndarray]
    ) -> "BipartiteMap":
        base = OperatorMap.from_kraus(dim_in1 * dim_in2, dim_out, kraus)
        return cls(base.dim_in, base.dim_out, base.coeff, dim_in1, dim_in2)


def certify_cpu(m: OperatorMap) -> dict[str, float]:
    """How far a map is from completely positive and unital.

    Returns choi_hermiticity and choi_negativity, the positivity_defects of
    the Choi matrix (0 for a CP map), and unitality, the operator-norm
    distance of the image of the identity from the identity.  The
    thresholds are applied by GenerativeTriple.validate and the cpu check,
    not here.
    """
    hermiticity, negativity = positivity_defects(m.choi())
    image_of_identity = m.apply_array(np.eye(m.dim_in, dtype=complex))
    return {
        "choi_hermiticity": hermiticity,
        "choi_negativity": negativity,
        "unitality": operator_norm(image_of_identity - np.eye(m.dim_out, dtype=complex)),
    }
