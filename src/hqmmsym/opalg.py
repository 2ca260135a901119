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
- Every operator norm is operator_norms: the largest singular value as a
  scaled Gram eigenvalue, in closed form when the smaller side is 2 or 3
  (a rare nearly degenerate 3 x 3 row falls back to eigvalsh) and from
  one stacked eigvalsh for any other size.  The scaling divides each real
  and imaginary part on its own, so it is exact wherever the quotient is
  representable.
- Every stacked conjugation u a u+ is conjugate, the one small-matrix
  product kernel.  Up to 4 x 4 it multiplies entry by entry over the
  whole stack in real arithmetic, with no BLAS call per matrix; a larger
  matrix (a Choi matrix) is one matrix conjugated by a stack, with u a as
  one GEMM.  No matrix's result depends on the rest of its stack, a stack
  of one included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, config_int

def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of one matrix, as operator_norms computes it.

    The closed forms make dozens of numpy calls whatever the size of the
    stack, so one lone 2 x 2 or 3 x 3 norm costs many times more per
    matrix than the same norm in a stack: about 70 us for one 3 x 3,
    against about 1.3 us per matrix in a stack of 200 (numpy 2.4.6,
    2-core x86-64 host).  A new caller with several matrices should stack
    them and call operator_norms once.
    """
    return float(operator_norms(np.asarray(a)))


def operator_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix in a stack a[..., m, n].

    Each norm is a scaled Gram eigenvalue, nan for a non-finite matrix,
    exactly 0 for a zero matrix.  With s the largest |a_ij| and b = a / s,
    the norm is s * sqrt(lambda_max(b+ b)), the Gram matrix taken on the
    smaller side k.  _scaled divides every real and imaginary part by s
    on its own, so b is exact wherever a / s is representable and
    operator_norm(c * I) is c.  _unit_scale_norms finds lambda_max in
    closed form for k = 2 and 3, falling back to eigvalsh for 3 x 3 rows
    whose top two eigenvalues nearly coincide, and by one stacked eigvalsh
    for any other k.  The scale keeps the Gram entries at most max(m, n),
    so finite entries from 1e-300 to 1e300 neither underflow nor overflow.
    Non-finite and zero matrices never reach the kernel.
    """
    scale = np.abs(a).max(axis=(-2, -1))
    ok = np.isfinite(scale) & (scale > 0)
    if ok.all():
        return scale * _unit_scale_norms(_scaled(a, scale))
    out = np.where(scale == 0, 0.0, np.nan)
    if ok.any():
        out[ok] = scale[ok] * _unit_scale_norms(_scaled(a[ok], scale[ok]))
    return out


def _scaled(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The stack a[..., m, n] with matrix k divided by scale[k], one rounding per real part.

    numpy divides a complex array by a real one as complex division, which
    multiplies by a rounded reciprocal: (1e-300 + 0j) / 1e-300 is
    0.9999999999999999.  Dividing the float64 view of a complex stack
    divides each real and imaginary part by the scale on its own.
    """
    scale = scale[..., None, None]
    if not np.iscomplexobj(a):
        return a / scale
    parts = np.ascontiguousarray(a, dtype=complex).view(np.float64)
    return (parts / scale).view(complex)


def _unit_scale_norms(b: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack b[..., m, n] whose entries are at most 1.

    Each is sqrt(lambda_max) of the k x k Gram matrix G on the smaller
    side, k = min(m, n).  For k = 2 and 3, G is formed entry by entry over
    the whole stack and lambda_max has a closed form:

    - k = 2: lambda_max = (a + d) / 2 + hypot((a - d) / 2, |g01|), with a
      and d the diagonal of G.
    - k = 3: lambda_max = q + 2 p cos(arccos(r) / 3) (Smith 1961), with
      q = tr G / 3, p = sqrt(tr (G - q)^2 / 6) and r = det(B) / 2 for
      B = (G - q) / p.  B is formed before its determinant, so p^3 never
      underflows.  The form loses digits when the top two eigenvalues
      nearly coincide (Kopp 2008), which is r near -1: rows with r < 0
      and 1 - r^2 < 1/4, or r not finite, take lambda_max from one
      eigvalsh of just those rows instead.

    Any other k takes lambda_max from one eigvalsh of the stacked Gram
    matrices.  The closed forms use elementwise real arithmetic only, so
    no row's bits depend on the rest of the stack.
    """
    *lead, m, n = b.shape
    k = min(m, n)
    if k in (2, 3):
        # t[r, i, N] runs r along the longer side of matrix N; for a wide b
        # its Gram matrix is the conjugate of b b+, with the same eigenvalues
        b = b.reshape(-1, m, n)
        t = b.transpose(1, 2, 0) if n == k else b.transpose(2, 1, 0)
        g, h = _gram_parts(t)
        if k == 2:
            a, d = g[0, 0], g[1, 1]
            top = (a + d) / 2 + np.hypot((a - d) / 2, np.hypot(g[0, 1], h[0, 1]))
        else:
            top = _top_eigenvalues_3(g, h)
        top = top.reshape(lead)
    else:
        bh = np.swapaxes(b, -1, -2).conj()
        top = np.linalg.eigvalsh(bh @ b if n <= m else b @ bh)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def _gram_parts(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts g[i, j, N] and h[i, j, N] of Gram matrices.

    t[r, i, N] is entry (r, i) of matrix N, and the Gram entry (i, j) sums
    conj(t[r, i]) t[r, j] over r in order, in real arithmetic: one
    rounding per product and per sum, whatever the size of the stack.
    """
    x, y = np.ascontiguousarray(t.real), np.ascontiguousarray(t.imag)
    re = x[:, :, None] * x[:, None] + y[:, :, None] * y[:, None]
    im = x[:, :, None] * y[:, None] - y[:, :, None] * x[:, None]
    g, h = re[0], im[0]
    for r in range(1, len(t)):
        g, h = g + re[r], h + im[r]
    return g, h


_EYE3 = np.eye(3)[:, :, None]


def _top_eigenvalues_3(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Largest eigenvalues of the 3 x 3 Hermitian matrices g[:, :, N] + i h[:, :, N].

    The trigonometric form of _unit_scale_norms, with one eigvalsh for
    the rows near a degenerate top pair.
    """
    q = (g[0, 0] + g[1, 1] + g[2, 2]) / 3
    shifted = g - q * _EYE3
    sq = shifted * shifted + h * h
    p = np.sqrt((sq[0, 0] + sq[1, 1] + sq[2, 2] + 2 * (sq[0, 1] + sq[0, 2] + sq[1, 2])) / 6)
    # B = (G - q) / p entry by entry, so that no p^3 can underflow; p = 0
    # leaves B at G - q, whose entries are then 0 or too small to square
    s = np.where(p > 0, p, 1.0)
    br, bi = shifted / s, h / s
    sq = br * br + bi * bi
    # det B = b00 b11 b22 + 2 Re(b01 b12 b20) - b00 |b12|^2 - b11 |b02|^2 - b22 |b01|^2
    xz_re = br[0, 1] * br[1, 2] - bi[0, 1] * bi[1, 2]
    xz_im = br[0, 1] * bi[1, 2] + bi[0, 1] * br[1, 2]
    det = (
        br[0, 0] * br[1, 1] * br[2, 2]
        + 2 * (xz_re * br[0, 2] + xz_im * bi[0, 2])
        - br[0, 0] * sq[1, 2]
        - br[1, 1] * sq[0, 2]
        - br[2, 2] * sq[0, 1]
    )
    r = det / 2
    top = q + 2 * p * np.cos(np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3)
    near = ~np.isfinite(r) | ((r < 0) & (1 - r * r < 0.25))
    if near.any():
        gram = np.moveaxis(g[..., near] + 1j * h[..., near], -1, 0)
        top[near] = np.linalg.eigvalsh(gram)[:, -1]
    return top


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


# conjugate multiplies matrices up to this size entry by entry
_ENTRYWISE_DIM = 4


def conjugate(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """u a u+ for stacks u[..., d, d] and a[..., d, d], leading axes broadcast.

    A stacked u @ a @ u+ makes one BLAS call per matrix, which for a 2 x 2
    to 4 x 4 matrix costs far more than its arithmetic.  For d up to 4
    both products run entry by entry over the whole stack (_products).
    A larger d needs a single matrix a: u a is one 2-D GEMM over all the
    stack's rows, and the product with u+ one BLAS call per matrix, whose
    arithmetic now outweighs the call.  Either way each matrix's bits are
    its own, whatever the rest of the stack; a stack of one gives d >= 5
    GEMM rows, so OpenBLAS never sends it to GEMV.
    """
    u, a = np.asarray(u), np.asarray(a)
    d = u.shape[-1]
    if d > _ENTRYWISE_DIM:
        if a.ndim != 2:
            raise DimensionMismatchError("conjugated matrix", (d, d), a.shape)
        ua = (u.reshape(-1, d) @ a).reshape(u.shape)
        return ua @ np.conj(np.swapaxes(u, -1, -2))
    lead = np.broadcast_shapes(u.shape[:-2], a.shape[:-2])
    ur, ui = _parts(u, len(lead))
    br, bi = _products((ur, ui), _parts(a, len(lead)))
    # entry (k, l) of u+ is conj(u[l, k])
    cr, ci = _products((br, bi), (ur.swapaxes(0, 1), -ui.swapaxes(0, 1)))
    out = np.empty(lead + (d, d), dtype=complex)
    out.real = np.moveaxis(cr, (0, 1), (-2, -1))
    out.imag = np.moveaxis(ci, (0, 1), (-2, -1))
    return out


def _parts(x: np.ndarray, lead: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of a stack x[..., m, n] as contiguous [m, n, ...] arrays.

    The leading axes are padded in front to lead of them, so that the
    parts of two stacks broadcast as the stacks do; the stack axes go
    last, so every elementwise step runs along them.
    """
    x = x.reshape((1,) * (lead + 2 - x.ndim) + x.shape)
    moved = np.moveaxis(x, (-2, -1), (0, 1))
    return np.ascontiguousarray(moved.real), np.ascontiguousarray(moved.imag)


def _products(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Parts of the products a b of part stacks a[m, k, ...] and b[k, n, ...], as _parts holds them.

    Entry (i, l) adds the terms j = 0 .. k-1 in order, each term
    (ar br - ai bi) + i (ar bi + ai br) in real arithmetic: one rounding
    per product and per sum, so no entry's bits depend on the size or
    layout of the stack.  numpy's complex multiply is not used: whether it
    fuses a product and a sum into one rounding depends on the build.
    Every step writes into one of four buffers, as fresh temporaries of a
    large stack would each be a round trip to the allocator.
    """
    (ar, ai), (br, bi) = a, b
    shape = np.broadcast_shapes(ar[:, 0, None].shape, br[None, 0].shape)
    cr, ci, term, t = (np.empty(shape) for _ in range(4))
    for j in range(ar.shape[1]):
        xr, xi, yr, yi = ar[:, j, None], ai[:, j, None], br[None, j], bi[None, j]
        # term j is (re, im); the first term starts the sums
        re = np.multiply(xr, yr, out=cr if j == 0 else term)
        re -= np.multiply(xi, yi, out=t)
        if j:
            cr += re
        im = np.multiply(xr, yi, out=ci if j == 0 else term)
        im += np.multiply(xi, yr, out=t)
        if j:
            ci += im
    return cr, ci


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


def _kraus_sum(
    dim_in: int, dim_out: int, kraus: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of W -> sum_s K_s W K_s+, and the K_s stacked, each checked dim_out x dim_in."""
    coeff = np.zeros((dim_out, dim_out, dim_in, dim_in), dtype=complex)
    stack = np.empty((len(kraus), dim_out, dim_in), dtype=complex)
    for s, k in enumerate(kraus):
        k = np.asarray(k, dtype=complex)
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatchError("kraus", (dim_out, dim_in), k.shape)
        coeff += np.einsum("pi,qj->pqij", k, k.conj())
        stack[s] = k
    return coeff, stack


@dataclass(frozen=True)
class OperatorMap:
    """Linear map from one matrix algebra to another, stored over matrix units.

    coeff defines the map.  A map built by from_kraus (or
    BipartiteMap.build_from_kraus) also keeps, read-only, the stack
    kraus[r, dim_out, dim_in] it was built from, so that a check may use
    a closed form for a map with one Kraus operator; a map built from its
    coefficients carries kraus None.
    """

    dim_in: int
    dim_out: int
    coeff: np.ndarray  # coeff[p, q, i, j] = map(e_ij)[p, q]
    kraus: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex)
        want = (self.dim_out, self.dim_out, self.dim_in, self.dim_in)
        if c.shape != want:
            raise DimensionMismatchError("coefficient tensor", want, c.shape)
        c = np.array(c, copy=True)
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)
        if self.kraus is not None:
            k = np.array(self.kraus, dtype=complex)
            if k.ndim != 3 or k.shape[1:] != (self.dim_out, self.dim_in):
                want = ("r", self.dim_out, self.dim_in)
                raise DimensionMismatchError("kraus stack", want, k.shape)
            k.setflags(write=False)
            object.__setattr__(self, "kraus", k)

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
        coeff, stack = _kraus_sum(dim_in, dim_out, kraus)
        return cls(dim_in, dim_out, coeff, kraus=stack)

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
        dim_in = dim_in1 * dim_in2
        coeff, stack = _kraus_sum(dim_in, dim_out, kraus)
        return cls(dim_in, dim_out, coeff, dim_in1, dim_in2, kraus=stack)


def certify_cpu(m: OperatorMap) -> dict[str, float]:
    """How far a map is from completely positive and unital.

    Returns choi_hermiticity and choi_negativity, the positivity_defects of
    the Choi matrix (0 for a CP map), and unitality, the operator-norm
    distance of the image of the identity from the identity.  No
    threshold is applied here: the cpu check holds every term to its
    tolerance.
    """
    hermiticity, negativity = positivity_defects(m.choi())
    image_of_identity = m.apply_array(np.eye(m.dim_in, dtype=complex))
    return {
        "choi_hermiticity": hermiticity,
        "choi_negativity": negativity,
        "unitality": operator_norm(image_of_identity - np.eye(m.dim_out, dtype=complex)),
    }
