"""Rotations, their double cover, spin representations and cocycles.

A rotation is held as a unit quaternion (w, x, y, z) in a canonical sign:
the first nonzero component is strictly positive.  The canonical
representative is a concrete section of the double cover, and the scalar
relating a quaternion product to the canonical representative of the
composed rotation is a two-cocycle with values in {+1, -1}.

Rotations travel as quaternion stacks q[..., 4], and every function here
acts on a whole stack at once.  np.asarray turns a RotationElement, or a
list of them, into such a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NonCommutingError,
    NonUnimodularError,
    SubgroupStructureError,
    UnsupportedSpinError,
)
from .opalg import batched_kron, operator_norms, worst_deviation
from .sampling import rng_from

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Basis change from Cartesian (x, y, z) components to the (+, 0, -) basis of
# angular momentum eigenvectors with Condon-Shortley phases:
# |+> = -(|x> + i|y>)/sqrt2, |0> = |z>, |-> = (|x> - i|y>)/sqrt2.
# Rows are the bra vectors <m|.
CONDON_SHORTLEY = np.array(
    [
        [-1 / np.sqrt(2), 1j / np.sqrt(2), 0],
        [0, 0, 1],
        [1 / np.sqrt(2), 1j / np.sqrt(2), 0],
    ],
    dtype=complex,
)

ROTATION_TOL = 1e-10

# quaternion components below this are noise and count as exact zeros, so
# boundary rotations (half angle at pi/2, say) get an exact sign rule.  It is
# far above rounding noise (about 1e-16) and small enough that zeroing up to
# three components moves a rotation by under 2e-13, inside the 1e-12 bound on
# the lift defect ||U(g)U(h) - omega(g,h)U(gh)||; at 1e-12 that move reached
# 1.06e-12 for g, h about an axis with a 1e-12 component.
SNAP_TOL = 1e-13


def _norms(q: np.ndarray) -> np.ndarray:
    # a stacked dot product rounds exactly like np.linalg.norm of one quaternion
    return np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0, 0]


def _unit(q: np.ndarray) -> np.ndarray:
    return q / _norms(q)[..., None]


def canonical_quaternions(q) -> np.ndarray:
    """Canonical representatives of a quaternion stack q[..., 4].

    Each row is normalized, its components below SNAP_TOL become exact
    zeros, and it is signed so that its first nonzero component is
    positive.  This is the one sign rule of the package.  A row with no
    component at or above SNAP_TOL (a zero or non-finite row) has no
    canonical sign and raises ValueError.
    """
    with np.errstate(invalid="ignore"):
        q = _unit(np.asarray(q, dtype=float))
    kept = np.abs(q) >= SNAP_TOL
    if not kept.any(axis=-1).all():
        raise ValueError("a zero or non-finite quaternion has no canonical sign")
    lead = np.take_along_axis(q, kept.argmax(axis=-1)[..., None], axis=-1)
    return np.where(kept, q, 0.0) * np.where(lead > 0.0, 1.0, -1.0)


def _hamilton(a, b) -> np.ndarray:
    """Quaternion products a b over stacked (broadcast) leading axes."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2
    z = w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2
    return np.stack([w, x, y, z], axis=-1)


def _compose(a, b) -> np.ndarray:
    """Canonical quaternions of the rotations a b."""
    return canonical_quaternions(_hamilton(a, b))


def _distances(a, b) -> np.ndarray:
    """Distances as rotations, insensitive to the double-cover sign."""
    return np.minimum(_norms(a - b), _norms(a + b))


def su2_matrices(q) -> np.ndarray:
    """The canonical lifts w*I - i(x sx + y sy + z sz) in SU(2) of a stack q[..., 4]."""
    w, x, y, z = (np.asarray(q, dtype=float)[..., k, None, None] for k in range(4))
    return w * np.eye(2, dtype=complex) - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def rotation_matrices(q) -> np.ndarray:
    """The 3x3 orthogonal matrices acting on Cartesian vectors of a stack q[..., 4]."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


@dataclass(frozen=True)
class RotationElement:
    """Rotation held as a unit quaternion with canonical sign."""

    quat: tuple[float, float, float, float]

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion needs 4 components, got shape {q.shape}")
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {norm} is not 1")
        object.__setattr__(self, "quat", tuple(canonical_quaternions(q).tolist()))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.quat, dtype=dtype)

    @classmethod
    def identity(cls) -> "RotationElement":
        return cls((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "RotationElement":
        n = np.asarray(axis, dtype=float)
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ValueError("rotation axis must be nonzero")
        n = n / norm
        half = 0.5 * float(angle)
        return cls((np.cos(half), *(np.sin(half) * n)))

    def compose(self, other: "RotationElement") -> "RotationElement":
        return RotationElement(tuple(_hamilton(self.quat, other.quat)))

    def inverse(self) -> "RotationElement":
        w, x, y, z = self.quat
        return RotationElement((w, -x, -y, -z))

    def distance(self, other: "RotationElement") -> float:
        """Distance as rotations, insensitive to the double-cover sign."""
        return float(_distances(np.asarray(self.quat), np.asarray(other.quat)))

    def angle_axis(self) -> tuple[float, np.ndarray]:
        w, x, y, z = self.quat
        v = np.array([x, y, z])
        s = float(np.linalg.norm(v))
        theta = 2.0 * float(np.arctan2(s, w))
        axis = v / s if s > 0 else np.array([0.0, 0.0, 1.0])
        return theta, axis

    def su2_matrix(self) -> np.ndarray:
        """The canonical lift in SU(2)."""
        return su2_matrices(self.quat)

    def rotation_matrix(self) -> np.ndarray:
        """The 3x3 orthogonal matrix acting on Cartesian vectors."""
        return rotation_matrices(self.quat)

    def to_json_dict(self) -> dict:
        return {"quat": [float(c) for c in self.quat]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RotationElement":
        return cls(tuple(float(c) for c in obj["quat"]))


def haar_rotations(rng: np.random.Generator, count: int) -> np.ndarray:
    """Haar-uniform rotations as canonical quaternions of shape (count, 4).

    One draw of count normalized 4d Gaussians, the same stream as count
    draws of four.  Normalizing before canonical_quaternions normalizes
    again makes each row equal RotationElement(draw / |draw|) bit for bit.
    """
    return canonical_quaternions(_unit(rng.standard_normal((count, 4))))


def cocycle_eval(qg, qh) -> np.ndarray:
    """The section cocycle omega(g, h) on quaternion stacks qg, qh.

    omega is +1 where the quaternion product g h is already the canonical
    representative of the composed rotation and -1 where it is its
    negative, so U(g) U(h) = omega(g, h) U(gh) for the canonical lift U.
    The values are exact signs: each is the sign canonical_quaternions
    gives g h, as in compose.
    """
    prod = _hamilton(qg, qh)
    return np.sign(np.sum(prod * canonical_quaternions(prod), axis=-1))


def trivial_cocycle(qg, qh) -> np.ndarray:
    """The cocycle of a linear rep: 1 on every pair."""
    return np.ones(np.broadcast_shapes(np.shape(qg), np.shape(qh))[:-1])


def gauge_transform(cocycle: Callable, lam: Callable, tol: float = 1e-12) -> Callable:
    """Multiply a cocycle by the coboundary of a unimodular function lam.

    omega'(g, h) = lam(g) lam(h) conj(lam(gh)) omega(g, h), where lam maps a
    quaternion stack q[..., 4] to its values over the leading axes.  Every
    lam value is checked for unit modulus.
    """

    def checked(q: np.ndarray) -> np.ndarray:
        values = np.asarray(lam(q), dtype=complex)
        dev = float(np.max(np.abs(np.abs(values) - 1.0)))
        if not dev <= tol:
            raise NonUnimodularError(dev)
        return values

    def gauged(qg, qh) -> np.ndarray:
        return checked(qg) * checked(qh) * np.conj(checked(_compose(qg, qh))) * cocycle(qg, qh)

    return gauged


def commutator_pairing(
    g: RotationElement, h: RotationElement, tol: float = ROTATION_TOL
) -> complex:
    """omega(g, h) / omega(h, g) for a commuting pair.

    The ratio is gauge invariant on commuting pairs and equals the group
    commutator of the lifts as a scalar.
    """
    dev = g.compose(h).distance(h.compose(g))
    if dev > tol:
        raise NonCommutingError(dev, tol)
    return complex(cocycle_eval(g, h)) / complex(cocycle_eval(h, g))


@dataclass(frozen=True)
class NontrivialClassReport:
    nontrivial: bool
    witness: tuple[RotationElement, RotationElement] | None
    pairing_table: np.ndarray


def detect_nontrivial_class(
    elements: Sequence[RotationElement], tol: float = ROTATION_TOL
) -> NontrivialClassReport:
    """Decide whether a finite abelian subgroup carries a nontrivial class.

    The input must be closed under composition and abelian, both checked.
    The class of the section cocycle is nontrivial exactly when some
    commutator pairing differs from 1, and that pairing is gauge invariant,
    so no gauge search is needed.  Every pair is evaluated at once, as
    (n, n) stacks with entry [i, j] for the pair (elements[i], elements[j]).
    """
    elements = list(elements)
    q = np.asarray(elements, dtype=float).reshape(len(elements), 4)
    g, h = q[:, None], q[None, :]
    gh = _compose(g, h)
    checks = (
        ("product leaves the element list", _distances(gh[:, :, None], q).min(axis=-1)),
        ("elements do not commute", _distances(gh, _compose(h, g))),
    )
    for reason, deviations in checks:
        bad = np.flatnonzero(deviations > tol)
        if bad.size:
            raise SubgroupStructureError(reason, float(deviations.flat[bad[0]]))
    omega = cocycle_eval(g, h).astype(complex)
    table = omega / omega.T
    paired = np.argwhere(np.abs(table - 1.0) > 0.5)
    witness = tuple(elements[k] for k in paired[0]) if len(paired) else None
    return NontrivialClassReport(witness is not None, witness, table)


def _spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices in the |j, m> basis, m = j .. -j."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jplus[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / (2j)
    return jx, jy, jz


def _expi_hermitian(h: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i * angle * h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


@dataclass(frozen=True)
class ProjectiveRep:
    """Unitary-valued map of rotations multiplicative up to a cocycle.

    stack maps a quaternion stack q[N, 4] to the unitaries U(q), shape
    (N, dim, dim); cocycle maps stacks qg, qh to omega[N] with
    U(g) U(h) = omega(g, h) U(gh).  A linear rep keeps the trivial cocycle.
    """

    dim: int
    stack: Callable[[np.ndarray], np.ndarray]
    cocycle: Callable[[np.ndarray, np.ndarray], np.ndarray] = trivial_cocycle


def spin_half_rep() -> ProjectiveRep:
    return ProjectiveRep(2, su2_matrices, cocycle_eval)


def spin_one_rep(basis: str = "cartesian") -> ProjectiveRep:
    """The spin-1 rep in one of two bases.

    "cartesian" gives the real orthogonal matrices on (x, y, z), and
    "spherical" their conjugates by the Condon-Shortley basis change.
    """
    if basis == "cartesian":
        return ProjectiveRep(3, lambda q: rotation_matrices(q).astype(complex))
    if basis == "spherical":
        u = CONDON_SHORTLEY
        return ProjectiveRep(3, lambda q: u @ rotation_matrices(q) @ u.conj().T)
    raise ValueError(f"unknown spin-1 basis {basis!r}")


def trivial_rep(dim: int = 1) -> ProjectiveRep:
    eye = np.eye(dim, dtype=complex)
    return ProjectiveRep(dim, lambda q: np.broadcast_to(eye, (*np.shape(q)[:-1], dim, dim)))


def spin_rep(j: float, g: RotationElement, basis: str = "cartesian") -> np.ndarray:
    """Spin-j matrix of a rotation, consistent with the canonical section.

    j = 1/2 returns the canonical SU(2) lift and j = 1 the matrix of
    spin_one_rep(basis).  Any other positive half integer is handled in
    the |j, m> basis by exponentiating the angle-axis decomposition of the
    canonical quaternion.
    """
    twice = 2 * float(j)
    if twice <= 0 or abs(twice - round(twice)) > 1e-12:
        raise UnsupportedSpinError(j)
    if float(j) == 0.5:
        return g.su2_matrix()
    if float(j) == 1.0:
        return spin_one_rep(basis).stack(g.quat)
    theta, axis = g.angle_axis()
    jx, jy, jz = _spin_matrices(float(j))
    return _expi_hermitian(axis[0] * jx + axis[1] * jy + axis[2] * jz, theta)


def cocycle_defects(rep: ProjectiveRep, qg, qh) -> tuple[np.ndarray, np.ndarray]:
    """Cocycle values and defects of a rep on the pairs (qg[k], qh[k]).

    Returns omega[k] = omega(g, h) and the operator norms
    || U(g) U(h) - omega(g, h) U(gh) ||, taken as one stacked SVD.
    """
    omega = rep.cocycle(qg, qh)
    defects = rep.stack(qg) @ rep.stack(qh) - omega[..., None, None] * rep.stack(_compose(qg, qh))
    return omega, operator_norms(defects)


def tensor_rep_cocycle_check(
    rep1: ProjectiveRep, rep2: ProjectiveRep, samples: int = 200, seed: int = 0
) -> float:
    """Deviation of the product rep from multiplying up to the product cocycle.

    Samples pairs (g, h) and measures
    || (U1 tensor U2)(g) (U1 tensor U2)(h) - w1(g,h) w2(g,h) (U1 tensor U2)(gh) ||.
    """
    product = ProjectiveRep(
        rep1.dim * rep2.dim,
        lambda q: batched_kron(rep1.stack(q), rep2.stack(q)),
        lambda qg, qh: rep1.cocycle(qg, qh) * rep2.cocycle(qg, qh),
    )
    q = haar_rotations(rng_from(seed), 2 * samples)
    _, deviations = cocycle_defects(product, q[0::2], q[1::2])
    return worst_deviation(deviations)
