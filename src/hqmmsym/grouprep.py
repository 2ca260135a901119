"""Rotations, their double cover, the spin-1/2 and spin-1 reps, and the section cocycle.

A rotation is held as a unit quaternion (w, x, y, z) in a canonical sign:
the first nonzero component is strictly positive.  The canonical
representative is a concrete section of the double cover.  The sign that
canonicalization applies to a quaternion product g h is the section
cocycle omega(g, h), a two-cocycle with values in {+1, -1}: _section
returns it beside the canonical product, so the cocycle is read off the
sign rule itself rather than recovered from the product afterwards.

Rotations travel as quaternion stacks q[..., 4], and every function here
acts on a whole stack at once.  np.asarray turns a RotationElement, or a
list of them, into such a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SubgroupStructureError
from .opalg import conjugate, operator_norms

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

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

# commuting and closure checks allow this rotation distance
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


def _section(q) -> tuple[np.ndarray, np.ndarray]:
    """Canonical representatives of a quaternion stack q[..., 4], and the signs applied.

    Each row is normalized, its components below SNAP_TOL become exact
    zeros, and it is multiplied by the sign (+1.0 or -1.0) that makes its
    first nonzero component positive.  This is the one sign rule of the
    package.  A row with no component at or above SNAP_TOL (a zero or
    non-finite row) has no canonical sign and raises ValueError.
    """
    with np.errstate(invalid="ignore"):
        q = _unit(np.asarray(q, dtype=float))
    kept = np.abs(q) >= SNAP_TOL
    if not kept.any(axis=-1).all():
        raise ValueError("a zero or non-finite quaternion has no canonical sign")
    lead = np.take_along_axis(q, kept.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    # |lead| >= SNAP_TOL, so its sign is +1.0 or -1.0, never 0
    sign = np.sign(lead)
    return np.where(kept, q, 0.0) * sign[..., None], sign


def canonical_quaternions(q) -> np.ndarray:
    """Canonical representatives of a quaternion stack q[..., 4], by the rule of _section."""
    return _section(q)[0]


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
    """Canonical quaternions of the rotations a b; cocycle_eval gives the sign applied."""
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
    """One rotation, validated and held as a unit quaternion with canonical sign.

    The library works on quaternion stacks; this class is the boundary for
    a single element read from the command line or written to JSON, and
    np.asarray turns it (or a list of them) into a stack.
    """

    quat: tuple[float, float, float, float]

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion needs 4 components, got shape {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError(f"quaternion components must be finite, got {q.tolist()}")
        # hypot neither overflows nor underflows, and only this test reads it
        norm = float(np.hypot.reduce(q))
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
        angle = float(angle)
        if not (np.isfinite(n).all() and np.isfinite(angle)):
            raise ValueError(f"rotation axis and angle must be finite, got {n.tolist()}, {angle}")
        top = float(np.abs(n).max())
        if top == 0.0:
            raise ValueError("rotation axis must be nonzero")
        # scaling by the power of two nearest the largest component keeps the
        # norm from overflowing or underflowing and, being exact, moves no bit
        n = np.ldexp(n, -np.frexp(top)[1])
        n = n / np.linalg.norm(n)
        half = 0.5 * angle
        return cls((np.cos(half), *(np.sin(half) * n)))

    def to_json_dict(self) -> dict:
        return {"quat": [float(c) for c in self.quat]}


def haar_quaternions(g: np.ndarray) -> np.ndarray:
    """Haar-uniform rotations, as canonical quaternions, from Gaussian rows g[N, 4].

    Normalizing before canonical_quaternions normalizes again makes each
    row equal RotationElement(g / |g|) bit for bit for its Gaussians g,
    and every step is per row, so a row's bits do not depend on N.
    """
    return canonical_quaternions(_unit(g))


def cocycle_eval(qg, qh) -> np.ndarray:
    """The section cocycle omega(g, h) on quaternion stacks qg, qh.

    omega is the sign that canonicalization applies to the quaternion
    product g h: +1 where g h is already the canonical representative of
    the composed rotation and -1 where it is its negative, so
    U(g) U(h) = omega(g, h) U(gh) for the canonical lift U.  The values
    are exact signs, from the same rule that gives compose its result.
    """
    return _section(_hamilton(qg, qh))[1]


def trivial_cocycle(qg, qh) -> np.ndarray:
    """The cocycle of a linear rep: 1 on every pair."""
    return np.ones(np.broadcast_shapes(np.shape(qg), np.shape(qh))[:-1])


@dataclass(frozen=True)
class NontrivialClassReport:
    nontrivial: bool
    witness: tuple[RotationElement, RotationElement] | None
    pairing_table: np.ndarray


def detect_nontrivial_class(elements: Sequence[RotationElement]) -> NontrivialClassReport:
    """Decide whether a finite abelian subgroup carries a nontrivial class.

    The input must be closed under composition and abelian, both checked.
    The class of the section cocycle is nontrivial exactly when some
    commutator pairing differs from 1, and that pairing is gauge invariant,
    so no gauge search is needed.  Every pair is evaluated at once, as
    (n, n) stacks with entry [i, j] for the pair (elements[i], elements[j]).
    One product table gh gives the compositions and the section signs;
    the reversed products hg are gh with its two axes swapped.
    """
    elements = list(elements)
    q = np.asarray(elements, dtype=float).reshape(len(elements), 4)
    gh, omega = _section(_hamilton(q[:, None], q[None, :]))
    checks = (
        ("product leaves the element list", _distances(gh[:, :, None], q).min(axis=-1)),
        ("elements do not commute", _distances(gh, gh.swapaxes(0, 1))),
    )
    for reason, deviations in checks:
        bad = np.flatnonzero(deviations > ROTATION_TOL)
        if bad.size:
            raise SubgroupStructureError(reason, float(deviations.flat[bad[0]]))
    omega = omega.astype(complex)
    table = omega / omega.T
    paired = np.argwhere(np.abs(table - 1.0) > 0.5)
    witness = tuple(elements[k] for k in paired[0]) if len(paired) else None
    return NontrivialClassReport(witness is not None, witness, table)


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
        return ProjectiveRep(3, lambda q: conjugate(CONDON_SHORTLEY, rotation_matrices(q)))
    raise ValueError(f"unknown spin-1 basis {basis!r}")


def cocycle_defects(rep: ProjectiveRep, qg, qh) -> tuple[np.ndarray, np.ndarray]:
    """Cocycle values and defects of a rep on the pairs (qg[k], qh[k]).

    Returns omega[k] = omega(g, h) and the operator norms
    || U(g) U(h) - omega(g, h) U(gh) ||, taken by one stacked
    opalg.operator_norms: a scaled Gram eigenvalue, nan for a non-finite
    matrix, exactly 0 for a zero matrix.  For the 2 x 2 and 3 x 3 reps
    that eigenvalue has a closed form; a 3 x 3 defect whose top two
    eigenvalues nearly coincide, and any larger rep, goes to eigvalsh.
    """
    omega = rep.cocycle(qg, qh)
    defects = rep.stack(qg) @ rep.stack(qh) - omega[..., None, None] * rep.stack(_compose(qg, qh))
    return omega, operator_norms(defects)
