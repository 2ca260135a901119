"""Rotations, their double cover, spin representations and cocycles.

A rotation is held as a unit quaternion (w, x, y, z) in a canonical sign:
the first nonzero component is strictly positive.  The canonical
representative is a concrete section of the double cover, and the scalar
relating a quaternion product to the canonical representative of the
composed rotation is a two-cocycle with values in {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NonCommutingError,
    NonUnimodularError,
    SubgroupStructureError,
    UnsupportedSpinError,
)
from .opalg import ComplexOperator, operator_norms, worst_deviation
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


def _canonical_sign(q: np.ndarray) -> float:
    """Sign that makes the first component of q above SNAP_TOL strictly positive."""
    for comp in q:
        if abs(comp) >= SNAP_TOL:
            return 1.0 if comp > 0.0 else -1.0
    raise ValueError("zero quaternion has no canonical sign")


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        ]
    )


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
        q = q / norm
        q = np.where(np.abs(q) < SNAP_TOL, 0.0, q) * _canonical_sign(q)
        object.__setattr__(self, "quat", tuple(float(c) for c in q))

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
        return RotationElement(tuple(_quat_mul(np.asarray(self.quat), np.asarray(other.quat))))

    def inverse(self) -> "RotationElement":
        w, x, y, z = self.quat
        return RotationElement((w, -x, -y, -z))

    def distance(self, other: "RotationElement") -> float:
        """Distance as rotations, insensitive to the double-cover sign."""
        a = np.asarray(self.quat)
        b = np.asarray(other.quat)
        return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))

    def angle_axis(self) -> tuple[float, np.ndarray]:
        w, x, y, z = self.quat
        v = np.array([x, y, z])
        s = float(np.linalg.norm(v))
        theta = 2.0 * float(np.arctan2(s, w))
        axis = v / s if s > 0 else np.array([0.0, 0.0, 1.0])
        return theta, axis

    def su2_matrix(self) -> np.ndarray:
        """The canonical lift w*I - i(x sx + y sy + z sz) in SU(2)."""
        w, x, y, z = self.quat
        return w * np.eye(2, dtype=complex) - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)

    def rotation_matrix(self) -> np.ndarray:
        """The 3x3 orthogonal matrix acting on Cartesian vectors."""
        w, x, y, z = self.quat
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_json_dict(self) -> dict:
        return {"quat": [float(c) for c in self.quat]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RotationElement":
        return cls(tuple(float(c) for c in obj["quat"]))


def haar_rotations(rng: np.random.Generator, count: int) -> list[RotationElement]:
    """Haar-uniform rotations drawn from an existing generator."""
    out = []
    while len(out) < count:
        q = rng.standard_normal(4)
        norm = np.linalg.norm(q)
        if norm < 1e-12:
            continue
        out.append(RotationElement(tuple(q / norm)))
    return out


def haar_sample(seed: int, count: int) -> list[RotationElement]:
    """Deterministic Haar sample: normalized 4d Gaussians, canonical sign."""
    return haar_rotations(rng_from(seed), count)


def raw_quaternion_sample(seed: int, count: int) -> np.ndarray:
    """Unit quaternions before sign canonicalization, for distribution tests."""
    rng = rng_from(seed)
    q = rng.standard_normal((count, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def cocycle_eval(g: RotationElement, h: RotationElement) -> float:
    """Sign relating the lifted product to the canonical lift of g h.

    Returns +1.0 when the raw quaternion product is already canonical and
    -1.0 when it is the negative of the canonical representative, so the
    value is exactly a sign, never a rounded float.  The sign is taken
    exactly as the RotationElement constructor takes it for g.compose(h).
    """
    prod = _quat_mul(np.asarray(g.quat), np.asarray(h.quat))
    return _canonical_sign(prod / np.linalg.norm(prod))


@dataclass(frozen=True)
class TwoCocycle:
    """Phase-valued function of two rotations."""

    evaluate: Callable[[RotationElement, RotationElement], complex]
    tag: str = "section"


def section_cocycle() -> TwoCocycle:
    return TwoCocycle(lambda g, h: complex(cocycle_eval(g, h)), tag="canonical-section")


def trivial_cocycle() -> TwoCocycle:
    return TwoCocycle(lambda g, h: 1.0 + 0.0j, tag="trivial")


def gauge_transform(
    cocycle: TwoCocycle, lam: Callable[[RotationElement], complex], tol: float = 1e-12
) -> TwoCocycle:
    """Multiply a cocycle by the coboundary of a unimodular function lam.

    omega'(g, h) = lam(g) lam(h) conj(lam(gh)) omega(g, h).  Every lam value
    is checked for unit modulus.
    """

    def checked(g: RotationElement) -> complex:
        value = complex(lam(g))
        dev = abs(abs(value) - 1.0)
        if dev > tol:
            raise NonUnimodularError(dev)
        return value

    def evaluate(g: RotationElement, h: RotationElement) -> complex:
        return checked(g) * checked(h) * np.conj(checked(g.compose(h))) * complex(
            cocycle.evaluate(g, h)
        )

    return TwoCocycle(evaluate, tag=f"gauge({cocycle.tag})")


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
    so no gauge search is needed.
    """
    elements = list(elements)
    n = len(elements)
    for a in elements:
        for b in elements:
            prod = a.compose(b)
            nearest = min(prod.distance(c) for c in elements)
            if nearest > tol:
                raise SubgroupStructureError("product leaves the element list", nearest)
    for a in elements:
        for b in elements:
            dev = a.compose(b).distance(b.compose(a))
            if dev > tol:
                raise SubgroupStructureError("elements do not commute", dev)
    table = np.ones((n, n), dtype=complex)
    witness = None
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = commutator_pairing(a, b, tol)
            if witness is None and abs(table[i, j] - 1.0) > 0.5:
                witness = (a, b)
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


def spin_rep(j: float, g: RotationElement, basis: str = "cartesian") -> np.ndarray:
    """Spin-j matrix of a rotation, consistent with the canonical section.

    j = 1/2 returns the canonical SU(2) lift.  j = 1 supports two bases:
    "cartesian" gives the real orthogonal matrix on (x, y, z), "spherical"
    its conjugate by the Condon-Shortley basis change.  Any other positive
    half integer is handled in the |j, m> basis by exponentiating the
    angle-axis decomposition of the canonical quaternion.
    """
    twice = 2 * float(j)
    if twice <= 0 or abs(twice - round(twice)) > 1e-12:
        raise UnsupportedSpinError(j)
    if float(j) == 0.5:
        return g.su2_matrix()
    if float(j) == 1.0:
        r = g.rotation_matrix().astype(complex)
        if basis == "cartesian":
            return r
        if basis == "spherical":
            u = CONDON_SHORTLEY
            return u @ r @ u.conj().T
        raise ValueError(f"unknown spin-1 basis {basis!r}")
    theta, axis = g.angle_axis()
    jx, jy, jz = _spin_matrices(float(j))
    return _expi_hermitian(axis[0] * jx + axis[1] * jy + axis[2] * jz, theta)


@dataclass(frozen=True)
class ProjectiveRep:
    """Unitary-valued map of rotations multiplicative up to a cocycle."""

    dim: int
    evaluate: Callable[[RotationElement], ComplexOperator]
    cocycle: TwoCocycle

    def stack(self, gs: Sequence[RotationElement]) -> np.ndarray:
        """The unitaries of the elements gs, stacked as an array (len(gs), dim, dim)."""
        return np.stack([self.evaluate(g).entries for g in gs])


@dataclass(frozen=True)
class LinearRep(ProjectiveRep):
    """Genuine representation: the cocycle is identically 1."""

    cocycle: TwoCocycle = field(default_factory=trivial_cocycle)


def spin_half_rep() -> ProjectiveRep:
    return ProjectiveRep(
        dim=2,
        evaluate=lambda g: ComplexOperator(2, g.su2_matrix()),
        cocycle=section_cocycle(),
    )


def spin_one_rep(basis: str = "cartesian") -> LinearRep:
    return LinearRep(dim=3, evaluate=lambda g: ComplexOperator(3, spin_rep(1, g, basis)))


def trivial_rep(dim: int = 1) -> LinearRep:
    return LinearRep(dim=dim, evaluate=lambda g: ComplexOperator.identity(dim))


def cocycle_defects(
    rep: ProjectiveRep, gs: Sequence[RotationElement], hs: Sequence[RotationElement]
) -> tuple[np.ndarray, np.ndarray]:
    """Cocycle values and defects of a rep on the pairs (gs[k], hs[k]).

    Returns omega[k] = omega(g, h) and the operator norms
    || U(g) U(h) - omega(g, h) U(gh) ||, taken as one stacked SVD.
    """
    omega = np.array([complex(rep.cocycle.evaluate(g, h)) for g, h in zip(gs, hs)])
    products = rep.stack(gs) @ rep.stack(hs)
    composed = rep.stack([g.compose(h) for g, h in zip(gs, hs)])
    return omega, operator_norms(products - omega[:, None, None] * composed)


def tensor_rep_cocycle_check(
    rep1: ProjectiveRep, rep2: ProjectiveRep, samples: int = 200, seed: int = 0
) -> float:
    """Deviation of the product rep from multiplying up to the product cocycle.

    Samples pairs (g, h) and measures
    || (U1 tensor U2)(g) (U1 tensor U2)(h) - w1(g,h) w2(g,h) (U1 tensor U2)(gh) ||.
    """
    dim = rep1.dim * rep2.dim
    product = ProjectiveRep(
        dim,
        lambda g: ComplexOperator(dim, np.kron(rep1.evaluate(g).entries, rep2.evaluate(g).entries)),
        TwoCocycle(lambda g, h: rep1.cocycle.evaluate(g, h) * rep2.cocycle.evaluate(g, h)),
    )
    gs = haar_rotations(rng_from(seed), 2 * samples)
    _, deviations = cocycle_defects(product, gs[0::2], gs[1::2])
    return worst_deviation(deviations)
