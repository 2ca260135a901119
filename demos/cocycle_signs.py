"""
Sign structure of the rotation double cover
===========================================

Lifting SO(3) rotations to SU(2) matrices forces a choice of sign for
every rotation.  The canonical section makes that choice by requiring
the first nonzero quaternion component to be positive, and the price is
a two-cocycle that takes values in {+1, -1}.  This script samples the
cocycle, checks the associativity identity exactly and prints the
commutator pairing table of the flip group, whose -1 entries show that
no smarter choice of signs could remove the obstruction.
"""

import numpy as np

from hqmmsym import (
    RotationElement,
    cocycle_defects,
    cocycle_eval,
    detect_nontrivial_class,
    haar_quaternions,
    spin_half_rep,
)
from hqmmsym.grouprep import _compose

# sample the cocycle on Haar random pairs: rotations are quaternion rows,
# and every function below takes a whole stack of them
quats = haar_quaternions(np.random.default_rng(1).standard_normal((400, 4)))
gs, hs = quats[::2], quats[1::2]
values = cocycle_eval(gs, hs)
plus = int(np.sum(values == 1.0))
minus = int(np.sum(values == -1.0))
print(f"cocycle values on 200 random pairs: {plus} times +1, {minus} times -1")
assert plus + minus == len(values)

# the section property ties the sign to the SU(2) lift
_, defects = cocycle_defects(spin_half_rep(), gs, hs)
print(f"lift(g) lift(h) = omega(g,h) lift(gh) up to {defects.max():.2e} on all 200 pairs")

# associativity holds exactly, not just to rounding
a, b, c = quats[0:399:3], quats[1:399:3], quats[2:399:3]
lhs = cocycle_eval(a, b) * cocycle_eval(_compose(a, b), c)
rhs = cocycle_eval(b, c) * cocycle_eval(a, _compose(b, c))
violations = int(np.sum(lhs != rhs))
print(f"cocycle identity violations over {len(a)} triples: {violations}")

# the flip group: identity plus the three pi rotations about the axes
flips = [
    RotationElement.identity(),
    RotationElement.from_axis_angle((1.0, 0.0, 0.0), np.pi),
    RotationElement.from_axis_angle((0.0, 1.0, 0.0), np.pi),
    RotationElement.from_axis_angle((0.0, 0.0, 1.0), np.pi),
]
report = detect_nontrivial_class(flips)
print()
print("commutator pairing omega(g,h)/omega(h,g) on the flip group:")
labels = ["e ", "Rx", "Ry", "Rz"]
print("     " + "   ".join(labels))
for label, row in zip(labels, np.asarray(report.pairing_table)):
    cells = "   ".join(f"{v.real:+.0f}" for v in row)
    print(f"  {label}  {cells}")

# any -1 entry is gauge invariant, so the class itself is nontrivial
print()
if report.nontrivial:
    # the vector part of a quaternion points along the rotation axis
    a, b = (np.asarray(e)[1:] / np.linalg.norm(np.asarray(e)[1:]) for e in report.witness)
    print("the class is nontrivial; witness pair axes:")
    print(f"  g about {a}, h about {b}")
else:
    print("the class is trivial on this subgroup")
