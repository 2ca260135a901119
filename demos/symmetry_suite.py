"""
Rotation symmetry of the spin-1 chain model
===========================================

The hidden qubit carries the projective half-spin action and the
observed spin-1 site carries a linear action.  This script verifies the
whole chain of symmetry statements on the built-in model: the tensors
intertwine the two actions, every map in the triple transforms
covariantly, and the finite-volume states are invariant under global
rotations at every volume.  It also runs the same checks on the
unnormalized tensor variant, where they fail by a wide margin.
"""

import numpy as np

from hqmmsym import (
    SymmetryAction,
    build_model,
    build_tensors,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_transition_equivariance,
    haar_quaternions,
    spin_half_rep,
    spin_one_rep,
    unit_sites,
    verify_intertwining,
)
from hqmmsym.cli import RunConfig, run

model = build_model("normalized_cartesian")


def haar(seed: int, count: int):
    """count Haar rotations, decoded from count rows of 4 Gaussians of a seeded generator."""
    return haar_quaternions(np.random.default_rng(seed).standard_normal((count, 4)))


# do the tensors tie the two rotation actions together?
# each check takes the unitary stacks pi(g_k) and rho(g_k) of its rotations
print("intertwining residual of sum_k rho(g)_km A_k against pi(g) A_m pi(g)+:")
q = haar(2, 60)
for variant in ("normalized_cartesian", "normalized_spherical", "paper_literal"):
    tensors = build_tensors(variant)
    action = SymmetryAction(spin_half_rep(), spin_one_rep(tensors.basis))
    residual = verify_intertwining(tensors, action.pi.stack(q), action.rho.stack(q)).max()
    print(f"  {variant:22s} {residual:.2e}")

# the three local checks behind global invariance; each returns one
# deviation per rotation, held here to the verify tolerance
print()
tolerance = 1e-10
pi, rho = model.action.pi.stack, model.action.rho.stack
q_emission = haar(5, 100)
checks = {
    "initial_invariance": check_initial_invariance(
        model.triple.phi0, pi(haar(3, 100))
    ),
    "transition_equivariance": check_transition_equivariance(
        model.triple.transition, pi(haar(4, 100))
    ),
    "emission_covariance": check_emission_covariance(
        model.triple.emission, pi(q_emission), rho(q_emission)
    ),
}
for condition, deviations in checks.items():
    worst = deviations.max()
    print(
        f"{condition:28s} max deviation {worst:.2e} "
        f"tolerance {tolerance:.0e}  pass={worst <= tolerance}"
    )

# global invariance volume by volume, under both causal structures: one
# rotation and one word of 5 sites per sample, read off one generator as
# a verify run reads them, the words' sites in blocks from the end (block
# j holds every word's j-th site from the end)
print()
rng = np.random.default_rng(6)
q = haar_quaternions(rng.standard_normal((30, 4)))
width = 2 * 2**2 + 2 * 3**2
xs, ys = unit_sites(model.triple, rng.standard_normal((5 * 30, width)))
words = xs.reshape(5, 30, 2, 2)[::-1].swapaxes(0, 1), ys.reshape(5, 30, 3, 3)[::-1].swapaxes(0, 1)
for structure in ("conventional", "causal"):
    by_volume = check_global_invariance(model.triple, structure, pi(q), rho(q), *words)
    worst = max(deviations.max() for deviations in by_volume)
    print(f"global invariance, {structure:12s} worst over n<=4: {worst:.2e}")

# the unnormalized variant breaks the intertwining and the emission covariance
print()
report = run(
    RunConfig(variant="paper_literal", samples=60, global_samples=10, n_max=3, seed=7)
)
for check in report["checks"]:
    if not check["pass"]:
        print(
            f"paper_literal fails {check['condition']:28s} "
            f"max deviation {check['max_deviation']:.2e}"
        )
