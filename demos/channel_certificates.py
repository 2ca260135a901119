"""
Complete positivity certificates for the model maps
===================================================

The generative triple behind the spin-1 chain consists of a transition
map on the hidden qubit and an emission map that couples the qubit to a
three-level observation.  Both must be completely positive and unital
for the finite-volume states to be bona fide expectation values.  This
script prints the three terms certify_cpu gives for each map: the
Choi matrix's hermiticity defect and negativity (minus its smallest
eigenvalue, when that is negative), and the unitality deviation of the
image of the identity.  It then shows two instructive
failures: the emission with its physical slot transposed stops being
CP, and the transition without its normalization stops being unital.
"""

import numpy as np

from hqmmsym import OperatorMap, build_model, certify_cpu


def show(title: str, terms: dict) -> None:
    print(f"{title}:")
    for name, value in terms.items():
        print(f"  {name:<17} {value:.3e}")


model = build_model("normalized_cartesian")

# healthy maps first
show("transition", certify_cpu(model.triple.transition))
show("emission", certify_cpu(model.triple.emission))

# transposing the physical slot of the emission ruins positivity.
# The map is still linear and still unital, but its Choi matrix picks
# up a negative eigenvalue, which certify_cpu reports as its negativity.
# Swapping the two physical indices of the coefficient tensor turns
# E(X tensor Y) into E(X tensor Y^T).
h, o = model.triple.hidden_dim, model.triple.obs_dim
coeff = model.triple.emission.coeff.reshape(h, h, h, o, h, o).swapaxes(3, 5)
transposed = OperatorMap(h * o, h, coeff.reshape(h, h, h * o, h * o))
print()
show("emission with transposed physical slot", certify_cpu(transposed))

# the partial trace's Kraus operators are 1 tensor <j| / sqrt(h).
# Dropping the 1 / sqrt(h) keeps the map CP but breaks unitality, which
# later surfaces as a failure of extension consistency for the
# finite-volume states
kraus = [np.kron(np.eye(h), np.eye(h)[j][None, :]) for j in range(h)]
print()
show("transition without normalization", certify_cpu(OperatorMap.from_kraus(h * h, h, kraus)))
