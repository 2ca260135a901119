"""
Complete positivity certificates for the model maps
===================================================

The generative triple behind the spin-1 chain consists of a transition
map on the hidden qubit and an emission map that couples the qubit to a
three-level observation.  Both must be completely positive and unital
for the finite-volume states to be bona fide expectation values.  This
script prints how far each map is from CPU, through its Choi matrix
(hermiticity defect and smallest eigenvalue) and the image of the
identity (unitality deviation), and then shows two instructive
failures: the emission with its physical slot transposed stops being
CP, and the transition without its normalization stops being unital.
"""

from hqmmsym import build_model, certify_cpu, emission_map, transition_map

model = build_model("normalized_cartesian")

# healthy maps first
for name, cert in model.triple.certificates().items():
    print(f"{name}:")
    print(f"  Choi hermiticity defect {cert.choi_defect:.3e}")
    print(f"  Choi minimum eigenvalue {cert.min_eigenvalue:+.3e}")
    print(f"  unitality deviation     {cert.unitality_deviation:.3e}")

# transposing the physical slot of the emission ruins positivity.
# The map is still linear and still unital, but its Choi matrix picks
# up a negative eigenvalue, which certify_cpu reports directly.
literal = certify_cpu(emission_map(model.tensors, order="literal"))
print()
print("emission with transposed physical slot:")
print(f"  Choi hermiticity defect {literal.choi_defect:.3e}")
print(f"  Choi minimum eigenvalue {literal.min_eigenvalue:+.3f}")
print(f"  unitality deviation     {literal.unitality_deviation:.3e}")

# dropping the 1/d normalization of the partial trace keeps the map CP
# but breaks unitality, which later surfaces as a failure of extension
# consistency for the finite-volume states
unnormalized = certify_cpu(transition_map(normalized=False))
print()
print("transition without normalization:")
print(f"  Choi hermiticity defect {unnormalized.choi_defect:.3e}")
print(f"  Choi minimum eigenvalue {unnormalized.min_eigenvalue:+.3e}")
print(f"  unitality deviation     {unnormalized.unitality_deviation:.3f}")
