"""
Finite-volume states, word by word
==================================

A finite-volume state assigns a number to a word of site observables,
one hidden-by-observed pair per site.  This script evaluates a few
instructive words on the built-in model: all-identity words recover the
normalization, label projectors recover the single-site distribution,
and longer projector strings match a dense contraction oracle that sums
over every internal index.  The conventional and causal orderings agree
on this model, and a classical diagonal model reproduces the forward
algorithm of its hidden Markov chain.
"""

import numpy as np

from hqmmsym import (
    build_model,
    classical_diagonal_triple,
    dense_word_value,
    finite_volume_state,
    projector_word,
    random_word,
    single_site_distribution,
)
from hqmmsym.hqmm import ObservableWord
from hqmmsym.opalg import ComplexOperator
from hqmmsym.sampling import rng_from

model = build_model("normalized_cartesian")
triple = model.triple

# all-identity words evaluate to one at every volume
for n in (1, 3, 6):
    word = ObservableWord.all_identity(n, triple.hidden_dim, triple.obs_dim)
    value = finite_volume_state(triple, model.structure, word)
    print(f"{n}-site all-identity word: {value.real:.12f}")

# label projectors give the outcome distribution of a single site
print()
for variant in ("normalized_cartesian", "paper_literal"):
    m = build_model(variant)
    dist = single_site_distribution(m)
    cells = "  ".join(f"P({label})={p:.4f}" for label, p in dist.items())
    print(f"{variant:22s} {cells}")

# a three-site projector string, checked against the dense oracle
print()
word = projector_word(model, "xyz")
fold = finite_volume_state(triple, model.structure, word)
dense = dense_word_value(triple, model.structure, word)
print(f"P(x, y, z) by the transfer fold:   {fold.real:.12f}")
print(f"P(x, y, z) by dense contraction:   {dense.real:.12f}")
print(f"exact value 1/27 =                 {1.0 / 27.0:.12f}")

# the two causal structures agree on random words for this model
rng = rng_from(8)
worst = 0.0
for i in range(20):
    w = random_word(rng, triple, 1 + i % 4)
    conv = finite_volume_state(triple, "conventional", w)
    caus = finite_volume_state(triple, "causal", w)
    worst = max(worst, abs(conv - caus))
print()
print(f"largest conventional/causal gap over 20 random words: {worst:.2e}")

# a classical chain embeds as a diagonal model; projector words then
# compute ordinary hidden Markov likelihoods
t = np.array([[0.9, 0.1], [0.2, 0.8]])
b = np.array([[0.7, 0.3], [0.1, 0.9]])
initial = np.array([0.5, 0.5])
classical = classical_diagonal_triple(initial, t, b)
symbols = [0, 1, 1, 0]
pairs = []
for y in symbols:
    proj = np.zeros((2, 2), dtype=complex)
    proj[y, y] = 1.0
    pairs.append((ComplexOperator.identity(2), ComplexOperator(2, proj)))
likelihood = finite_volume_state(classical, "conventional", ObservableWord.from_pairs(pairs))
print()
print(f"classical likelihood of observations {symbols}: {likelihood.real:.6f}")
