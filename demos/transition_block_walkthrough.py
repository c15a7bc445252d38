"""Walk through one full transition-block computation on the rank-2 quotient
of the order-2 folding: enumerate the weight block, print the monomial
words and their Gram matrix, factor it, and split the triangular factor.

Run: python3 demos/transition_block_walkthrough.py
"""

import qfold
from qfold.transition import factor_gram, gram_block

preset = qfold.get_preset("B2")
datum = preset.fd.quotient

print("generators:", ", ".join(datum.labels))
print("reduced word:", " ".join(preset.ulseq.indices))
print("positive roots in word order:")
for k, beta in enumerate(preset.ulseq.betas):
    pretty = " + ".join(f"{n}*a{lab}" for lab, n in zip(datum.labels, beta) if n)
    print(f"  beta_{k + 1} = {pretty}")

gamma = (2, 1)
print(f"\nweight block gamma = 2*a1 + a2:")
gram = gram_block(preset, gamma)
for c, w in zip(gram.index, gram.words):
    print(f"  {c}  <->  {w}")

print("\nGram matrix of the monomial words:")
for row in gram.lam:
    print("  " + "   ".join(str(v) for v in row))

block = factor_gram(gram, gamma)

print("\nunit lower triangular H with Lambda = H^t D H:")
for row in block.H:
    print("  " + "  ".join(str(v) for v in row))
print("diagonal D (equal to the PBW inner products):")
for v in block.D:
    print("  " + str(v))

print("\nH = P Q with P strictly positive in q off the diagonal")
print("and Q bar-invariant:")
for name, m in (("P", block.P), ("Q", block.Q)):
    print(f"{name}:")
    for row in m:
        print("  " + "  ".join(str(v) for v in row))
