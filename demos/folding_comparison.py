"""Compare the two sides of the order-2 folding at one weight: the fixed
part of the symmetric-side transition data against the quotient side,
ending with the mod-2 congruence of the two canonical-basis matrices.

Run: python3 demos/folding_comparison.py
"""

import qfold
from qfold.folding import fold_exponent, sigma_on_exponents
from qfold.transition import mod_p_compare, pipeline, sigma_submatrix

fold = qfold.get_folding("A3->B2")
fd = fold.fd
print("base generators:", ", ".join(fd.base.labels))
print("orbits:", "  ".join("{" + " ".join(o) + "}" for o in fd.orbits),
      f"(automorphism order {fd.p})")
print("quotient generators:", ", ".join(fd.quotient.labels))

gamma = (2, 2, 1)
block = pipeline(fold, gamma)
print(f"\nsymmetric side, weight {gamma}: {len(block.index)} vectors")
for c in block.index:
    mark = "fixed" if sigma_on_exponents(fd, fold.seq, c) == c else "moved"
    print(f"  {c}  [{mark}]")

sub_index, p_fixed = sigma_submatrix(fd, fold.seq, block.index, block.P)
print("\nfixed rows/columns of P:")
for row in p_fixed:
    print("  " + "  ".join(str(v) for v in row))

ulgamma = fd.project_weight(gamma)
ul_block = pipeline(qfold.get_preset("B2"), ulgamma)
print(f"\nquotient side, weight {ulgamma}:")
for ulc in ul_block.index:
    print(f"  {ulc}  ->  {fold_exponent(fd, fold.ulseq, ulc)}")
print("quotient P:")
for row in ul_block.P:
    print("  " + "  ".join(str(v) for v in row))

print("\ncomparison:", mod_p_compare(p_fixed, ul_block.P, fd.p))
