"""
Building unitary mixtures of permutation operators
==================================================

A linear combination sum_g z_g L_g of the regular permutation matrices
is unitary exactly when a handful of small blocks are unitary -- one
block per irreducible representation.  This demo synthesizes the six
coefficients for S3 from freely chosen blocks and checks the result
three ways.
"""

import numpy as np

from qmix import (
    extract_blocks,
    haar_unitary,
    irreps_s3,
    random_block_unitaries,
    regular_lincomb,
    synthesize_coeffs,
    tensor_rep,
)

rng = np.random.default_rng(7)
irreps = irreps_s3()

# pick an arbitrary unitary for each block: two phases and a 2x2
blocks = random_block_unitaries(irreps, rng)
for r, B in zip(irreps, blocks):
    print(f"{r.label:>9}: {r.dim}x{r.dim} block")

# synthesis: one inverse-Fourier sum per group element
z = synthesize_coeffs(blocks, irreps)
print("\ncoefficients:")
for g, v in enumerate(z.coeffs):
    print(f"  z[{g}] = {v:+.6f}")

# check 1: the 6x6 regular combination is unitary
L = regular_lincomb(z)
residual = np.abs(L @ L.conj().T - np.eye(6)).max()
print(f"\nregular combination unitarity residual: {residual:.2e}")

# check 2: extracting the blocks back reproduces the inputs
back = extract_blocks(z, irreps)
err = max(np.abs(np.asarray(a) - np.asarray(b)).max()
          for a, b in zip(back, blocks))
print(f"block round-trip error: {err:.2e}")

# check 3: the same coefficients act unitarily when the permutations
# shuffle three qudits instead of group elements
for d in (2, 3):
    Q = [tensor_rep(irreps.group.perms[g], d) for g in irreps.group.elements]
    U = sum(v * M for v, M in zip(z.coeffs, Q))
    res = np.abs(U @ U.conj().T - np.eye(d**3)).max()
    print(f"three-qudit action (d={d}): residual {res:.2e}")

# the blocks need not come from a random draw; any unitary data works.
# here is the coefficient vector that touches only the 2x2 block,
# leaving both phase blocks at 1 (blocks go in irrep order):
W = haar_unitary(2, rng)
custom = (np.eye(1), np.eye(1), W)
zc = synthesize_coeffs(custom, irreps)
print("\ncoefficients that act only through the 2x2 block:")
print(np.round(zc.coeffs, 4))
