"""
Walking the uniform orbit with three unbiased qubit states
==========================================================

Combine the +1 eigenstates of the three Pauli axes with uniform weights
while the phase configuration walks once around its orbit.  The output
Bloch vector traces a closed curve with a neat closed form: each
component is (1 - sin delta)/3 for the phase difference of the *other*
two inputs.
"""

import numpy as np

from qmix import DensityMatrix, bloch_vector, combine3_closed
from qmix.combine import QTriple
from qmix.linkage import LinkageSpec, config_deltas, orbit_trace

axes = (DensityMatrix.from_bloch(1, 0, 0),
        DensityMatrix.from_bloch(0, 1, 0),
        DensityMatrix.from_bloch(0, 0, 1))

spec, _ = LinkageSpec.from_weights((1 / 3, 1 / 3, 1 / 3))
loop = orbit_trace(spec, steps=240)[0]
print(f"orbit has {len(loop)} traced configurations")

# the loop is an (m, 3) array of bars; one call gives every row's deltas
samples = np.array([bloch_vector(combine3_closed(*axes, QTriple(*q))) for q in loop])
d12, d23, d31 = config_deltas(loop).T
formula = np.column_stack([1 - np.sin(d23), 1 - np.sin(d31), 1 - np.sin(d12)]) / 3
worst = np.abs(samples - formula).max()
print(f"closed-form agreement along the loop: {worst:.2e}")

r = np.linalg.norm(samples, axis=1)
print(f"output Bloch radius ranges over [{r.min():.4f}, {r.max():.4f}]")
print(f"purity never exceeds {(1 + r.max()**2) / 2:.4f}")

# crude ASCII look at the x component around the loop
xs = samples[::max(1, len(samples) // 24), 0]
lo, hi = xs.min(), xs.max()
print("\nx component around the loop:")
for v in xs:
    bar = int(40 * (v - lo) / (hi - lo + 1e-12))
    print("  " + " " * bar + "*")
