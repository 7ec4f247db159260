"""
The parameter space is a four-bar linkage
=========================================

Fix the three mixing weights p_k.  The admissible coefficient triples
q_k = sqrt(p_k) e^{i theta_k} with sum q_k = 1 are exactly the closed
configurations of a planar linkage whose bar lengths are sqrt(p_k),
pinned across a unit ground bar.  Everything about the parameter space
follows from elementary geometry: how many connected pieces it has,
where it folds flat, and how to walk around it.
"""

import numpy as np

from qmix.linkage import (
    LinkageSpec,
    b0,
    config_deltas,
    grashof,
    orbit_count,
    orbit_count_bruteforce,
    orbit_trace,
    write_orbit_csv,
)

# --- uniform weights ------------------------------------------------------
spec, assignment = LinkageSpec.from_weights((1 / 3, 1 / 3, 1 / 3))
print("bar lengths:", np.round(spec.lengths(), 6))
print("components:", orbit_count(spec))

orbits = orbit_trace(spec, steps=240)
loop = orbits[0]
print(f"traced one loop with {len(loop)} configurations")

# twelve configurations around the loop have some cos(delta_ij) = 0;
# these are the points where a nested two-step expression exists
nested = [c for c in loop
          if min(abs(np.cos(d)) for d in config_deltas(c)) < 1e-6]
print(f"nested configurations on the loop: {len(nested)}")

# --- when does the space split in two? ------------------------------------
# sort the lengths a <= b <= c.  With the ground bar longest, the classic
# rotatability condition decides the count; the threshold for the middle
# length is b0(c).
c = 0.8
print(f"\nfor longest bar {c}: threshold middle length b0 = {b0(c):.6f}")
for b in (0.45, 0.55):
    a2 = 1 - c * c - b * b
    two_piece_spec, _ = LinkageSpec.from_weights((a2, b * b, c * c))
    n = orbit_count(two_piece_spec)
    g = grashof(*sorted((np.sqrt(a2), b, c)), 1.0)
    n_brute = orbit_count_bruteforce(two_piece_spec, resolution=400)
    print(f"  b = {b}: {n} component(s)  [rotatable: {g}, brute force: {n_brute}]")

# --- exporting a trace ----------------------------------------------------
out = "uniform_orbit.csv"
write_orbit_csv(orbit_trace(spec, steps=1200), out)
with open(out) as fh:
    head = fh.read().splitlines()
print(f"\nwrote {len(head) - 1} rows to {out}")
print(head[0])
print(head[1][:72], "...")
