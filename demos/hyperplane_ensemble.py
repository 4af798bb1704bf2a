##############################################################################
# Hyperplane ensemble
#
# Draw initial configurations on the t1 = t2 = 0 plane, weighted by the
# product of the two timelike eigenvalues (the natural density for this
# flow), and integrate all members in lockstep with one call.  Distinct
# starts never cross in configuration space-time: the guidance field is
# single valued, so the map from start to world line is one to one.  The
# script verifies no two members ever visit the same configuration record
# and summarizes where the ensemble ends up.
##############################################################################

import math
from collections import Counter

import numpy as np

import properflow as pf

L = math.pi
model = pf.entangled_pair(pf.box_mode(1, L, 1.0), pf.box_mode(2, L, 1.0))

count = 100
points = pf.sample_hyperplane(model, count, weighting="eigenvalue", seed=5)
z1_0 = np.array([q.z1 for q in points])
z2_0 = np.array([q.z2 for q in points])
print(f"{count} starts on the equal-time plane (eigenvalue weighting, seed 5)")
print(f"  z1 mean/std: {z1_0.mean():.4f} / {z1_0.std():.4f}")
print(f"  z2 mean/std: {z2_0.mean():.4f} / {z2_0.std():.4f}")

terminations = Counter()
seen = {}
shared = 0
finals = []
members = pf.integrate(model, points, epsilon=0.01, n_steps=200, scheme="midpoint")
for member, traj in enumerate(members):
    terminations[traj.termination] += 1
    for rec in traj.records:
        key = (rec.q.z1, rec.q.t1, rec.q.z2, rec.q.t2)
        if key in seen and seen[key] != member:
            shared += 1
        seen[key] = member
    last = traj.records[-1].q
    finals.append([last.z1, last.z2])

finals = np.array(finals)
print(f"terminations: {dict(terminations)}")
print(f"records shared between members: {shared}")
print(f"final z1 mean/std: {finals[:, 0].mean():.4f} / {finals[:, 0].std():.4f}")
print(f"final z2 mean/std: {finals[:, 1].mean():.4f} / {finals[:, 1].std():.4f}")

# equal-time starts are static for this state, so the final spatial
# distribution reproduces the initial one exactly
print(f"max |z_final - z_initial|: "
      f"{np.max(np.abs(finals - np.column_stack([z1_0, z2_0]))):.3e}")
