##############################################################################
# Rest-frame coordination
#
# Two particles share the entangled standing-wave state
#   Psi = phi_1(z1,t1) phi_2(z2,t2) - phi_2(z1,t1) phi_1(z2,t2)
# built from the two lowest well modes.  Started on the equal-time plane
# t1 = t2 = 0, the off-diagonal stress-energy components vanish for this
# state, so both guidance velocities are exactly zero and stay zero: the
# particles just ride their clocks forward together.  The script integrates
# 500 equal-proper-time steps and reports how still the pair really is.
##############################################################################

import math

import numpy as np

import properflow as pf

L = math.pi
model = pf.entangled_pair(pf.box_mode(1, L, 1.0), pf.box_mode(2, L, 1.0))

start = pf.ConfigPoint(z1=1.0, t1=0.0, z2=2.0, t2=0.0)
traj = pf.integrate(model, start, epsilon=0.01, n_steps=500, scheme="midpoint")

arr = np.array(traj.rows)[:, :4]
v = np.array([[r.v1, r.v2] for r in traj.records])
desync = np.array(pf.coordination_profile(traj))

print(f"termination: {traj.termination} after {len(traj.records) - 1} steps")
print(f"max |v1|, |v2|       : {np.max(np.abs(v[:, 0])):.3e}, {np.max(np.abs(v[:, 1])):.3e}")
print(f"max |z1 - z1(0)|     : {np.max(np.abs(arr[:, 0] - start.z1)):.3e}")
print(f"max |z2 - z2(0)|     : {np.max(np.abs(arr[:, 2] - start.z2)):.3e}")
print(f"max |t1 - t2|        : {np.max(np.abs(desync)):.3e}")
print(f"final clocks         : t1 = {arr[-1, 1]:.6f}, t2 = {arr[-1, 3]:.6f}")

# the eigenvalue pair along the way stays strictly positive (timelike flow)
lam = np.array([[r.lambda1, r.lambda2] for r in traj.records])
print(f"lambda_time range    : [{lam.min():.6f}, {lam.max():.6f}]")
