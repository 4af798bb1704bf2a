##############################################################################
# Desynchronized start
#
# Same entangled state as rest_frame_coordination.py, but particle 1 begins
# with its clock one unit ahead (t1 = 1, t2 = 0).  Off the equal-time plane
# the stress-energy tensors pick up nonzero mixed components, the timelike
# eigenvectors tilt, and both particles genuinely move.  The initial point
# alone does not fix the motion: the clock offset is extra physical data,
# and different offsets give visibly different world lines.
##############################################################################

import math

import numpy as np

import properflow as pf

L = math.pi
model = pf.entangled_pair(pf.box_mode(1, L, 1.0), pf.box_mode(2, L, 1.0))

for offset in (0.0, 0.5, 1.0):
    start = pf.ConfigPoint(z1=1.0, t1=offset, z2=2.0, t2=0.0)
    traj = pf.integrate(model, start, epsilon=0.01, n_steps=500, scheme="midpoint")
    arr = np.array(traj.rows)[:, :4]
    v = np.array([[r.v1, r.v2] for r in traj.records])
    desync = np.array(pf.coordination_profile(traj))
    print(f"clock offset t1 - t2 = {offset:.1f}")
    print(f"  termination        : {traj.termination}")
    print(f"  max |v1|, |v2|     : {np.max(np.abs(v[:, 0])):.4f}, {np.max(np.abs(v[:, 1])):.4f}")
    print(f"  z1 range           : [{arr[:, 0].min():.4f}, {arr[:, 0].max():.4f}]")
    print(f"  z2 range           : [{arr[:, 2].min():.4f}, {arr[:, 2].max():.4f}]")
    print(f"  std(t1 - t2)       : {np.std(desync):.4f}")
    print(f"  final configuration: z1 = {arr[-1, 0]:.4f}, t1 = {arr[-1, 1]:.4f}, "
          f"z2 = {arr[-1, 2]:.4f}, t2 = {arr[-1, 3]:.4f}")
