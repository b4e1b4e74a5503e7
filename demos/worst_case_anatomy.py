"""
Anatomy of a worst-case distribution
====================================

Solve the inner adversary problem for one small client and look at what
the adversary actually does with its transport budget. The flip price
kappa decides the attack: cheap labels get flipped, expensive labels make
the adversary push features across the margin instead.
"""

import numpy as np

from fedrosvm.core import DatasetView, NormKind, hinge_losses
from fedrosvm.robust import (
    ClientConfig,
    build_sm_lp,
    extract_worst_case,
    worst_case_risk_dual,
)
from fedrosvm.solver import solve

rng = np.random.default_rng(3)

# ------------------------------------------------------------ a tiny client
# Six points in the unit square, labels split by the diagonal.
X = rng.random((6, 2))
y = np.where(X[:, 0] - X[:, 1] > 0, 1, -1)
data = DatasetView(X=X, y=y)
w = np.array([1.5, -1.5])

print("empirical hinge risk:", float(np.mean(hinge_losses(w, X, y))))

# ------------------------------------------------------------ two adversaries
for kappa in (0.5, 2.0):
    cfg = ClientConfig(epsilon=5e-2, kappa=kappa, norm=NormKind.L1)
    sol = solve(build_sm_lp(w, data, cfg))
    dist = extract_worst_case(sol, data, cfg)
    dual_value, lam = worst_case_risk_dual(w, data, cfg)

    print()
    print(f"flip price kappa = {kappa}")
    print(f"  worst-case risk: {dist.risk(w):.6f} (atoms)  {dual_value:.6f} (dual)")
    print(f"  optimal dual multiplier: {lam:.4f}")

    # Each empirical point splits into a kept-label atom (row i, mass beta+)
    # and a flipped-label atom (row n + i, mass beta-). Movement spends the
    # feature norm, a flip spends kappa. A dropped atom has mass 0 and sits
    # at its own sample, so it shows no movement.
    n = dist.n
    kept, flipped = dist.mass[:n], dist.mass[n:]
    moved = np.abs(dist.z[:n] - X).sum(axis=1)
    print("   i  y_i   beta+  beta-   moved by   flip?")
    for i in range(n):
        print(f"  {i:2d}  {int(y[i]):+d}   {kept[i]:5.2f}  {flipped[i]:5.2f}   "
              f"{moved[i]:8.4f}   {'yes' if flipped[i] > 0.0 else 'no'}")

    spent = dist.transport_spent(data, cfg)
    print(f"  budget spent: {spent:.6f} of {cfg.epsilon}")
    print(f"  invariant violations: {dist.validate(data, cfg) or 'none'}")
