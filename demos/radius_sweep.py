"""
What the ball radius buys
=========================

Train the pooled robust model across a sweep of radii on a deliberately
noisy problem and print the trade-off: a larger ball hedges more (higher
worst-case risk at the optimum, shorter weight vector) and shrugs off
label noise up to a point.
"""

import numpy as np

from fedrosvm.baselines import train_central_dr_svm
from fedrosvm.core import NormKind, evaluate
from fedrosvm.data import (
    SyntheticSpec,
    apply_minmax,
    fit_minmax,
    generate_synthetic,
    split_train_test,
)
from fedrosvm.robust import ClientConfig, worst_case_risk_dual

rng = np.random.default_rng(7)

# ------------------------------------------------------------ noisy data
raw = generate_synthetic(SyntheticSpec(N=200, P=3, G=1, seed=7))
train_raw, test_raw = split_train_test(raw, test_fraction=0.3, seed=7)
stats = fit_minmax(train_raw)
train = apply_minmax(train_raw, stats)
test = apply_minmax(test_raw, stats)

# flip 20% of the training labels; the test set stays clean
flip = rng.random(train.n) < 0.2
y_noisy = np.where(flip, -train.y, train.y)
train = type(train)(X=train.X, y=y_noisy)
print(f"flipped {int(flip.sum())} of {train.n} training labels")

# ------------------------------------------------------------ the sweep
print()
print("  epsilon   worst-case risk    ||w||_1    test F1")
for eps in (1e-4, 1e-3, 1e-2, 3e-2, 1e-1, 3e-1):
    cfg = ClientConfig(epsilon=eps, kappa=0.5, norm=NormKind.L1)
    model = train_central_dr_svm(train, cfg)
    risk, _ = worst_case_risk_dual(model.w, train, cfg)
    norm1 = float(np.abs(model.w).sum())
    # past some radius, hedging everything beats classifying anything and
    # the optimal weights collapse to numerical dust
    f1_col = f"{evaluate(model, test).f1:.4f}" if norm1 > 1e-5 else "w ~ 0"
    print(f"  {eps:7.4f}   {risk:15.4f}   {norm1:8.2e}    {f1_col}")

print()
print("the radius acts as regularization: too small trusts the noise,")
print("too large flattens the classifier toward zero")
