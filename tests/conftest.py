"""Shared fixtures."""

import numpy as np
import pytest

from fedrosvm import solver


def drop_largest_multiplier(active, z):
    """`active` with, in each row, its active entry of largest z left out:
    a wrong active set wherever that multiplier is positive."""
    active = active.copy()
    largest = np.argmax(np.where(active, z, -np.inf), axis=1)
    active[np.arange(len(active)), largest] = False
    return active


@pytest.fixture
def wrong_active_sets(monkeypatch):
    """Make every active-set polish start from a wrong guess, one active
    row short (`drop_largest_multiplier`), so that it is rejected and every
    warm step goes to the interior-point method, as the tests of that path
    need. Returns the list of polishes accepted all the same, for the test
    to check it is empty."""
    real_guess, real_solve = solver._guess_active, solver.ActiveSetPolish.solve
    accepted = []

    def polish(self, warms):
        sols = real_solve(self, warms)
        accepted.extend(sol for sol in sols if sol is not None)
        return sols

    monkeypatch.setattr(solver, "_guess_active",
                        lambda slack, z: drop_largest_multiplier(real_guess(slack, z), z))
    monkeypatch.setattr(solver.ActiveSetPolish, "solve", polish)
    return accepted
