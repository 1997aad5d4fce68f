"""Shared fixtures."""

import numpy as np
import pytest

from drulearn import oracle, simplex


@pytest.fixture
def transport_solves(monkeypatch):
    """The cost shape of every transport problem `oracle` solves during the
    test, in call order; the kept couplings are dropped first, so the count
    does not depend on which tests ran before."""
    oracle._solve_coupling.cache_clear()
    calls = []
    solve = oracle.solve_transportation

    def counted(cost, supply, demand):
        calls.append(np.shape(cost))
        return solve(cost, supply, demand)

    monkeypatch.setattr(oracle, "solve_transportation", counted)
    return calls


@pytest.fixture
def simplex_iterations(monkeypatch):
    """The simplex iterations of every `HighsModel.solve` during the test,
    in call order."""
    calls = []
    solve = simplex.HighsModel.solve

    def counted(model):
        result = solve(model)
        calls.append(result.iterations)
        return result

    monkeypatch.setattr(simplex.HighsModel, "solve", counted)
    return calls
