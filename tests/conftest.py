import numpy as np
import pytest
import scipy.sparse.linalg


@pytest.fixture
def arpack_stub(monkeypatch):
    """A function of `failures` that makes scipy.sparse.linalg.eigsh, the
    name the norm estimators import at each call, raise ArpackNoConvergence
    on its first `failures` calls; it returns a record of each call's start
    vector and each returned value."""

    def install(failures):
        calls = {"v0": [], "vals": []}
        real = scipy.sparse.linalg.eigsh

        def eigsh(*args, **kwargs):
            calls["v0"].append(kwargs["v0"].copy())
            if len(calls["v0"]) <= failures:
                raise scipy.sparse.linalg.ArpackNoConvergence(
                    "stub: no convergence", np.empty(0), np.empty((0, 0)))
            vals = real(*args, **kwargs)
            calls["vals"].append(vals)
            return vals

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        return calls

    return install
