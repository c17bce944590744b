import numpy as np
import pytest

from cliquewitness import spectral


@pytest.fixture
def arpack_stub(monkeypatch):
    """A function of `failures` that makes spectral.eigsh raise
    ArpackNoConvergence on its first `failures` calls; it returns a record
    of each call's start vector and each returned value."""

    def install(failures):
        calls = {"v0": [], "vals": []}
        real = spectral.eigsh

        def eigsh(*args, **kwargs):
            calls["v0"].append(kwargs["v0"].copy())
            if len(calls["v0"]) <= failures:
                raise spectral.ArpackNoConvergence("stub: no convergence",
                                                   np.empty(0), np.empty((0, 0)))
            vals = real(*args, **kwargs)
            calls["vals"].append(vals)
            return vals

        monkeypatch.setattr(spectral, "eigsh", eigsh)
        return calls

    return install
