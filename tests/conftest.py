import os
from math import comb

import numpy as np
import pytest
import scipy.sparse.linalg

from cliquewitness.decomposition import _PAIR_CHUNK, _share_count
from cliquewitness.spectral import blas_threads


def _machine_line():
    # which J(4,1) matvec path runs: norm digests differ between one BLAS
    # thread and two, and more than one share runs products on a pool
    chunks = -(-comb(141, 2) // _PAIR_CHUNK)
    return (f"cliquewitness: nproc {len(os.sched_getaffinity(0))}, "
            f"BLAS threads {blas_threads()}, "
            f"J(4,1) shares {_share_count(chunks)} at n=141 ({chunks} pair chunks)")


def pytest_report_header(config):
    return _machine_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q drops the header, so the line closes the log
        terminalreporter.write_line(_machine_line())


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
