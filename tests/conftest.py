import numpy as np
import pytest

from duffing_aa import Params, State, _kernels, integrate, state_on_level


@pytest.fixture
def p0():
    return Params(mu=0.0)


@pytest.fixture
def p_damped():
    return Params(mu=0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture(
    params=[state_on_level(-0.2), State(1.0, 0.3), state_on_level(0.5),
            State(0.0, 1.0)],
    ids=["well-on-section", "well-off-section", "outer-on-section",
         "outer-off-section"],
)
def closed_orbit_start(request):
    """Starts of closed conservative orbits, in a well and outside the
    separatrix, on the section {y = 0} and off it."""
    return request.param


@pytest.fixture
def kernel_samples(monkeypatch):
    """The number of samples each _kernels.adaptive_path call returns, in
    call order (the module attribute is wrapped, as callers use it),
    starting from an empty closed-orbit memo, so that the counts do not
    depend on which test ran before."""
    counts = []
    kernel = _kernels.adaptive_path

    def counted(*args):
        # Python floats in: numpy scalars would slow the kernel
        assert all(type(a) is float for a in args[:8]), args
        out = kernel(*args)
        counts.append(len(out[0]))
        return out

    monkeypatch.setattr(_kernels, "adaptive_path", counted)
    integrate._closed_orbit.cache_clear()
    return counts
