import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from cadet3d.config import RunConfig
from cadet3d.geometry import Box3D, Transform

# numeric property tests can be slow per-example on loaded machines; the
# budget that matters is the whole suite, not one draw
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def default_config() -> RunConfig:
    """The run configuration's defaults, which alone define the channel
    policies: tests take ``weak_policy()`` from it and pass it to
    ``augment.strong_channels``, so they run the policies the CLI runs."""
    return RunConfig(seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def boxes(center_span: float = 5.0, max_size: float = 4.0):
    """Hypothesis strategy for well-conditioned oriented boxes."""
    coord = st.floats(-center_span, center_span, allow_nan=False)
    size = st.floats(0.2, max_size, allow_nan=False)
    angle = st.floats(-math.pi + 1e-9, math.pi, allow_nan=False)
    return st.builds(Box3D, cx=coord, cy=coord, cz=coord, w=size, h=size, l=size, r=angle)


def transforms(max_scale: float = 2.0):
    return st.builds(
        Transform,
        flip_y=st.booleans(),
        theta=st.floats(-math.pi, math.pi, allow_nan=False),
        s=st.floats(0.5, max_scale, allow_nan=False),
    )


def random_box(gen: np.random.Generator, spread: float = 4.0) -> Box3D:
    return Box3D(
        cx=gen.uniform(-spread, spread),
        cy=gen.uniform(-spread, spread),
        cz=gen.uniform(-1.0, 1.0),
        w=gen.uniform(0.4, 2.5),
        h=gen.uniform(0.4, 2.5),
        l=gen.uniform(0.4, 3.5),
        r=gen.uniform(-math.pi, math.pi),
    )


# The array paths sum in another order than the scalar oracles of
# ``reference`` and call ``np.*`` where those call ``math.*``, so their floats
# agree to a few ulps (under 1e-14 relative in practice), not bit for bit.
# Everything discrete or whole-valued is still compared exactly.
RTOL = ATOL = 1e-12


def assert_close(got, want) -> None:
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def assert_boxes_close(got, want, period: float = 2 * math.pi) -> None:
    """(..., 7) box rows equal at the tolerance, yaws as angles modulo
    ``period``: pi where a box comes from a principal axis, whose sign is
    arbitrary, so the fit may turn it by a half turn."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert_close(got[..., :6], want[..., :6])
    turn = np.remainder(got[..., 6] - want[..., 6] + 0.5 * period, period) - 0.5 * period
    np.testing.assert_allclose(turn, 0.0, atol=ATOL)
