import os
import signal

import numpy as np
import pytest

from zipperlift import config_io
from zipperlift.families import (
    Example1Config,
    Example2Config,
    build_example1,
    build_example2,
)
from zipperlift.smoothing import build_lift


@pytest.fixture(scope="session")
def interval_03():
    """Interval family at p = 0.3: (zipper, line, lift)."""
    zipper, line = build_example1(Example1Config(p=0.3))
    return zipper, line, build_lift(zipper, line)


@pytest.fixture(scope="session")
def interval_half():
    """Interval family at p = 1/2: the parabola case."""
    zipper, line = build_example1(Example1Config(p=0.5))
    return zipper, line, build_lift(zipper, line)


@pytest.fixture(scope="session")
def rotation_half():
    """Rotation family at apex height 0.5."""
    zipper, line = build_example2(Example2Config(h_param=0.5))
    return zipper, line, build_lift(zipper, line)


def uniform_dyadic(rng, count, bits=40):
    """Uniform parameters on a fine dyadic grid (exact halving images)."""
    return rng.integers(0, 2**bits, count).astype(float) * 2.0**-bits


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


@pytest.fixture
def kill_worker(monkeypatch):
    """Force the CSV/SVG writer's worker count and make each worker SIGKILL
    itself on a block for which ``when(columns)`` holds."""
    block_text, parent = config_io._block_text, os.getpid()

    def setup(workers, when):
        def killing(columns, row_sep):
            if when(columns):
                # this process is the test run itself, not a worker
                assert os.getpid() != parent, "a block was formatted in-process"
                os.kill(os.getpid(), signal.SIGKILL)
            return block_text(columns, row_sep)

        monkeypatch.setattr(config_io, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(config_io, "_block_text", killing)

    return setup
