import numpy as np
import pytest

from ace.cropgrid import GridSpec
from ace.model import EncoderConfig, init
from ace.synthgen import PhantomSpec, generate, instance_rng


@pytest.fixture
def desk_spec():
    return GridSpec(G=16, m=16, c1=8, c2=16, H0=64)


@pytest.fixture
def paper_spec():
    return GridSpec(G=32, m=32, c1=14, c2=28, H0=448)


@pytest.fixture
def tiny_cfg():
    return EncoderConfig(K=8, T=4, H0=16, depth=1, hidden=16)


@pytest.fixture
def tiny_state(tiny_cfg):
    return init(tiny_cfg, np.random.default_rng(0))


@pytest.fixture(scope="session")
def phantoms16():
    spec = PhantomSpec(side=256)
    out = []
    for i in range(16):
        rng, _ = instance_rng(7, i)
        out.append(generate(rng, spec, instance_id=f"p{i:03d}", seed=i))
    return out
