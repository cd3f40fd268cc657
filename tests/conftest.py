import numpy as np
import pytest
from hypothesis import settings

from ionvq.core import IonSpec, build_register, m1_map, m2_map

# examples run whole syntheses, circuit ensembles and decoders, whose time per
# example varies well past hypothesis's default 200 ms deadline
settings.register_profile("ionvq", deadline=None)
settings.load_profile("ionvq")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def reg_n2():
    return build_register([IonSpec(4, m1_map())])


@pytest.fixture
def reg_n2_m2():
    return build_register([IonSpec(4, m2_map())])


@pytest.fixture
def reg_mixed():
    return build_register([IonSpec(4, m1_map()), IonSpec(2)])
