import numpy as np
import pytest

from homotopt import fem, lagrangian, mesh


@pytest.fixture(scope="session")
def bridge():
    return mesh.bridge_domain()


@pytest.fixture(scope="session")
def coarse_mesh(bridge):
    # nx multiple of 20 keeps cell boundaries aligned with the tagged segments
    return mesh.build_structured_mesh(bridge, nx=20, ny=8)


@pytest.fixture(scope="session")
def coarse_dofmap(coarse_mesh):
    return fem.make_dofmap(coarse_mesh)


@pytest.fixture(scope="session")
def material():
    return fem.default_material()


@pytest.fixture(scope="session")
def params():
    return lagrangian.default_params()


@pytest.fixture(scope="session")
def coarse_load(coarse_dofmap, bridge):
    return fem.assemble_traction_load(coarse_dofmap, bridge)


@pytest.fixture(scope="session")
def coarse_lagrangian(coarse_dofmap, material, params, coarse_load):
    return lagrangian.Lagrangian(coarse_dofmap, material, params, coarse_load)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
