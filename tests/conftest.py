import numpy as np
import pytest

import domainuq as dq
from domainuq.fields import HoldAllGrid, ScalarFieldKL
from domainuq.lowrank import KLBasis

#: One line per acceptance criterion, echoed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mesh2():
    return dq.build_disc_mesh(2)


@pytest.fixture(scope="session")
def mesh3():
    return dq.build_disc_mesh(3)


@pytest.fixture(scope="session")
def mesh4():
    return dq.build_disc_mesh(4)


@pytest.fixture(scope="session")
def mesh5():
    return dq.build_disc_mesh(5)


@pytest.fixture(scope="session")
def vf3(mesh3):
    return dq.build_vector_field_kl(mesh3, 1e-2)


@pytest.fixture(scope="session")
def vf4(mesh4):
    return dq.build_vector_field_kl(mesh4, 1e-2)


@pytest.fixture(scope="session")
def vf5(mesh5):
    return dq.build_vector_field_kl(mesh5, 1e-2)


@pytest.fixture(scope="session")
def sf64():
    return dq.build_coefficient_kl(64, 1e-2)


@pytest.fixture(scope="session")
def unit_coefficient():
    """Coefficient field with a_s identically 1 and no random modes."""
    grid = HoldAllGrid(16)
    basis = KLBasis(np.zeros(0), np.zeros((0, grid.n_vertices)))
    return ScalarFieldKL(grid=grid, mean=np.ones(grid.n_vertices), basis=basis)


@pytest.fixture(scope="session")
def unit_triangle():
    """A single unit right triangle as an ad-hoc mesh."""
    from domainuq.mesh import Mesh
    return Mesh(
        level=0,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary=np.array([], dtype=np.int64),
        patch_id=np.array([0]),
    )
