import pytest

from reflpvi.groups import GroupSpec, build_group


@pytest.fixture(scope="session")
def g336():
    return build_group(GroupSpec.exceptional("G336"))


@pytest.fixture(scope="session")
def g213():
    return build_group(GroupSpec.imprimitive(2, 1))


@pytest.fixture(scope="session")
def g333():
    return build_group(GroupSpec.imprimitive(3, 3))


@pytest.fixture(scope="session")
def icosa():
    return build_group(GroupSpec.exceptional("icosahedral"))


@pytest.fixture(scope="session")
def g413():
    return build_group(GroupSpec.imprimitive(4, 1))


@pytest.fixture(scope="session")
def g648():
    return build_group(GroupSpec.exceptional("G648"))
