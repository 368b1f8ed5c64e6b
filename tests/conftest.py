import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tape_nodes():
    """Counts the autodiff nodes reachable from a tensor, itself included."""
    def count(root):
        seen, stack = {id(root)}, [root]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        return len(seen)
    return count
