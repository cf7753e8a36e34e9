import numpy as np
import pytest

from restent.errors import ConfigError
from restent.props import _SUITE, run_property_suite


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("fn", [fn for _, fn, _ in _SUITE], ids=[name for name, _, _ in _SUITE])
def test_a_batch_checks_the_instances_drawn_one_at_a_time(fn, n):
    # a property draws every instance's numbers before the next instance's, so
    # one batch of 6 sees the same instances as 6 batches of one
    batch = fn(np.random.default_rng(7), n, 6)
    rng = np.random.default_rng(7)
    single = np.concatenate([fn(rng, n, 1) for _ in range(6)])
    assert batch.shape == (6,)
    np.testing.assert_array_equal(batch, single)


@pytest.mark.parametrize("dims", [(), (0,), (2, -1)])
def test_suite_refuses_no_dims_and_dims_below_one(dims):
    with pytest.raises(ConfigError, match="one or more dims >= 1"):
        run_property_suite(instances=1, dims=dims)
