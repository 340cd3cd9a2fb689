"""The shared sampled-data containers refuse a step or variance that is not
a finite positive number."""

import numpy as np
import pytest

from glemarket.errors import InputError
from glemarket.series import AcfSeries, KernelSeries, PathEnsemble


@pytest.mark.parametrize("build", [
    lambda bad: PathEnsemble(h=bad, paths=np.ones((1, 4)), kind="price"),
    lambda bad: KernelSeries(h=bad, values=np.ones(4)),
    lambda bad: AcfSeries(h=bad, values=np.ones(4)),
    lambda bad: AcfSeries(h=0.1, values=np.ones(4), variance=bad),
], ids=["PathEnsemble.h", "KernelSeries.h", "AcfSeries.h", "AcfSeries.variance"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_step_and_variance_are_positive_and_finite(build, bad):
    # an infinite step used to pass, and returns_from_prices then divided
    # every log-price difference by it to an all-zero series
    with pytest.raises(InputError, match="must be positive and finite"):
        build(bad)
