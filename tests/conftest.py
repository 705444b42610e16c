"""Fixtures shared by every test module."""

import pytest

from edanet import tensorops


@pytest.fixture(autouse=True)
def restore_blas_threads():
    """Give back the BLAS thread count a test found, so a test that sets it
    (directly or through ``edanet --threads``) leaves later tests at the
    count the process started with."""
    found = tensorops.get_num_threads()
    yield
    if found is not None:
        tensorops.set_num_threads(found)
