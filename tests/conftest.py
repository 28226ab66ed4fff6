import pytest

from genprior import analysis


@pytest.fixture
def blas_threads():
    """A function that sets every loaded OpenBLAS to a thread count and
    returns their (get, set) pairs, empty where no OpenBLAS is loaded; the
    counts found are restored after the test."""
    blas = analysis._openblas()
    before = [get() for get, _ in blas]

    def set_all(count):
        for _, set_threads in blas:
            set_threads(count)
        return blas

    yield set_all
    for (_, set_threads), count in zip(blas, before):
        set_threads(count)


@pytest.fixture
def two_blas_threads(blas_threads):
    """Every loaded OpenBLAS set to two threads for the test, then restored;
    yields their (get, set) pairs, empty where no OpenBLAS is loaded."""
    return blas_threads(2)
