import gc

import pytest


@pytest.fixture
def cyclic_garbage():
    """``measure(call, *args)`` runs ``call(*args)`` with the cyclic collector
    off and returns how many objects it left that only the collector can free
    (0 when refcounting freed everything the call dropped)."""
    def measure(call, *args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            result = call(*args)  # noqa: F841 -- live while the garbage is counted
            return gc.collect()
        finally:
            if enabled:
                gc.enable()
    return measure
