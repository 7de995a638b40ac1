"""Anti-plane AT1 phase-field fracture with an adaptive regularization length."""

__version__ = "0.1.0"

import importlib

from . import config, driver, fem, mesh, phasefield  # noqa: F401


def __getattr__(name):
    # The IO module loads on first use, so that importing the solver core
    # does not import it.
    if name == "output":
        return importlib.import_module(".output", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
