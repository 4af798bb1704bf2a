"""numpy, imported on first use.

Importing numpy costs several times what the rest of the package does
(about 140 ms of 170 ms under ``python -X importtime``, Python 3.11 and
numpy 2.4 on a 2-core x86 VM), and a single trajectory or a frame
comparison never needs it: the per-point chain runs on plain floats.
Modules therefore take ``np`` from here instead of ``import numpy as
np``.  The first attribute looked up on it imports numpy, and each
attribute is then cached on the object, so later lookups are ordinary
attribute reads.  Only this module sees the deferral:
``sys.modules["numpy"]`` is the real module, for every importer.

The rule that keeps scalar runs free of numpy: a path that takes floats
or arrays tests ``isinstance(x, float)`` before it touches ``np``, so a
float never reaches a numpy attribute.  The array paths (the lockstep
ensemble, the sampler and the order fit of a convergence study above the
rounding floor) import it on first use.
"""

import importlib


class _Deferred:
    def __getattr__(self, name: str):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)
        return value


np = _Deferred()
