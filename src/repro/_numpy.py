"""numpy, imported on first use.

Phantom (size-only) ranks — every cluster cell — never touch a byte,
so ``import repro`` must not pay numpy's import (~12 MB of peak RSS
and ~0.1 s of import time).  Modules take ``np`` from here instead of
``import numpy as np``::

    from .._numpy import np

``np`` is a module object.  Its first attribute miss imports numpy and
copies numpy's namespace into its own ``__dict__``, so every later
``np.x`` is a plain module-dict hit, as fast as on numpy itself.  Names
numpy serves through its own module ``__getattr__`` (lazy submodules,
``__version__``) are fetched from numpy and cached on first use too.
``np.zeros is numpy.zeros`` holds once numpy is loaded.

Two simpler routes were rejected:

* ``importlib.util.LazyLoader`` installs a lazy module under
  ``sys.modules["numpy"]``; on Python 3.11 any later ``import numpy``
  (a test, a user script) reads its ``__spec__`` and loads numpy right
  there, so the saving vanished as soon as anything else imported it.
* installing any stand-in under ``sys.modules["numpy"]`` changes what
  every other importer in the process gets for ``import numpy``; this
  object is reachable only by name from ``repro``'s own modules.
"""

from __future__ import annotations

import types

__all__ = ["np"]


class _LazyNumpy(types.ModuleType):
    """A module whose first attribute miss loads numpy (see above)."""

    def __getattr__(self, name: str):
        import numpy
        if "ndarray" not in self.__dict__:
            # first touch: take numpy's namespace wholesale, but keep
            # this module's own identity (name, spec, docstring, ...)
            self.__dict__.update(
                (k, v) for k, v in vars(numpy).items()
                if not (k.startswith("__") and k.endswith("__"))
            )
        value = getattr(numpy, name)  # numpy's own __getattr__ may serve it
        self.__dict__[name] = value
        return value


np = _LazyNumpy("repro._numpy.np", "numpy, imported on first attribute access")
