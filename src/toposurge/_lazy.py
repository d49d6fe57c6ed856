"""numpy, imported on first use.

Importing numpy is most of the start-up time of one CLI process, yet only
the commands that build a trajectory use it.  The modules that use numpy
bind ``np = lazy_numpy(globals())`` instead of ``import numpy as np``.  The
first attribute read on that stand-in imports numpy and rebinds ``np`` to
numpy itself in every module that holds the stand-in, so later calls pay
nothing extra.  String annotations such as ``np.ndarray`` never read it.
"""

from __future__ import annotations

_namespaces: list[dict] = []


class _NumpyOnFirstUse:
    def __getattr__(self, name: str):
        import numpy

        for namespace in _namespaces:
            if namespace.get("np") is self:
                namespace["np"] = numpy
        return getattr(numpy, name)


_STAND_IN = _NumpyOnFirstUse()


def lazy_numpy(namespace: dict) -> _NumpyOnFirstUse:
    """The stand-in for a module whose globals are namespace."""
    _namespaces.append(namespace)
    return _STAND_IN
