"""Fixtures shared by the rotation-set and propagation-engine tests."""

import contextlib
from unittest import mock

import pytest

from rotforce.rotset import RotSet


@contextlib.contextmanager
def _rotset_shortcuts_off():
    # Every operation sees fresh copies of its operands, so none is the shared
    # full set or carries a residue cache, and from_points is build.
    def fresh(x):
        return RotSet(points=x.points, intervals=x.intervals) if isinstance(x, RotSet) else x

    def on_copies(op):
        return lambda self, *args: op(fresh(self), *map(fresh, args))

    with contextlib.ExitStack() as stack:
        for name in ("intersect", "minkowski", "scale_image", "scale_preimage"):
            stack.enter_context(mock.patch.object(RotSet, name, on_copies(getattr(RotSet, name))))
        stack.enter_context(mock.patch.object(RotSet, "from_points", classmethod(lambda cls, v: cls.build(points=v))))
        yield


@pytest.fixture(scope="session")
def rotset_shortcuts_off():
    """A context manager that runs RotSet algebra without the residue cache,
    the full-set laws and the residue path of from_points."""
    return _rotset_shortcuts_off
