"""Pickle support for frozen ``__slots__`` classes.

Several value types in this repository (:class:`~repro.geometry.box.Box`,
:class:`~repro.geometry.boxes.BoxArray`, pages, grids) are immutable:
they define ``__slots__`` and a ``__setattr__`` that raises.  Python's
default slot-class pickle protocol restores state via ``setattr``,
which that guard rejects, so these classes mix in explicit state
methods that go through ``object.__setattr__`` instead.  Instances of
these types cross process boundaries whenever the sharded service ships
commands to its shard processes and reports back.
"""

from __future__ import annotations


class SlotPickleMixin:
    """Adds ``__getstate__``/``__setstate__`` for frozen slot classes."""

    __slots__ = ()

    def __getstate__(self) -> dict[str, object]:
        state: dict[str, object] = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                state[name] = getattr(self, name)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
