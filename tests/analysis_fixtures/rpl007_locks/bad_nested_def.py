"""Known-bad: a lock taken inside a nested def orders its caller.

``warm`` takes ``_index_lock`` only inside a nested def, yet a call to
``warm`` still counts as taking it; ``reindex`` holds the locks the
other way round.  ``defer`` holds ``_state_lock`` while it merely
*defines* a closure that takes ``_index_lock``: the closure runs later,
so that is no acquisition under the held lock.
"""

import threading


class NestedLockService:
    def __init__(self):
        self._state_lock = threading.Lock()
        self._index_lock = threading.Lock()

    def warm(self):
        def build():
            with self._index_lock:
                return True

        return build()

    def refresh(self):
        # _state_lock held while warm() takes _index_lock.
        with self._state_lock:
            return self.warm()

    def reindex(self):
        # The reverse order, lexically nested.
        with self._index_lock:
            with self._state_lock:
                return True

    def defer(self):
        with self._state_lock:
            def later():
                with self._index_lock:
                    return True

        return later
