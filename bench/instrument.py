"""Attribute patching used by the benchmark's counters and by the tracer.

The benchmark never edits the program: it measures by replacing a function
or method with a wrapper for the length of a run and putting the original
back afterwards.  A wrapper is installed on the binding that callers look
up, so a function imported by name into another module is patched there.
"""

from __future__ import annotations


class Patches:
    """Replaces attributes with wrappers and restores them, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make_wrapper) -> bool:
        """Replace ``owner.name`` with ``make_wrapper(original)``.

        Returns False, and changes nothing, when the attribute does not
        exist (a later version of the program may have removed it).
        """
        original = owner.__dict__.get(name) if isinstance(owner, type) else \
            getattr(owner, name, None)
        if original is None:
            return False
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))
        return True

    def close(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
