"""The refusal of a run before any work, in a module that imports nothing.

``cli`` catches it for every command, and a ``symbols`` command must not
load numpy, so it lives apart from the numerical lab that raises it.
"""


class RunRefusedError(ValueError):
    """A run refused before any work: a t, window or parameter breaks a rule checked up front."""
