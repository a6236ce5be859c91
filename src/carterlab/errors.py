"""Exceptions shared by every layer of the package.

Each type stands for one exit code of the command line: ``InputError``
for usage (2), ``CapExceeded`` for a cap (3).  Anything else a command
raises is a crash (4).
"""


class CapExceeded(RuntimeError):
    """A computation refused to run past one of its size caps."""


class InputError(ValueError):
    """Malformed or unsupported input from outside the program; the
    message names what was wrong with it."""
