"""Exceptions shared by every layer of the package."""


class CapExceeded(RuntimeError):
    """A computation refused to run past one of its size caps."""
