"""The base class of every error openobj raises for bad input."""


class OpenobjError(ValueError):
    """Malformed input or an invalid request: a file, a config value or an
    argument the library cannot work with. The CLI reports these as
    ``error: ...`` and exits 1; anything else is a bug and keeps its
    traceback."""
