"""One registry of named user plugins, keyed by kind: "screening" or "projection"."""

from .errors import ConfigError

_REGISTRY: dict = {"screening": {}, "projection": {}}


def register(kind: str, name: str, fn) -> None:
    if not callable(fn):
        raise ConfigError(f"{kind} plugin must be callable")
    _REGISTRY[kind][str(name)] = fn


def resolve(kind: str, plugin):
    """The plugin itself when it is callable, else the one registered under that name."""
    if callable(plugin):
        return plugin
    try:
        return _REGISTRY[kind][plugin]
    except (KeyError, TypeError):
        raise ConfigError(f"no {kind} plugin registered as {plugin!r}") from None
