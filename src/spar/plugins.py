"""One registry of named user plugins, keyed by kind: "screening" or "projection"."""

from .errors import ConfigError

_REGISTRY: dict = {"screening": {}, "projection": {}}
_FIELD = {"screening": "method", "projection": "kind"}  # the spec field that holds a plugin


def register(kind: str, name: str, fn) -> None:
    if not callable(fn):
        raise ConfigError(f"{kind} plugin must be callable")
    _REGISTRY[kind][str(name)] = fn


def resolve(kind: str, plugin, builtins):
    """plugin when it is callable or one of builtins, else the plugin registered under that name;
    ConfigError naming the builtins when it is none of these."""
    if callable(plugin) or (isinstance(plugin, str) and plugin in builtins):
        return plugin
    try:
        return _REGISTRY[kind][plugin]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown {kind} {_FIELD[kind]} {plugin!r}; builtins are "
                          f"{', '.join(builtins)}, and no {kind} plugin is registered under that "
                          "name") from None
