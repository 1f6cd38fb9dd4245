"""One registry of named user plugins, keyed by kind: "screening" or "projection"."""

from dataclasses import replace

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


def named_plugin(spec, field: str, kind: str, builtins):
    """spec with field "plugin" and plugin=<the name field held>; ConfigError unless registered."""
    name = getattr(spec, field)
    if spec.plugin is not None:
        raise ConfigError(f"plugin is set, so {field} must be 'plugin', not {name!r}")
    if not (isinstance(name, str) and name in _REGISTRY[kind]):
        raise ConfigError(f"unknown {kind} {field} {name!r}; builtins are {', '.join(builtins)}, "
                          f"and no {kind} plugin is registered under that name")
    return replace(spec, **{field: "plugin", "plugin": name})
