"""Mono-energetic quantum gas: occupation statistics, order-3/2 series,
self-consistent fugacity solvers, regime classification and sweeps."""

__version__ = "0.1.0"


def __getattr__(name: str):
    """Bind public names on first use (PEP 562), importing only the modules they need."""
    if name[:2] != "__" or name == "__all__":
        # Dependency order: each imports only those before it.  __import__ shows in -X importtime.
        for module_name in "errors", "polylog", "gas", "regime", "sweep":
            module = __import__(f"{__name__}.{module_name}", fromlist=("*",))
            for public in module.__all__:
                globals().setdefault(public, getattr(module, public))
            if name in globals():
                return globals()[name]
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global __all__  # importing each module above bound it here
    __all__ = errors.__all__ + gas.__all__ + polylog.__all__ + regime.__all__ + sweep.__all__
    __all__ += ["__version__"]
    return __all__


def __dir__() -> list[str]:
    return sorted({*__getattr__("__all__"), *globals()})  # __all__ first: it binds every name
