"""System factory shared by the experiment and execution layers.

Lives below :mod:`repro.experiments` so that :mod:`repro.exec` can
instantiate tiering systems from a :class:`~repro.exec.spec.RunSpec`
without importing the experiment harnesses (which themselves import the
execution layer).
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Callable, FrozenSet, Iterable, Optional, Tuple

from repro.core.integrate import (
    HememColloidSystem,
    MemtisColloidSystem,
    TppColloidSystem,
)
from repro.errors import ConfigurationError
from repro.tiering.base import TieringSystem
from repro.tiering.hemem import HememSystem
from repro.tiering.memtis import MemtisSystem
from repro.tiering.tpp import TppSystem

_FACTORIES = {
    "hemem": HememSystem,
    "memtis": MemtisSystem,
    "tpp": TppSystem,
    "hemem+colloid": HememColloidSystem,
    "memtis+colloid": MemtisColloidSystem,
    "tpp+colloid": TppColloidSystem,
}


@lru_cache(maxsize=None)
def _signature_keywords(fn: Callable) -> Tuple[FrozenSet[str], bool]:
    """The keywords ``fn`` names, and whether it also takes
    ``**kwargs``."""
    params = inspect.signature(fn).parameters.values()
    named = frozenset(p.name for p in params if p.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY))
    return named, any(p.kind is inspect.Parameter.VAR_KEYWORD
                      for p in params)


def check_keywords(fn: Callable, keywords: Iterable[str],
                   what: str) -> None:
    """Raise :class:`ConfigurationError` naming every keyword that
    ``fn`` does not take (anything goes if it takes ``**kwargs``)."""
    named, open_ended = _signature_keywords(fn)
    if not open_ended:
        _reject_unknown(named, keywords, what)


def _reject_unknown(accepted: FrozenSet[str], keywords: Iterable[str],
                    what: str) -> None:
    unknown = sorted(set(keywords) - accepted)
    if unknown:
        raise ConfigurationError(
            f"{what} takes no parameter {', '.join(map(repr, unknown))}; "
            f"expected some of {sorted(accepted)}"
        )


def _system_keywords(name: str) -> Optional[FrozenSet[str]]:
    """The keywords system ``name`` accepts (None: anything): its
    constructor's own, and for a Colloid integration, whose
    ``**kwargs`` go to its base system, the base system's."""
    named, open_ended = _signature_keywords(_FACTORIES[name])
    if not open_ended:
        return named
    base = base_system_of(name)
    forwarded = None if base == name else _system_keywords(base)
    return None if forwarded is None else named | forwarded


def check_system(name: str, keywords: Iterable[str] = ()) -> None:
    """The one check of a system name and its constructor keywords:
    ``name`` is registered and accepts every keyword. Specs run it at
    construction and :func:`make_system` before it builds."""
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown system {name!r}; expected one of {sorted(_FACTORIES)}"
        )
    accepted = _system_keywords(name)
    if accepted is not None:
        _reject_unknown(accepted, keywords, f"system {name!r}")


def make_system(name: str, **kwargs) -> TieringSystem:
    """Instantiate a tiering system by experiment name.

    Names: ``hemem``, ``memtis``, ``tpp`` and their ``+colloid``
    variants.
    """
    check_system(name, kwargs)
    return _FACTORIES[name](**kwargs)


def base_system_of(name: str) -> str:
    """Strip a ``+colloid`` suffix."""
    return name.split("+")[0]
