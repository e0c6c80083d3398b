"""The decorator-based configuration registry of the scenario API.

:data:`CONFIGURATIONS` names the run-level factories of an experiment.
An entry maps a configuration name (``"sync"``, ``"attack_decay"``,
``"dynamic_1"``, ``"global@640.000"``) to a factory called as
``factory(ctx, benchmark, **params)`` that returns either a
:class:`~repro.sim.engine.SimulationSpec` (the common case) or a
finished :class:`~repro.metrics.summary.RunSummary` (for
configurations that search over several runs, e.g. the off-line
Dynamic algorithm).

Entries may register a *parser* so parameterised names resolve too:
``dynamic_5`` or ``global@725.000`` match a pattern entry and yield the
parsed parameters.  Registering the same name twice raises
:class:`~repro.errors.ExperimentError`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import ExperimentError

#: A parser: maps a requested name to factory kwargs, or None on no match.
NameParser = Callable[[str], dict | None]


class Registry:
    """A named mapping from strings to factories, with pattern support.

    Parameters
    ----------
    kind:
        Human-readable noun for error messages (``"configuration"``).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Callable] = {}
        self._parsers: dict[str, NameParser] = {}

    def register(
        self, name: str, *, parse: NameParser | None = None
    ) -> Callable[[Callable], Callable]:
        """Decorator registering ``factory`` under ``name``.

        ``parse`` optionally makes the entry match a family of names
        (e.g. ``dynamic_<pct>``): it receives the requested name and
        returns the factory kwargs it encodes, or None if the name is
        not of this entry's form.
        """

        def decorator(factory: Callable) -> Callable:
            if name in self._entries:
                raise ExperimentError(
                    f"duplicate {self.kind} name {name!r} in registry"
                )
            self._entries[name] = factory
            if parse is not None:
                self._parsers[name] = parse
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        """Remove an entry (test hook); unknown names are ignored."""
        self._entries.pop(name, None)
        self._parsers.pop(name, None)

    def get(self, name: str) -> Callable:
        """The factory registered under exactly ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise ExperimentError(
                f"unknown {self.kind} {name!r}; known: {', '.join(self.names())}"
            ) from None

    def resolve(self, name: str) -> tuple[Callable, dict[str, Any]]:
        """Resolve ``name`` to ``(factory, parsed_params)``.

        Exact names win; otherwise every pattern entry's parser is
        tried.  Raises :class:`~repro.errors.ExperimentError` when
        nothing matches.
        """
        if name in self._entries:
            return self._entries[name], {}
        for entry_name, parser in self._parsers.items():
            params = parser(name)
            if params is not None:
                return self._entries[entry_name], params
        raise ExperimentError(
            f"unknown {self.kind} {name!r}; known: {', '.join(self.names())}"
        )

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except ExperimentError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


#: Run-level configuration factories (the paper's vocabulary).
CONFIGURATIONS = Registry("configuration")


def register_configuration(
    name: str, *, parse: NameParser | None = None
) -> Callable[[Callable], Callable]:
    """Register a run-level configuration factory (decorator)."""
    return CONFIGURATIONS.register(name, parse=parse)


def configuration_names() -> list[str]:
    """Names of every registered configuration (pattern templates included)."""
    return CONFIGURATIONS.names()
