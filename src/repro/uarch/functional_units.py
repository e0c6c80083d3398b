"""Per-domain execution resources (Table 4).

Functional units are fully pipelined (one issue per unit per cycle, as
in the 21264); long latencies affect completion time, not issue
bandwidth.  Each domain's pool therefore reduces to its issue width per
unit category: the core's run loops read the widths
(``MCDCore._operating_point_tables``) and count a domain's free slots
per cycle themselves.
"""

from __future__ import annotations

from repro.config.processor import ProcessorConfig
from repro.errors import ConfigError


class FunctionalUnitPool:
    """Issue widths for one domain: simple (ALU) and complex (mult/div) units.

    Parameters
    ----------
    simple_units:
        Count of simple units (int ALUs / FP adders / cache ports).
    complex_units:
        Count of complex units (mult/div[/sqrt]); 0 means the domain
        cannot execute complex operations.
    """

    __slots__ = ("simple_units", "complex_units")

    def __init__(self, simple_units: int, complex_units: int) -> None:
        if simple_units < 1:
            raise ConfigError("simple_units must be positive")
        if complex_units < 0:
            raise ConfigError("complex_units must be non-negative")
        self.simple_units = simple_units
        self.complex_units = complex_units


def build_pools(config: ProcessorConfig) -> dict[str, FunctionalUnitPool]:
    """Construct the three execution pools of Table 4.

    Returns a dict keyed ``"integer"``, ``"floating_point"``,
    ``"load_store"`` (load/store ports have no complex category).
    """
    return {
        "integer": FunctionalUnitPool(config.int_alus, config.int_mult_div),
        "floating_point": FunctionalUnitPool(config.fp_alus, config.fp_mult_div_sqrt),
        "load_store": FunctionalUnitPool(config.load_store_ports, 0),
    }
