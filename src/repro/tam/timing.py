"""Core-to-bus test time models ``t_ij``.

Three models, matching the paper and its immediate successors:

- :class:`FixedWidthTiming` — the paper's basic model. Core ``i`` was
  delivered with a test interface of width ``w_i``; it may only be assigned
  to a bus at least that wide, and its test time is the constant ``t_i``
  (extra bus wires buy nothing).
- :class:`SerializationTiming` — the paper's width-adaptation model. A core
  may sit on a narrower bus through serializing converters; its time
  stretches to ``t_i * ceil(w_i / w_j)``.
- :class:`FlexibleWidthTiming` — full wrapper redesign per bus width
  (``t_ij = T_i(w_j)`` from :mod:`repro.wrapper`); this is the model the
  post-2000 wrapper/TAM co-optimization line adopted and is included as the
  library's extension beyond the paper.

All models expose ``time_on_bus(core, bus_width)`` returning cycles, or
:data:`INFEASIBLE_TIME` when the core cannot use the bus, and
``matrix(soc, arch)`` producing the dense ``t[i][j]`` array the ILP consumes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.soc.core import Core
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.util.errors import ValidationError
from repro.wrapper import application_time as wrapper_test_time

#: Sentinel for "core cannot be assigned to this bus".
INFEASIBLE_TIME = math.inf

#: Shared structural-signature -> cycles cache. Every timing model hits the
#: same wrapper curve repeatedly while the designer sweeps architectures,
#: and a dict lookup beats even the memoized wrapper record. The key captures all
#: core fields the wrapper model reads, so same-named cores from different
#: generators can never collide.
_TIME_CACHE: dict[tuple, int] = {}


def _cached_wrapper_time(core: Core, width: int) -> int:
    key = (
        core.num_inputs,
        core.num_outputs,
        core.num_flipflops,
        core.num_patterns,
        core.scan_chains,
        width,
    )
    if key not in _TIME_CACHE:
        _TIME_CACHE[key] = wrapper_test_time(core, width)
    return _TIME_CACHE[key]


class TimingModel(ABC):
    """Strategy interface mapping (core, bus width) to test cycles."""

    #: short name used in experiment tables
    name: str = "abstract"

    @abstractmethod
    def base_time(self, core: Core) -> int:
        """Test time at the core's native interface width ``w_i``."""

    @abstractmethod
    def time_on_bus(self, core: Core, bus_width: int) -> float:
        """Cycles for ``core`` on a bus of ``bus_width`` wires (inf = forbidden)."""

    def matrix(self, soc: Soc, arch: TamArchitecture) -> np.ndarray:
        """Dense ``(num_cores, num_buses)`` array of ``t_ij`` values."""
        out = np.empty((len(soc), arch.num_buses))
        for i, core in enumerate(soc):
            for j, width in enumerate(arch.widths):
                out[i, j] = self.time_on_bus(core, width)
        return out

    def feasible(self, soc: Soc, arch: TamArchitecture) -> bool:
        """True if every core has at least one usable bus."""
        t = self.matrix(soc, arch)
        return bool(np.all(np.isfinite(t).any(axis=1)))

    def max_useful_bus_width(self, soc: Soc) -> int:
        """Widest bus worth building: no core gets faster beyond this.

        For the paper's fixed and serialization models a bus wider than the
        widest core interface is pure waste; the flexible model overrides
        this with the wrapper Pareto knee.
        """
        return max(core.test_width for core in soc.cores)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FixedWidthTiming(TimingModel):
    """Paper model I: rigid interfaces, no serialization."""

    name = "fixed"

    def base_time(self, core: Core) -> int:
        return _cached_wrapper_time(core, core.test_width)

    def time_on_bus(self, core: Core, bus_width: int) -> float:
        if bus_width <= 0:
            raise ValidationError(f"bus width must be positive, got {bus_width}")
        if bus_width < core.test_width:
            return INFEASIBLE_TIME
        return float(self.base_time(core))


class SerializationTiming(TimingModel):
    """Paper model II: narrower buses allowed via serialization.

    A core of interface width ``w_i`` on a bus of width ``w_j < w_i`` is fed
    through width converters; each pattern's data is time-multiplexed over
    ``ceil(w_i / w_j)`` bus cycles, stretching the test proportionally.
    Buses wider than the interface still give no speedup.
    """

    name = "serial"

    def base_time(self, core: Core) -> int:
        return _cached_wrapper_time(core, core.test_width)

    def time_on_bus(self, core: Core, bus_width: int) -> float:
        if bus_width <= 0:
            raise ValidationError(f"bus width must be positive, got {bus_width}")
        stretch = math.ceil(core.test_width / bus_width) if bus_width < core.test_width else 1
        return float(self.base_time(core) * stretch)


class FlexibleWidthTiming(TimingModel):
    """Extension model: the wrapper is redesigned for the bus width.

    ``t_ij = T_i(w_j)`` from the wrapper substrate — times now genuinely
    improve on wider buses until the core's Pareto knee.
    """

    name = "flexible"

    def base_time(self, core: Core) -> int:
        return _cached_wrapper_time(core, core.test_width)

    def time_on_bus(self, core: Core, bus_width: int) -> float:
        if bus_width <= 0:
            raise ValidationError(f"bus width must be positive, got {bus_width}")
        return float(_cached_wrapper_time(core, bus_width))

    def max_useful_bus_width(self, soc: Soc, search_limit: int = 64) -> int:
        """Largest wrapper Pareto knee across the SOC's cores."""
        from repro.wrapper import pareto_widths

        return max(pareto_widths(core, search_limit)[-1] for core in soc.cores)


_MODELS = {
    "fixed": FixedWidthTiming,
    "serial": SerializationTiming,
    "flexible": FlexibleWidthTiming,
}


def make_timing_model(name: str) -> TimingModel:
    """Instantiate a timing model by its short name (fixed/serial/flexible)."""
    try:
        return _MODELS[name]()
    except KeyError:
        raise ValidationError(
            f"unknown timing model {name!r}; expected one of {sorted(_MODELS)}"
        ) from None
