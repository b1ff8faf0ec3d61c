"""Wrapper chain construction and test application time.

Model (standard in the modular-test literature, e.g. Aerts & Marinissen,
ITC'98): a core tested at TAM width ``w`` gets ``w`` *wrapper chains*. Each
wrapper chain concatenates some of the core's internal scan chains plus some
functional input/output cells. Per test pattern the TAM shifts in the longest
input-side chain (``si`` cycles) while shifting out the previous response
(``so`` cycles), so the test application time for ``p`` patterns is::

    T(w) = (1 + max(si, so)) * p + min(si, so)

Internal scan chains are *fixed* once the core is delivered, so wrapper
design is a bin-packing of chain lengths over ``w`` bins — solved here with
the LPT (longest processing time first) heuristic the literature uses,
followed by greedy balancing of the 1-bit functional cells.

A core's whole curve is built incrementally: LPT runs on a
``(total, index)`` heap, the 1-bit cells are placed by a closed-form water
fill, and each chain count is packed once per core signature, with a
running prefix minimum over chain counts giving ``T(w)``. A curve up to
width ``W`` costs O(W^2 log W) instead of re-packing every chain count for
every width one cell at a time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.soc.core import Core
from repro.util.errors import ValidationError

#: Default maximum internal scan chain length when a core doesn't specify
#: its chain structure. Cores are delivered with chains of roughly this
#: length (a typical DFT tool default of the era).
DEFAULT_CHAIN_LENGTH = 50


def internal_scan_chains(core: Core, max_length: int = DEFAULT_CHAIN_LENGTH) -> list[int]:
    """Return the core's internal scan chain lengths.

    A core delivered with an explicit chain structure (``core.scan_chains``,
    the ITC'02 style) uses it verbatim. Otherwise the flip-flops are split
    into ``ceil(FF / max_length)`` chains of nearly equal length (the
    balanced structure DFT insertion produces). Returns an empty list for
    combinational cores.
    """
    if core.scan_chains is not None:
        return list(core.scan_chains)
    if max_length <= 0:
        raise ValidationError(f"max_length must be positive, got {max_length}")
    total = core.num_flipflops
    if total == 0:
        return []
    count = math.ceil(total / max_length)
    base, extra = divmod(total, count)
    return [base + 1] * extra + [base] * (count - extra)


@dataclass(frozen=True)
class WrapperDesign:
    """A wrapper configuration for one core at one TAM width.

    ``in_chains``/``out_chains`` hold the total bit-length of each wrapper
    chain on the input (scan-in + stimulus) and output (scan-out + response)
    sides. ``si``/``so`` are the respective maxima — the per-pattern shift
    cycle counts.
    """

    core_name: str
    width: int
    in_chains: tuple[int, ...]
    out_chains: tuple[int, ...]

    @property
    def si(self) -> int:
        return max(self.in_chains) if self.in_chains else 0

    @property
    def so(self) -> int:
        return max(self.out_chains) if self.out_chains else 0

    def application_time(self, num_patterns: int) -> int:
        """Cycles to apply ``num_patterns`` patterns through this wrapper."""
        if num_patterns <= 0:
            raise ValidationError(f"num_patterns must be positive, got {num_patterns}")
        return (1 + max(self.si, self.so)) * num_patterns + min(self.si, self.so)


def _pack_lpt(items: list[int], bins: int) -> list[int]:
    """LPT bin packing: return per-bin totals after placing items descending.

    Each item goes to the least-loaded bin, the lowest-indexed one on ties;
    the ``(total, index)`` heap makes that choice in O(log bins).
    """
    totals = [0] * bins
    heap = [(0, i) for i in range(bins)]
    for item in sorted(items, reverse=True):
        total, i = heap[0]
        totals[i] = total + item
        heapq.heapreplace(heap, (total + item, i))
    return totals


def _spread_cells(totals: list[int], cells: int) -> list[int]:
    """Distribute ``cells`` 1-bit wrapper cells, always filling the shortest bin.

    Closed form of the one-cell-at-a-time fill (lowest index first on ties):
    every bin below some level ``L`` rises to ``L``, and the cells left over
    go one each to the lowest-indexed bins standing at ``L``.
    """
    if cells == 0 or not totals:
        return list(totals)
    ordered = sorted(totals)
    prefix = 0
    for k, total in enumerate(ordered, start=1):
        prefix += total
        level = (cells + prefix) // k
        if k == len(ordered) or level < ordered[k]:
            break
    extra = cells + prefix - level * k
    spread = []
    for total in totals:
        if total > level:
            spread.append(total)
        elif extra:
            spread.append(level + 1)
            extra -= 1
        else:
            spread.append(level)
    return spread


class _WrapperCurve:
    """Every wrapper of one core signature, extended one chain count at a time.

    ``best[w - 1]`` is the fastest unpadded design using at most ``w``
    wrapper chains (the fewest chains on ties), with its test time: a
    running prefix minimum over chain counts, so each count is packed once
    however many widths are asked for. ``best`` is replaced, never mutated,
    so a concurrent reader always sees a consistent prefix.
    """

    __slots__ = ("core", "chains", "best", "designs")

    def __init__(self, core: Core, chains: list[int]):
        self.core = core
        self.chains = chains
        self.best: list[tuple[WrapperDesign, int]] = []
        self.designs: dict[int, WrapperDesign] = {}

    def design(self, width: int) -> WrapperDesign:
        cached = self.designs.get(width)
        if cached is not None:
            return cached
        best = self.best
        if len(best) < width:
            best = self._extend(best, width)
        fastest = best[width - 1][0]
        # Pad to the full width so the record reflects the physical interface.
        pad = (0,) * (width - fastest.width)
        design = WrapperDesign(
            fastest.core_name, width, fastest.in_chains + pad, fastest.out_chains + pad
        )
        self.designs[width] = design
        return design

    def _extend(self, best: list[tuple[WrapperDesign, int]], width: int) -> list[tuple[WrapperDesign, int]]:
        core = self.core
        best = list(best)
        current = best[-1] if best else None
        for bins in range(len(best) + 1, width + 1):
            scan_totals = _pack_lpt(self.chains, bins)
            candidate = WrapperDesign(
                core.name,
                bins,
                tuple(_spread_cells(scan_totals, core.num_inputs)),
                tuple(_spread_cells(scan_totals, core.num_outputs)),
            )
            time = candidate.application_time(core.num_patterns)
            if current is None or time < current[1]:
                current = (candidate, time)
            best.append(current)
        self.best = best
        return best


#: Width-less structural signature -> :class:`_WrapperCurve`. The designer
#: re-derives identical wrappers across every sweep point; each curve packs
#: a chain count once and keeps the designs it has handed out. The key
#: covers every core field the packing reads (plus the name, which the
#: returned record carries), so distinct cores cannot collide.
#: WrapperDesign is frozen, making the shared instances safe.
_WRAPPER_CACHE: dict[tuple, _WrapperCurve] = {}


def design_wrapper(core: Core, width: int, chain_length: int = DEFAULT_CHAIN_LENGTH) -> WrapperDesign:
    """Build the wrapper for ``core`` at TAM width ``width``.

    Internal scan chains are packed over wrapper chains with LPT; functional
    input (output) cells are then spread onto the currently shortest
    input-side (output-side) chains. Because LPT is a heuristic, the design
    is built for every chain count up to ``width`` and the fastest is kept
    (the fewest chains on ties) — a wrapper may always leave TAM wires
    unused, which also makes ``T(w)`` monotone non-increasing in ``w`` by
    construction.

    Results are memoized per structural signature: each chain count is
    packed once per core shape, and repeated calls for the same width
    return the same frozen design instantly.
    """
    if width <= 0:
        raise ValidationError(f"wrapper width must be positive, got {width}")
    key = (
        core.name,
        core.num_inputs,
        core.num_outputs,
        core.num_flipflops,
        core.num_patterns,
        core.scan_chains,
        chain_length,
    )
    curve = _WRAPPER_CACHE.get(key)
    if curve is None:
        curve = _WrapperCurve(core, internal_scan_chains(core, max_length=chain_length))
        _WRAPPER_CACHE[key] = curve
    return curve.design(width)


def application_time(core: Core, width: int, chain_length: int = DEFAULT_CHAIN_LENGTH) -> int:
    """Test application time (cycles) of ``core`` at TAM width ``width``."""
    return design_wrapper(core, width, chain_length).application_time(core.num_patterns)


def application_time_curve(
    core: Core, max_width: int, chain_length: int = DEFAULT_CHAIN_LENGTH
) -> list[int]:
    """Return ``[T(1), T(2), ..., T(max_width)]`` for the core."""
    if max_width <= 0:
        raise ValidationError(f"max_width must be positive, got {max_width}")
    return [application_time(core, w, chain_length) for w in range(1, max_width + 1)]


def pareto_widths(core: Core, max_width: int, chain_length: int = DEFAULT_CHAIN_LENGTH) -> list[int]:
    """Widths in [1, max_width] where T(w) strictly improves on all narrower widths.

    Wrapper time is a staircase in width: beyond some width the longest
    internal chain dominates and extra wires are wasted. Assigning a core to
    a bus wider than its last Pareto width buys nothing — the classic
    motivation for heterogeneous bus widths.
    """
    curve = application_time_curve(core, max_width, chain_length)
    best = math.inf
    points = []
    for w, t in enumerate(curve, start=1):
        if t < best:
            best = t
            points.append(w)
    return points
