"""Solve policies: bounded effort, retries, and graceful degradation.

A :class:`SolvePolicy` is the single object that says how hard a solve may
try and what happens when the budget runs out:

- **budgets** — ``deadline`` (wall seconds) and ``node_budget`` (B&B nodes)
  cap the exact search; ``gap_tol`` loosens the optimality proof;
- **resilience** — ``max_retries`` / ``retry_backoff`` re-run a backend
  that failed with a *transient* error
  (:class:`~repro.util.errors.TransientSolverError`), with exponential
  backoff between attempts;
- **degradation ladder** — when the budget is exhausted, an incumbent (if
  any) is returned as ``Status.FEASIBLE``; with no incumbent the designer
  walks ``fallback`` — by default LPT greedy then simulated annealing —
  instead of raising, and records what happened in a
  :class:`FallbackReport`;
- **checkpointing** — ``checkpoint_dir`` persists the best incumbent per
  instance fingerprint, so an interrupted sweep resumes warm.

The policy *is* the effort surface: the legacy ``node_limit`` /
``time_limit`` kwargs that used to ride on ``Model.solve`` / ``design``
(and their PR-3 deprecation shims) are gone — both entry points reject
them with a pointer here. Policies are frozen and picklable, so they
travel to parallel workers, and expose a canonical :meth:`cache_token`
(the shared protocol of :mod:`repro.runtime.fingerprint`) so the solve
cache can key on the *effective* budget — a truncated solve must never be
replayed for an uncapped request.

All five policy classes share one schema (:class:`PolicySchema`):
``cache_token``, ``as_dict``, ``from_dict`` and ``with_overrides`` are
derived from the dataclass fields, so a new knob is one field line. A
field whose metadata says ``token=False`` stays out of the cache token.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import typing
from collections.abc import Mapping
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, ClassVar, TypeVar

#: Escalation rungs the designer knows how to run, in the order tried.
FALLBACK_RUNGS = ("lpt", "sa")

#: Default degradation ladder on budget exhaustion without an incumbent.
DEFAULT_FALLBACK = ("lpt", "sa")

#: Branching rules :class:`~repro.ilp.branch_and_bound.BranchAndBoundSolver`
#: accepts; validated here so a typo fails at policy construction, not
#: mid-sweep inside a worker process.
BRANCHING_RULES = ("most_fractional", "pseudocost", "first")

_P = TypeVar("_P", bound="PolicySchema")


class PolicySchema:
    """Serializers derived from a frozen policy dataclass's fields.

    ``cache_token()`` renders ``prefix(name=value,...)`` over every field in
    declaration order, skipping those whose metadata says ``token=False``: a
    nested policy renders its own token (``-`` when unset), a tuple renders
    as a list, anything else as its ``repr``. ``as_dict()`` recurses into
    nested policies and turns tuples into lists; ``from_dict()`` inverts it,
    rejecting unknown keys so a typo cannot silently fall back to a default.
    """

    #: The token's leading name, e.g. ``cuts`` in ``cuts(rounds=3,...)``.
    token_prefix: ClassVar[str]
    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]

    def cache_token(self) -> str:
        """Canonical text of every field that shapes what a solve returns."""
        nested = _nested_policies(type(self))
        parts: list[str] = []
        for spec in fields(self):
            if not spec.metadata.get("token", True):
                continue
            value = getattr(self, spec.name)
            if spec.name in nested:
                text = "-" if value is None else value.cache_token()
            elif isinstance(value, tuple):
                text = repr(list(value))
            else:
                text = repr(value)
            parts.append(f"{spec.name}={text}")
        return f"{self.token_prefix}({','.join(parts)})"

    if typing.TYPE_CHECKING:  # the dataclass decorator writes the real one

        def __init__(self, **values: Any) -> None: ...

    def with_overrides(self: _P, **changes) -> _P:
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, PolicySchema):
                value = value.as_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls: type[_P], payload: Mapping[str, Any]) -> _P:
        """Inverse of :meth:`as_dict` (used by request/service payloads)."""
        unknown = sorted(set(payload) - {spec.name for spec in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        data = dict(payload)
        for name, nested in _nested_policies(cls).items():
            if isinstance(data.get(name), Mapping):
                data[name] = nested.from_dict(data[name])
        return cls(**data)


@functools.cache
def _nested_policies(cls: type) -> dict[str, type[PolicySchema]]:
    """The fields of ``cls`` typed as an (optional) nested policy."""
    nested: dict[str, type[PolicySchema]] = {}
    for name, hint in typing.get_type_hints(cls).items():
        for arg in typing.get_args(hint):
            if isinstance(arg, type) and issubclass(arg, PolicySchema):
                nested[name] = arg
    return nested


@dataclass(frozen=True)
class CutPolicy(PolicySchema):
    """How (and whether) the B&B solver separates cutting planes.

    The solver derives a conflict graph from the pairwise-exclusion
    structure of the matrix and separates maximal-clique cuts
    (``sum x <= 1``) plus lifted knapsack cover cuts, in up to ``rounds``
    rounds at the root node and — when ``max_depth > 0`` — one round at
    tree nodes no deeper than ``max_depth``. A shared cut pool
    deduplicates cuts, keeps at most ``max_pool`` active, and retires a
    cut after it has been slack for ``max_age`` consecutive rounds.

    Cut settings change what a solve returns (node counts, provenance,
    possibly which optimal vertex is reported), so every field
    contributes to :meth:`cache_token` and therefore to the solve-cache
    fingerprint (flow rule D001 audits this).
    """

    token_prefix = "cuts"

    rounds: int = 3
    max_cuts_per_round: int = 32
    clique: bool = True
    cover: bool = True
    max_depth: int = 2
    min_violation: float = 1e-4
    max_pool: int = 256
    max_age: int = 3

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"rounds cannot be negative, got {self.rounds}")
        if self.max_cuts_per_round <= 0:
            raise ValueError(
                f"max_cuts_per_round must be positive, got {self.max_cuts_per_round}"
            )
        if self.max_depth < 0:
            raise ValueError(f"max_depth cannot be negative, got {self.max_depth}")
        if self.min_violation <= 0:
            raise ValueError(
                f"min_violation must be positive, got {self.min_violation}"
            )
        if self.max_pool <= 0:
            raise ValueError(f"max_pool must be positive, got {self.max_pool}")
        if self.max_age < 1:
            raise ValueError(f"max_age must be at least 1, got {self.max_age}")

    # ------------------------------------------------------------ derivations
    @property
    def enabled(self) -> bool:
        """True when any separation at all may run."""
        return (self.clique or self.cover) and (self.rounds > 0 or self.max_depth > 0)

    @classmethod
    def disabled(cls) -> "CutPolicy":
        """An explicit cuts-off policy (distinct from *unset*, which lets
        the designer apply its default)."""
        return cls(rounds=0, max_depth=0)

    def backend_options(self) -> dict[str, Any]:
        """The solver kwargs this cut policy implies (bnb only)."""
        return {"cut_policy": self}


#: The cut policy ``design()`` applies when nothing chose one explicitly.
DEFAULT_CUT_POLICY = CutPolicy()


@dataclass(frozen=True)
class PresolvePolicy(PolicySchema):
    """How (and whether) the root presolve engine reduces a model.

    Before the branch-and-bound search starts, the root presolve engine
    (:mod:`repro.ilp.presolve_root`) applies model reductions in up to
    ``rounds`` passes: global bound tightening, dual fixing, singleton
    column elimination, coefficient tightening on integer columns, and
    empty/duplicate/redundant row cleanup. Every reduction preserves the
    set of optimal solutions of the *integer* program; a
    :class:`~repro.ilp.presolve_root.Postsolve` step maps reduced-space
    solutions back to the original variable space, so caches, checkpoints,
    and fingerprints stay presolve-independent.

    Presolve settings change what a solve returns (which optimal vertex,
    node counts, stats), so every field contributes to
    :meth:`cache_token` and therefore to the solve-cache fingerprint
    (flow rule D001 audits this).
    """

    token_prefix = "presolve"

    rounds: int = 4
    bound_tighten: bool = True
    dual_fix: bool = True
    singleton_cols: bool = True
    coeff_tighten: bool = True
    row_cleanup: bool = True

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"rounds cannot be negative, got {self.rounds}")

    # ------------------------------------------------------------ derivations
    @property
    def enabled(self) -> bool:
        """True when any reduction at all may run."""
        return self.rounds > 0 and (
            self.bound_tighten
            or self.dual_fix
            or self.singleton_cols
            or self.coeff_tighten
            or self.row_cleanup
        )

    @classmethod
    def disabled(cls) -> "PresolvePolicy":
        """An explicit presolve-off policy (distinct from *unset*, which
        lets the solver apply its default)."""
        return cls(rounds=0)

    def backend_options(self) -> dict[str, Any]:
        """The solver kwargs this presolve policy implies (bnb only)."""
        return {"root_presolve": self}


#: The root presolve policy the B&B solver applies when nothing chose one.
DEFAULT_PRESOLVE_POLICY = PresolvePolicy()


#: Entrant names the portfolio racer knows how to run. Heuristic rungs
#: come first (they are the cheap incumbents); ``"bnb"`` is the exact
#: search they cross-feed.
PORTFOLIO_ENTRANTS = ("lpt", "sa", "bnb")


@dataclass(frozen=True)
class PortfolioPolicy(PolicySchema):
    """How (and whether) the racing portfolio runs a design solve.

    The portfolio (:func:`repro.runtime.portfolio.run_portfolio`) races the
    entrants under one shared :class:`SolvePolicy` budget: the heuristic
    rungs (``"lpt"``, ``"sa"``) run first — concurrently on the persistent
    process pool when ``jobs > 1`` — and their best incumbent is cross-fed
    to the exact ``"bnb"`` entrant as its starting cutoff, with the wall
    time the heuristics spent subtracted from the shared deadline. The best
    solution wins, with per-entrant provenance recorded in a
    :class:`~repro.runtime.portfolio.PortfolioReport`.

    ``seed`` seeds the stochastic entrants and ``sa_iterations`` sets the
    annealing length, so both shape the combined result and contribute to
    :meth:`cache_token`. ``jobs`` only fans the heuristic race out across
    workers — every entrant always runs to completion, so fan-out changes
    wall time but never the answer, and ``jobs`` stays out of the token
    (the same rule :class:`~repro.core.request.SolveRequest` applies).
    """

    token_prefix = "portfolio"

    entrants: tuple[str, ...] = PORTFOLIO_ENTRANTS
    seed: int = 0
    sa_iterations: int = 5000
    jobs: int = field(default=1, metadata={"token": False})

    def __post_init__(self) -> None:
        ladder = tuple(self.entrants or ())
        object.__setattr__(self, "entrants", ladder)
        unknown = [name for name in ladder if name not in PORTFOLIO_ENTRANTS]
        if unknown:
            raise ValueError(
                f"unknown portfolio entrant(s) {unknown}; known: {list(PORTFOLIO_ENTRANTS)}"
            )
        if len(set(ladder)) != len(ladder):
            raise ValueError(f"duplicate portfolio entrant(s) in {ladder}")
        if self.sa_iterations < 0:
            raise ValueError(
                f"sa_iterations cannot be negative, got {self.sa_iterations}"
            )

    # ------------------------------------------------------------ derivations
    @property
    def enabled(self) -> bool:
        """True when any entrant at all may run."""
        return bool(self.entrants)

    @property
    def exact(self) -> bool:
        """True when the exact B&B entrant is in the race."""
        return "bnb" in self.entrants

    @property
    def heuristics(self) -> tuple[str, ...]:
        """The heuristic entrants, in rung order."""
        return tuple(name for name in self.entrants if name != "bnb")

    @classmethod
    def disabled(cls) -> "PortfolioPolicy":
        """An explicit portfolio-off policy (distinct from *unset*)."""
        return cls(entrants=())


#: The portfolio the racer runs when asked for one without details.
DEFAULT_PORTFOLIO_POLICY = PortfolioPolicy()


@dataclass(frozen=True)
class SolverOptions(PolicySchema):
    """Structured B&B solver knobs, riding on :class:`SolvePolicy`.

    Every knob the B&B solver takes beyond the effort budget, as one
    frozen, picklable, fingerprintable block. ``None`` means "solver
    default" for every field.
    """

    token_prefix = "solver"

    presolve: bool | None = None
    branching: str | None = None
    cuts: CutPolicy | None = None
    root_presolve: PresolvePolicy | None = None
    warm_start: bool | None = None
    checkpoint_interval: float | None = None
    portfolio: PortfolioPolicy | None = None

    def __post_init__(self) -> None:
        if self.branching is not None and self.branching not in BRANCHING_RULES:
            raise ValueError(
                f"unknown branching rule {self.branching!r}; "
                f"known: {list(BRANCHING_RULES)}"
            )
        if self.cuts is not None and not isinstance(self.cuts, CutPolicy):
            raise TypeError(
                f"cuts must be a CutPolicy or None, got {type(self.cuts).__name__}"
            )
        if self.root_presolve is not None and not isinstance(
            self.root_presolve, PresolvePolicy
        ):
            raise TypeError(
                "root_presolve must be a PresolvePolicy or None, "
                f"got {type(self.root_presolve).__name__}"
            )
        if self.warm_start is not None and not isinstance(self.warm_start, bool):
            raise TypeError(
                f"warm_start must be a bool or None, got {type(self.warm_start).__name__}"
            )
        if self.portfolio is not None and not isinstance(
            self.portfolio, PortfolioPolicy
        ):
            raise TypeError(
                "portfolio must be a PortfolioPolicy or None, "
                f"got {type(self.portfolio).__name__}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {self.checkpoint_interval}"
            )

    def backend_options(self, backend: str = "bnb") -> dict[str, Any]:
        """The solver kwargs this block implies for ``backend``."""
        options: dict[str, Any] = {}
        if backend != "bnb":
            return options
        if self.presolve is not None:
            options["presolve"] = self.presolve
        if self.branching is not None:
            options["branching"] = self.branching
        if self.checkpoint_interval is not None:
            options["checkpoint_interval"] = self.checkpoint_interval
        if self.cuts is not None:
            # Forwarded as a block: the cut kwargs name their own cache
            # token, so `cuts` must stay in the derived cache_token() (never
            # token=False) — flow rule D001 audits exactly that pairing.
            for key, value in self.cuts.backend_options().items():
                options[key] = value
        if self.root_presolve is not None:
            # Forwarded as a block like cuts: the kwarg names its own cache
            # token, so `root_presolve` must stay in the derived
            # cache_token() under the same D001 pairing.
            for key, value in self.root_presolve.backend_options().items():
                options[key] = value
        if self.warm_start is not None:
            # The solver's own `warm_start` kwarg carries an incumbent
            # *value* hint; the LP-basis toggle travels as lp_warm_start.
            # Request-level fingerprints see only cache_token(), never these
            # kwargs, so the toggle must be read there too — routing the
            # rename through a local lets flow rule D001 enforce exactly
            # that pairing.
            lp_warm_start = self.warm_start
            options["lp_warm_start"] = lp_warm_start
        # `portfolio` is deliberately NOT a backend kwarg: the racer is a
        # designer-level dispatch (repro.runtime.portfolio), not a solver
        # knob — the B&B backend never sees it. It still shapes the result,
        # so it stays in the derived cache_token().
        return options


@dataclass(frozen=True)
class SolvePolicy(PolicySchema):
    """Effort budget + resilience behavior for one (or many) solves.

    The effort budget and the solver block shape what a solve returns, so
    they make up :meth:`cache_token`. Retries and the fallback ladder re-run
    or replace a solve but never alter what a completed solve would have
    produced, and checkpoints only resume one, so those fields stay out.
    """

    token_prefix = "policy"

    deadline: float | None = None
    node_budget: int | None = None
    gap_tol: float | None = None
    max_retries: int = field(default=0, metadata={"token": False})
    retry_backoff: float = field(default=0.25, metadata={"token": False})
    fallback: tuple[str, ...] = field(default=DEFAULT_FALLBACK, metadata={"token": False})
    fallback_seed: int = field(default=0, metadata={"token": False})
    checkpoint_dir: str | None = field(default=None, metadata={"token": False})
    solver: SolverOptions | None = None

    def __post_init__(self) -> None:
        if self.solver is not None and not isinstance(self.solver, SolverOptions):
            raise TypeError(
                f"solver must be a SolverOptions or None, got {type(self.solver).__name__}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        if self.gap_tol is not None and self.gap_tol < 0:
            raise ValueError(f"gap_tol cannot be negative, got {self.gap_tol}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff cannot be negative, got {self.retry_backoff}")
        ladder = tuple(self.fallback or ())
        object.__setattr__(self, "fallback", ladder)
        unknown = [rung for rung in ladder if rung not in FALLBACK_RUNGS]
        if unknown:
            raise ValueError(
                f"unknown fallback rung(s) {unknown}; known: {list(FALLBACK_RUNGS)}"
            )

    # ------------------------------------------------------------ derivations
    @property
    def is_capped(self) -> bool:
        """True when the exact search may stop before proving optimality."""
        return self.deadline is not None or self.node_budget is not None

    @property
    def degrades(self) -> bool:
        """True when exhaustion without an incumbent falls back to heuristics."""
        return bool(self.fallback)

    def backend_options(self, backend: str = "bnb") -> dict[str, Any]:
        """The solver kwargs this policy implies for ``backend``."""
        options: dict[str, Any] = {}
        if backend == "scipy":
            if self.deadline is not None:
                options["time_limit"] = self.deadline
        else:
            if self.node_budget is not None:
                options["node_limit"] = self.node_budget
            if self.deadline is not None:
                options["time_limit"] = self.deadline
            if self.gap_tol is not None:
                options["gap_tol"] = self.gap_tol
            if self.checkpoint_dir is not None:
                options["checkpoint_dir"] = self.checkpoint_dir
        if self.solver is not None:
            # Forwarded as a block: the nested kwargs carry their own cache
            # tokens, so `solver` must stay in the derived cache_token() —
            # flow rule D001 audits exactly that pairing.
            for key, value in self.solver.backend_options(backend).items():
                options[key] = value
        return options

@dataclass
class FallbackReport:
    """What the resilient solve path actually did — returned in telemetry.

    ``source`` is the provenance of the returned design: ``"exact"`` (the
    solver proved optimality), ``"incumbent"`` (budget exhausted, best
    incumbent returned), ``"lpt"`` / ``"sa"`` (heuristic degradation).
    ``ladder`` lists every step attempted in order with its outcome.
    """

    source: str = "exact"
    reason: str | None = None
    retries: int = 0
    transient_errors: list[str] = field(default_factory=list)
    ladder: list[dict[str, Any]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.source != "exact"

    def record_step(self, step: str, outcome: str, **detail) -> None:
        self.ladder.append({"step": step, "outcome": outcome, **detail})

    def as_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "degraded": self.degraded,
            "reason": self.reason,
            "retries": self.retries,
            "transient_errors": list(self.transient_errors),
            "ladder": [dict(step) for step in self.ladder],
        }

    def render(self) -> str:
        """One-line provenance summary for reports."""
        if not self.degraded and not self.retries:
            return "exact solve"
        bits = [f"source={self.source}"]
        if self.reason:
            bits.append(f"reason={self.reason}")
        if self.retries:
            bits.append(f"retries={self.retries}")
        if self.ladder:
            bits.append(
                "ladder=" + "->".join(f"{s['step']}:{s['outcome']}" for s in self.ladder)
            )
        return ", ".join(bits)


class CheckpointStore:
    """Per-instance incumbent checkpoints keyed by matrix fingerprint.

    One JSON file per instance under ``directory``; writes are atomic
    (write-then-rename) so a killed sweep leaves a readable store. The
    payload is the dense column-indexed value vector plus the objective in
    the *model's* sense, mirroring the solve cache's record layout.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _path_for(self, fingerprint: str) -> Path:
        return self.directory / f"incumbent-{fingerprint}.json"

    def load(self, fingerprint: str) -> dict[str, Any] | None:
        """Best known incumbent for the instance, or None."""
        try:
            payload = json.loads(self._path_for(fingerprint).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or "values" not in payload:
            return None
        return payload

    def save(self, fingerprint: str, values: list[float], objective: float) -> None:
        """Persist an incumbent, keeping only the best objective seen."""
        existing = self.load(fingerprint)
        if existing is not None and existing.get("objective", float("inf")) <= objective:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {"values": [float(v) for v in values], "objective": float(objective)}
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, self._path_for(fingerprint))
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
