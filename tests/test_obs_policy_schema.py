"""The derived policy schema: cache tokens, dict form, and round trips.

``cache_token()`` keys the solve cache and request fingerprints, so its text
must not drift when the policy classes change shape. The golden file pins the
exact ``cache_token()`` and ``as_dict()`` text of a small corpus of nested
policies; regenerate it only for a deliberate cache-format change, with::

    PYTHONPATH=src python tests/test_obs_policy_schema.py > tests/golden/policy_schema.json
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    CutPolicy,
    PortfolioPolicy,
    PresolvePolicy,
    SolvePolicy,
    SolverOptions,
)
from repro.obs.policy import BRANCHING_RULES, FALLBACK_RUNGS, PORTFOLIO_ENTRANTS

GOLDEN = Path(__file__).resolve().parent / "golden" / "policy_schema.json"

_FULL_SOLVER = SolverOptions(
    presolve=False,
    branching="first",
    cuts=CutPolicy(rounds=1),
    root_presolve=PresolvePolicy.disabled(),
    warm_start=True,
    checkpoint_interval=2.5,
    portfolio=PortfolioPolicy(entrants=("lpt",), jobs=2),
)

CORPUS = {
    "cuts_default": CutPolicy(),
    "cuts_custom": CutPolicy(
        rounds=0,
        max_cuts_per_round=5,
        clique=False,
        cover=True,
        max_depth=0,
        min_violation=0.5,
        max_pool=9,
        max_age=1,
    ),
    "cuts_disabled": CutPolicy.disabled(),
    "presolve_default": PresolvePolicy(),
    "presolve_custom": PresolvePolicy(rounds=2, dual_fix=False, row_cleanup=False),
    "presolve_disabled": PresolvePolicy.disabled(),
    "portfolio_default": PortfolioPolicy(),
    "portfolio_custom": PortfolioPolicy(
        entrants=("sa", "bnb"), seed=7, sa_iterations=0, jobs=4
    ),
    "portfolio_disabled": PortfolioPolicy.disabled(),
    "solver_default": SolverOptions(),
    "solver_full": _FULL_SOLVER,
    "policy_default": SolvePolicy(),
    "policy_budgets": SolvePolicy(deadline=1.5, node_budget=150, gap_tol=0.0),
    "policy_resilience": SolvePolicy(
        max_retries=3,
        retry_backoff=0.0,
        fallback=(),
        fallback_seed=11,
        checkpoint_dir="ckpt",
    ),
    "policy_nested": SolvePolicy(
        deadline=30.0, node_budget=7, gap_tol=1e-6, fallback=("sa",), solver=_FULL_SOLVER
    ),
    "policy_partial": SolvePolicy(
        solver=SolverOptions(cuts=CutPolicy.disabled(), warm_start=False)
    ),
}


def render(policy) -> dict[str, str]:
    return {"cache_token": policy.cache_token(), "as_dict": repr(policy.as_dict())}


def test_tokens_and_dicts_match_the_golden_text():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CORPUS)
    for name, policy in CORPUS.items():
        assert render(policy) == golden[name], name


# ------------------------------------------------------------------ round trip
_cuts = st.builds(
    CutPolicy,
    rounds=st.integers(0, 6),
    max_cuts_per_round=st.integers(1, 64),
    clique=st.booleans(),
    cover=st.booleans(),
    max_depth=st.integers(0, 4),
    min_violation=st.floats(1e-9, 1.0),
    max_pool=st.integers(1, 512),
    max_age=st.integers(1, 8),
)
_presolve = st.builds(
    PresolvePolicy,
    rounds=st.integers(0, 6),
    bound_tighten=st.booleans(),
    dual_fix=st.booleans(),
    singleton_cols=st.booleans(),
    coeff_tighten=st.booleans(),
    row_cleanup=st.booleans(),
)
_portfolio = st.builds(
    PortfolioPolicy,
    entrants=st.lists(st.sampled_from(PORTFOLIO_ENTRANTS), unique=True).map(tuple),
    seed=st.integers(0, 1000),
    sa_iterations=st.integers(0, 10_000),
    jobs=st.integers(1, 8),
)
_solver = st.builds(
    SolverOptions,
    presolve=st.none() | st.booleans(),
    branching=st.none() | st.sampled_from(BRANCHING_RULES),
    cuts=st.none() | _cuts,
    root_presolve=st.none() | _presolve,
    warm_start=st.none() | st.booleans(),
    checkpoint_interval=st.none() | st.floats(0.01, 60.0),
    portfolio=st.none() | _portfolio,
)
_policy = st.builds(
    SolvePolicy,
    deadline=st.none() | st.floats(0.01, 600.0),
    node_budget=st.none() | st.integers(1, 10_000),
    gap_tol=st.none() | st.floats(0.0, 1.0),
    max_retries=st.integers(0, 5),
    retry_backoff=st.floats(0.0, 2.0),
    fallback=st.lists(st.sampled_from(FALLBACK_RUNGS), max_size=3).map(tuple),
    fallback_seed=st.integers(0, 1000),
    checkpoint_dir=st.none() | st.text(min_size=1, max_size=8),
    solver=st.none() | _solver,
)


@given(st.one_of(_cuts, _presolve, _portfolio, _solver, _policy))
def test_from_dict_inverts_as_dict(policy):
    # JSON on the way proves the dict form survives the service wire.
    payload = json.loads(json.dumps(policy.as_dict()))
    assert type(policy).from_dict(payload) == policy


if __name__ == "__main__":
    print(json.dumps({name: render(policy) for name, policy in CORPUS.items()}, indent=2))
