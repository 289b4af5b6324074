"""The S3CA solver: orchestration of the ID, GPI and SCM phases.

:class:`S3CA` is the user-facing entry point of the library's core.  Given a
:class:`~repro.economics.scenario.Scenario` it

1. runs **Investment Deployment** to spend the budget greedily by marginal
   redemption,
2. runs **Guaranteed Path Identification** to enumerate the high-probability
   paths still affordable from each selected seed, and
3. runs the **SC Maneuver** phase to re-route already-deployed coupons onto
   the paths whose amelioration index justifies it,

returning an :class:`S3CAResult` carrying the final deployment together with
the metrics the paper reports (redemption rate, expected benefit, total cost,
seed-vs-SC spending split, explored-node count and per-phase timings).

Example
-------
>>> from repro.experiments.datasets import toy_scenario
>>> from repro.core.s3ca import S3CA
>>> scenario = toy_scenario()
>>> result = S3CA(scenario, num_samples=100, seed=7).solve()
>>> result.redemption_rate > 0
True
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set

from repro.core.deployment import Deployment
from repro.core.guaranteed_paths import identify_guaranteed_paths
from repro.core.investment import InvestmentDeployment
from repro.core.maneuver import SCManeuver
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.factory import DEFAULT_ESTIMATOR_METHOD, make_estimator
from repro.diffusion.rr_sets import RRBenefitEstimator
from repro.economics.scenario import Scenario
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer

NodeId = Hashable


@dataclass
class S3CAResult:
    """Everything the experiments need to know about one S3CA run."""

    deployment: Deployment
    redemption_rate: float
    expected_benefit: float
    total_cost: float
    seed_cost: float
    sc_cost: float
    explored_nodes: int
    num_paths: int
    num_maneuvers: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def seeds(self) -> Set[NodeId]:
        """The selected seed set."""
        return set(self.deployment.seeds)

    @property
    def allocation(self) -> Dict[NodeId, int]:
        """The final coupon allocation."""
        return self.deployment.allocation.as_dict()

    @property
    def seed_sc_rate(self) -> float:
        """Ratio of seed spending to SC spending (Fig. 7's metric).

        Returns ``inf`` when no SC cost was incurred and some seed cost was.
        """
        if self.sc_cost > 0:
            return self.seed_cost / self.sc_cost
        return float("inf") if self.seed_cost > 0 else 0.0

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across the three phases."""
        return sum(self.phase_seconds.values())


class S3CA:
    """Seed Selection and Social Coupon allocation Algorithm.

    Parameters
    ----------
    scenario:
        The S3CRM instance to solve.
    estimator:
        Optional pre-built expected-benefit estimator (sharing one across
        algorithms makes comparisons noise-free); when omitted one is built
        through :func:`repro.diffusion.factory.make_estimator`.
    estimator_method / num_samples / seed:
        Factory method name and parameters of the default estimator (the
        compiled Monte-Carlo estimator with ``num_samples`` worlds).  The
        estimator decides whether the ID phase runs on the delta-evaluation
        engine and the CELF lazy queue (see :mod:`repro.core.investment`);
        the selected deployment is bit-identical either way.
    candidate_limit:
        Cap on the number of coupon candidates scored per ID iteration
        (``None`` = all influenced users, the pseudo-code's behaviour).
    max_pivot_candidates:
        Cap on how many users are priced for the pivot queue.
    max_paths_per_seed / max_depth:
        Bounds forwarded to the GPI traversal.
    enable_gpi / enable_scm:
        Ablation switches; disabling both reduces S3CA to its ID phase.
    spend_full_budget:
        When ``False`` (default, matching Alg. 1 line 24) the ID phase returns
        the intermediate deployment with the highest redemption rate, which on
        small instances may leave part of the budget unspent.  When ``True``
        the ID phase instead returns its final deployment — the one that used
        as much of the budget as profitable investments allowed — trading some
        redemption rate for total benefit (the regime the paper's large-scale
        runs operate in).
    shard_size / workers:
        Forwarded to the default estimator: sharded world sampling (bounded
        memory) and the multiprocess shard executor.  Both preserve
        bit-identical benefit estimates, so the selected deployment is the
        same for every setting — only speed and memory change.  Ignored when
        a pre-built ``estimator`` is supplied.
    pool:
        Optional :class:`~repro.diffusion.parallel.SharedShardPool` the
        default estimator registers on instead of creating its own — the way
        an experiment sweep runs many S3CA instances on **one** persistent
        worker pool.  The pool is never closed by S3CA or its estimator;
        its owner decides.  Ignored when ``estimator`` is supplied.
    pipeline_depth:
        In-flight bound of the default estimator's batched evaluation
        scheduler (how many submitted chunks a plan keeps pending before
        draining the oldest).  ``None`` derives ``max(2, 2 *
        workers)``.  Bit-identical results for any value; ignored when
        ``estimator`` is supplied.
    use_kernel:
        Native cascade kernel dispatch of the default estimator
        (:mod:`repro.diffusion.kernels`): ``None`` auto-detects with silent
        interpreted fallback, ``True`` warns on fallback, ``False`` forces
        the interpreted oracle.  The selected deployment is bit-identical
        either way; ignored when ``estimator`` is supplied.
    shared_memory:
        Zero-copy shared-memory transport of the default estimator's
        compiled graph and world blocks (:mod:`repro.utils.shm`): ``None``
        enables it exactly when worlds execute out-of-process, ``True``
        forces it (warning + by-value fallback when unavailable), ``False``
        forces private copies.  The selected deployment is bit-identical for
        every setting; ignored when ``estimator`` is supplied.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        estimator: Optional[BenefitEstimator] = None,
        estimator_method: str = DEFAULT_ESTIMATOR_METHOD,
        num_samples: int = 200,
        seed: SeedLike = None,
        candidate_limit: Optional[int] = None,
        max_pivot_candidates: Optional[int] = None,
        max_paths_per_seed: Optional[int] = 200,
        max_depth: Optional[int] = None,
        enable_gpi: bool = True,
        enable_scm: bool = True,
        spend_full_budget: bool = False,
        shard_size: Optional[int] = None,
        workers: Optional[int] = None,
        pool=None,
        pipeline_depth: Optional[int] = None,
        use_kernel: Optional[bool] = None,
        shared_memory: Optional[bool] = None,
    ) -> None:
        self.scenario = scenario
        self.estimator = estimator or make_estimator(
            scenario, estimator_method, num_samples=num_samples, seed=seed,
            shard_size=shard_size, workers=workers, pool=pool,
            pipeline_depth=pipeline_depth, use_kernel=use_kernel,
            shared_memory=shared_memory,
        )
        if isinstance(self.estimator, RRBenefitEstimator):
            warnings.warn(
                "the 'rr' estimator ignores coupon allocations (plain-IC "
                "regime); S3CA's coupon phases will see zero marginal benefit "
                "and degenerate to seeds-only deployments — use 'mc-compiled' "
                "for coupon-aware optimisation",
                stacklevel=2,
            )
        self.candidate_limit = candidate_limit
        self.max_pivot_candidates = max_pivot_candidates
        self.max_paths_per_seed = max_paths_per_seed
        self.max_depth = max_depth
        self.enable_gpi = enable_gpi
        self.enable_scm = enable_scm
        self.spend_full_budget = spend_full_budget

    # ------------------------------------------------------------------

    def solve(self) -> S3CAResult:
        """Run all three phases and return the result."""
        phase_seconds: Dict[str, float] = {}

        with Timer() as timer:
            investment = InvestmentDeployment(
                self.scenario,
                self.estimator,
                candidate_limit=self.candidate_limit,
                max_pivot_candidates=self.max_pivot_candidates,
            )
            id_result = investment.run()
        phase_seconds["investment_deployment"] = timer.elapsed

        if self.spend_full_budget and id_result.snapshots:
            deployment = id_result.snapshots[-1]
        else:
            deployment = id_result.deployment
        num_paths = 0
        num_maneuvers = 0

        if self.enable_gpi and deployment.seeds:
            with Timer() as timer:
                paths = identify_guaranteed_paths(
                    self.scenario.graph,
                    deployment,
                    self.scenario.budget_limit,
                    max_paths_per_seed=self.max_paths_per_seed,
                    max_depth=self.max_depth,
                )
            phase_seconds["guaranteed_paths"] = timer.elapsed
            num_paths = len(paths)

            if self.enable_scm and num_paths > 0:
                with Timer() as timer:
                    maneuver = SCManeuver(
                        self.estimator, self.scenario.budget_limit
                    )
                    scm_result = maneuver.run(deployment, paths)
                phase_seconds["sc_maneuver"] = timer.elapsed
                deployment = scm_result.deployment
                num_maneuvers = len(scm_result.operations)

        benefit = deployment.expected_benefit(self.estimator)
        seed_cost = deployment.seed_cost()
        sc_cost = deployment.sc_cost()
        total_cost = seed_cost + sc_cost
        rate = benefit / total_cost if total_cost > 0 else 0.0

        return S3CAResult(
            deployment=deployment,
            redemption_rate=rate,
            expected_benefit=benefit,
            total_cost=total_cost,
            seed_cost=seed_cost,
            sc_cost=sc_cost,
            explored_nodes=id_result.explored_count,
            num_paths=num_paths,
            num_maneuvers=num_maneuvers,
            phase_seconds=phase_seconds,
        )
