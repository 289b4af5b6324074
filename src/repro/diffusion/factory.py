"""Estimator factory: one construction point for every benefit estimator.

The algorithms (S3CA, the baselines, the experiment runner, the CLI) never
instantiate estimator classes directly; they ask :func:`make_estimator` for
one by method name.  This keeps estimator selection in one place, lets a
single ``--estimator`` flag reach every layer, and means new estimators only
need to be registered here.

>>> from repro.experiments.datasets import toy_scenario
>>> estimator = make_estimator(toy_scenario(), "mc-compiled", num_samples=50, seed=7)
>>> estimator.supports_incremental
True
"""

from __future__ import annotations

from typing import Optional, Union

from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.exact import ExactEstimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.rr_sets import RRBenefitEstimator
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike

#: Method names accepted by :func:`make_estimator`.
ESTIMATOR_METHODS = ("mc-compiled", "exact", "rr")

DEFAULT_ESTIMATOR_METHOD = "mc-compiled"


def make_estimator(
    scenario_or_graph: Union["SocialGraph", object],
    method: str = DEFAULT_ESTIMATOR_METHOD,
    *,
    num_samples: int = 200,
    seed: SeedLike = None,
    cache_size: int = 50_000,
    max_exact_edges: int = 20,
    num_rr_sets: Optional[int] = None,
    incremental: bool = True,
    shard_size: Optional[int] = None,
    workers: Optional[int] = None,
    pool=None,
    pipeline_depth: Optional[int] = None,
    use_kernel: Optional[bool] = None,
    shared_memory: Optional[bool] = None,
) -> BenefitEstimator:
    """Build a :class:`BenefitEstimator` for a scenario (or bare graph).

    Parameters
    ----------
    scenario_or_graph:
        A :class:`~repro.economics.scenario.Scenario` or the
        :class:`SocialGraph` itself.
    method:
        ``"mc-compiled"`` — Monte-Carlo on the compiled CSR graph (default);
        ``"exact"`` — exhaustive world enumeration (tiny graphs only);
        ``"rr"`` — reverse-reachable sets (plain-IC / unlimited-coupon regime
        only; ignores the allocation).
    num_samples / seed / cache_size:
        Monte-Carlo knobs; ``seed`` also drives the RR sampler.
    max_exact_edges:
        Edge cap forwarded to :class:`ExactEstimator`.
    num_rr_sets:
        RR-set count; defaults to ``max(2000, 25 * num_nodes)`` so every node
        gets a usable number of rooted samples.
    incremental:
        Attach the delta-evaluation engine to the Monte-Carlo estimator
        (default on; ignored by the other methods).  The estimator's
        ``supports_incremental`` then decides whether the greedy phases take
        the delta path; ``False`` builds the eager reference.  See
        :mod:`repro.diffusion.delta`.
    shard_size / workers:
        Sharded world sampling and the multiprocess shard executor of the
        Monte-Carlo estimator (ignored by the other methods).  Both
        preserve bit-identical estimates; see
        :mod:`repro.diffusion.parallel`.
    pool:
        Optional :class:`~repro.diffusion.parallel.SharedShardPool` shared
        across estimators (Monte-Carlo estimator only).  The estimator
        registers its worlds on the injected pool instead of creating its
        own, and never closes it — the pool's owner does.  ``workers`` is
        ignored when a pool is given (the pool's width wins).
    pipeline_depth:
        In-flight bound of the batched evaluation scheduler
        (:meth:`~repro.diffusion.monte_carlo.MonteCarloEstimator.submit_many`);
        ``None`` derives ``max(2, 2 * workers)``.  Bit-identical results for
        any value (Monte-Carlo estimator only).
    use_kernel:
        Native cascade kernel dispatch (:mod:`repro.diffusion.kernels`):
        ``None`` auto-detects with silent interpreted fallback, ``True``
        warns on fallback, ``False`` forces the interpreted oracle.
        Bit-identical estimates either way (Monte-Carlo estimator
        only).
    shared_memory:
        Zero-copy shared-memory transport of the compiled graph and the
        materialised world blocks (:mod:`repro.utils.shm`): ``None`` enables
        it exactly when worlds execute out-of-process (``pool`` or
        ``workers > 1``), ``True`` forces it (warning + by-value fallback
        when unavailable), ``False`` forces private copies.  Bit-identical
        estimates for every setting (Monte-Carlo estimator only).
    """
    graph = getattr(scenario_or_graph, "graph", scenario_or_graph)
    if not isinstance(graph, SocialGraph):
        raise EstimationError(
            f"expected a Scenario or SocialGraph, got {type(scenario_or_graph)!r}"
        )
    if method == "mc-compiled":
        return MonteCarloEstimator(
            graph,
            num_samples=num_samples,
            seed=seed,
            cache_size=cache_size,
            incremental=incremental,
            shard_size=shard_size,
            workers=workers,
            pool=pool,
            pipeline_depth=pipeline_depth,
            use_kernel=use_kernel,
            shared_memory=shared_memory,
        )
    if method == "exact":
        return ExactEstimator(graph, max_edges=max_exact_edges)
    if method == "rr":
        num_sets = num_rr_sets or max(2000, 25 * graph.num_nodes)
        return RRBenefitEstimator(graph, num_sets=num_sets, seed=seed)
    raise EstimationError(
        f"unknown estimator method {method!r}; expected one of {ESTIMATOR_METHODS}"
    )
