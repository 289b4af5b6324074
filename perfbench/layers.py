"""The program's layers, the entry points traced for each, and the per-layer
metrics derived from the spans.

A layer is a ``repro`` module (or a pair of modules that do one job).  Every
traced callable belongs to exactly one layer, so layer self times, plus the
time spent in operation spans outside any traced call (``unattributed``), add
up to the traced wall time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from tracer import CALLS, COUNT, SELF, TOTAL, Tracer

Stats = Dict[str, List[float]]

#: Layers whose self time is reported, in table order.
LAYERS = (
    "investment", "marginal", "deployment", "gpi", "scm", "estimator",
    "delta", "engine", "kernel", "pool", "shm", "events", "reconcile",
    "service",
)

#: Root spans of timed operations carry this layer name; their self time is
#: the part of an operation no traced call covers.
OP_LAYER = "op"

#: Every per-layer metric the traced run prints: name -> unit.
PER_LAYER: Dict[str, str] = {
    "setup.scenario_s": "s",
    "setup.compile_s": "s",
    "setup.estimator_s": "s",
    "investment.s": "s",
    "investment.self_s": "s",
    "investment.pivot_queue_s": "s",
    "investment.steps": "count",
    "investment.explored_nodes": "count",
    "marginal.coupon_evals": "count",
    "marginal.seed_evals": "count",
    "marginal.evals_per_step": "1/step",
    "marginal.self_s": "s",
    "deployment.calls": "count",
    "deployment.self_s": "s",
    "gpi.s": "s",
    "gpi.self_s": "s",
    "gpi.paths": "count",
    "scm.s": "s",
    "scm.self_s": "s",
    "scm.maneuvers": "count",
    "scm.batch_slots": "count",
    "estimator.queries": "count",
    "estimator.self_s": "s",
    "estimator.full_pass_ratio": "ratio",
    "delta.evals": "count",
    "delta.self_s": "s",
    "delta.eval_self_s": "s",
    "delta.dirty_fraction": "ratio",
    "delta.splices": "count",
    "delta.splice_s": "s",
    "delta.snapshot_passes": "count",
    "engine.full_passes": "count",
    "engine.crossing_s": "s",
    "kernel.instrumented_calls": "count",
    "kernel.instrumented_s": "s",
    "kernel.block_calls": "count",
    "kernel.block_s": "s",
    "kernel.us_per_call": "us",
    "pool.tasks": "count",
    "pool.self_s": "s",
    "pool.wait_s": "s",
    "pool.wait_fraction": "ratio",
    "shm.publishes": "count",
    "shm.attaches": "count",
    "shm.attach_s": "s",
    "shm.self_s": "s",
    "events.apply_s": "s",
    "events.self_s": "s",
    "reconcile.s": "s",
    "reconcile.self_s": "s",
    "reconcile.dirty_fraction": "ratio",
    "service.self_s": "s",
    "service.whatif_self_s": "s",
    "service.events_self_s": "s",
    "service.splice_answers": "count",
    "service.warm_answers": "count",
    "service.whatif_p50_ms": "ms",
    "service.whatif_p99_ms": "ms",
    "service.events_p50_ms": "ms",
    "service.events_p90_ms": "ms",
    "service.requests_per_s": "1/s",
    "service.warm_solve_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Counts that must repeat exactly for a fixed seed (determinism check).
DETERMINISTIC_COUNTS = (
    "investment.steps", "marginal.coupon_evals", "marginal.seed_evals",
    "marginal.evals_per_step", "delta.evals", "delta.splices",
    "delta.snapshot_passes", "engine.full_passes",
    "kernel.instrumented_calls", "kernel.block_calls", "pool.tasks",
    "gpi.paths", "scm.maneuvers", "scm.batch_slots", "estimator.queries",
    "reconcile.dirty_fraction", "delta.dirty_fraction",
)


def _length(result, args) -> int:
    return len(result)


def _second_length(result, args) -> int:
    return len(args[1])


def _dirty_worlds(result, args) -> int:
    """Worlds a delta evaluation re-simulated (all of them on a fallback)."""
    if result.dirty_worlds is None:
        return args[0].engine.num_worlds
    return len(result.dirty_worlds)


def _iterations(result, args) -> int:
    return result.iterations


def _maneuvers(result, args) -> int:
    return len(result.operations)


def _reconciled(result, args) -> int:
    return result.dirty_worlds


def _spliced(result, args) -> int:
    return 1 if result["answered_by"] == "delta-splice" else 0


def targets() -> List[Tuple[object, str, str, object]]:
    """``(owner, attribute, span name, count)`` for every traced entry point.

    Imported lazily: the benchmark puts the checkout's ``src`` on the path
    before calling this.
    """
    from repro.core import deployment, guaranteed_paths, investment, maneuver
    from repro.core import marginal, s3ca
    from repro.diffusion import delta, engine, estimator, kernels, monte_carlo
    from repro.diffusion import parallel, reconcile, world_store
    from repro.graph import social_graph
    from repro.server import service
    from repro.utils import shm

    spec = [
        ("investment", investment.InvestmentDeployment, [
            ("run", _iterations), ("build_pivot_queue", None)]),
        ("marginal", marginal.MarginalRedemption, [
            ("set_base", None), ("advance_base", None),
            ("advance_base_seed", None), ("of_new_seed", None),
            ("of_extra_coupon", None), ("of_extra_coupons", None)]),
        # Deployment operations, not their accessors: wrapping every
        # property and constructor would cost more than the calls themselves.
        ("deployment", deployment.Deployment, [
            ("key", None), ("node_sc_cost", None), ("total_cost", None),
            ("expected_benefit", None), ("redemption_rate", None),
            ("fits_budget", None), ("copy", None), ("with_seed", None),
            ("with_extra_coupon", None), ("with_coupons_retrieved", None)]),
        # S3CA binds the GPI entry point by name: wrap the alias too.
        ("gpi", guaranteed_paths, [("identify_guaranteed_paths", _length)]),
        ("gpi", s3ca, [("identify_guaranteed_paths", _length)]),
        ("scm", maneuver.SCManeuver, [("run", _maneuvers)]),
        ("estimator", monte_carlo.MonteCarloEstimator, [
            ("expected_benefit", None), ("submit_many", _second_length),
            ("activation_probabilities", None), ("expected_spreads", None),
            ("expected_activations_and_benefit", None), ("snapshot_base", None),
            ("advance_base", None), ("advance_base_new_seed", None),
            ("delta_extra_coupon", None), ("delta_new_seed", None),
            ("refresh_delta_benefit", None), ("coupon_dirty_worlds", None),
            ("ingest_events", None), ("clear_cache", None)]),
        ("estimator", estimator.BenefitEstimator, [
            ("plan", None), ("expected_benefits", None),
            ("expected_spread", None), ("likely_activated", None)]),
        ("estimator", estimator.EvaluationPlan, [
            ("add", None), ("execute", None)]),
        ("delta", delta.DeltaCascadeEngine, [
            ("snapshot", None), ("eval_extra_coupon", _dirty_worlds),
            ("eval_new_seed", _dirty_worlds), ("refresh_benefit", None),
            ("splice_base", None), ("splice_base_new_seed", None),
            ("coupon_dirty_worlds", None)]),
        ("engine", engine.CompiledCascadeEngine, [
            ("run", None), ("submit", None), ("cascade_world", None),
            ("cascade_world_instrumented", None),
            ("cascade_worlds_instrumented", None)]),
        ("engine", engine.PendingRun, [("result", None)]),
        ("kernel", kernels.CascadeKernel, [
            ("cascade_block", None), ("cascade_world_instrumented", None)]),
        ("pool", parallel.SharedShardPool, [
            ("register", None), ("release", None),
            ("imap_unordered", _second_length)]),
        ("pool", parallel.ShardExecutor, [("submit", None)]),
        ("pool", parallel.PendingCounts, [("result", None)]),
        ("shm", shm, [("create_segment", None), ("attach_segment", None)]),
        ("shm", world_store.SharedBlockStore, [
            ("load", None), ("publish", None)]),
        ("events", social_graph.SocialGraph, [("apply_events", None)]),
        ("reconcile", monte_carlo.MonteCarloEstimator, [
            ("reconcile", _reconciled)]),
        # The estimator binds dirty_world_mask by name: wrap the alias too.
        ("reconcile", monte_carlo, [("dirty_world_mask", None)]),
        ("reconcile", reconcile, [
            ("dirty_world_mask", None), ("reconcile_snapshot", None)]),
        ("reconcile", delta.DeltaCascadeEngine, [("reconcile", None)]),
        ("reconcile", engine.CompiledCascadeEngine, [("apply_events", None)]),
        ("service", service.CampaignService, [
            ("register_scenario", None), ("enqueue_solve", None),
            ("whatif", _spliced), ("apply_events", None)]),
    ]
    result = []
    for layer, owner, attributes in spec:
        owner_name = getattr(owner, "__qualname__", None) or owner.__name__.rsplit(".", 1)[-1]
        for attribute, count in attributes:
            result.append((owner, attribute, f"{layer}/{owner_name}.{attribute}", count))
    return result


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


def _layer_sum(stats: Stats, column: int, layer: str) -> float:
    return sum(entry[column] for name, entry in stats.items() if layer_of(name) == layer)


def _named(stats: Stats, *names: str, column: int = CALLS) -> float:
    return sum(stats[name][column] for name in names if name in stats)


def self_times(stats: Stats) -> Dict[str, float]:
    """Self seconds per layer, plus the operation spans' own remainder."""
    table = {layer: 0.0 for layer in LAYERS + (OP_LAYER,)}
    for name, entry in stats.items():
        layer = layer_of(name)
        table[layer] = table.get(layer, 0.0) + entry[SELF]
    return table


def _scm_batch_slots(tracer: Tracer) -> int:
    """Deployments submitted through ``submit_many`` while SCM was running."""
    names = {}
    parents = {}
    for span in tracer.spans:
        names[span[0]] = span[1]
        parents[span[0]] = span[4]
    submit = "estimator/MonteCarloEstimator.submit_many"
    scm = "scm/SCManeuver.run"
    slots = 0
    for span in tracer.spans:
        if span[1] != submit:
            continue
        parent = span[4]
        while parent is not None:
            if names.get(parent) == scm:
                slots += span[6]
                break
            parent = parents.get(parent)
    return slots


def _outermost(tracer: Tracer, layer: str) -> int:
    """Calls into ``layer`` not made from inside the same layer."""
    names = {span[0]: span[1] for span in tracer.spans}
    return sum(
        1 for span in tracer.spans
        if layer_of(span[1]) == layer
        and (span[4] is None or layer_of(names.get(span[4], "")) != layer)
    )


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def derive(tracer: Tracer, *, num_worlds: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the recorded spans.

    ``extra`` supplies what is measured outside the spans (set-up phases,
    untraced request latencies, trace overhead); missing entries read 0.
    """
    stats = tracer.aggregate()
    selfs = self_times(stats)
    wall = _layer_sum(stats, TOTAL, OP_LAYER)
    steps = _named(stats, "investment/InvestmentDeployment.run", column=COUNT)
    coupon_evals = _named(stats, "marginal/MarginalRedemption.of_extra_coupon")
    seed_evals = _named(stats, "marginal/MarginalRedemption.of_new_seed")
    delta_evals = ("delta/DeltaCascadeEngine.eval_extra_coupon",
                   "delta/DeltaCascadeEngine.eval_new_seed")
    n_delta = _named(stats, *delta_evals)
    dirty = _named(stats, *delta_evals, column=COUNT)
    splices = ("delta/DeltaCascadeEngine.splice_base",
               "delta/DeltaCascadeEngine.splice_base_new_seed")
    full_passes = _named(stats, "engine/CompiledCascadeEngine.submit")
    benefit_queries = (
        _named(stats, "estimator/MonteCarloEstimator.expected_benefit",
               "estimator/MonteCarloEstimator.activation_probabilities")
        + _named(stats, "estimator/MonteCarloEstimator.submit_many", column=COUNT)
    )
    instrumented = "kernel/CascadeKernel.cascade_world_instrumented"
    block = "kernel/CascadeKernel.cascade_block"
    kernel_calls = _named(stats, instrumented, block)
    kernel_s = _named(stats, instrumented, block, column=TOTAL)
    wait_s = _named(stats, "pool/PendingCounts.result", column=TOTAL)
    reconciles = _named(stats, "reconcile/MonteCarloEstimator.reconcile")
    reconciled_worlds = _named(stats, "reconcile/MonteCarloEstimator.reconcile", column=COUNT)
    whatif = "service/CampaignService.whatif"
    whatifs = _named(stats, whatif)
    spliced = _named(stats, whatif, column=COUNT)
    gpi_names = ("gpi/guaranteed_paths.identify_guaranteed_paths",
                 "gpi/s3ca.identify_guaranteed_paths")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "investment.s": _named(stats, "investment/InvestmentDeployment.run", column=TOTAL),
        "investment.self_s": selfs["investment"],
        "investment.pivot_queue_s": _named(
            stats, "investment/InvestmentDeployment.build_pivot_queue", column=TOTAL),
        "investment.steps": steps,
        "marginal.coupon_evals": coupon_evals,
        "marginal.seed_evals": seed_evals,
        "marginal.evals_per_step": ratio(coupon_evals + seed_evals, steps),
        "marginal.self_s": selfs["marginal"],
        "deployment.calls": _layer_sum(stats, CALLS, "deployment"),
        "deployment.self_s": selfs["deployment"],
        # Each GPI call records one span, under the name of whichever binding
        # the caller used, so the two names add up.
        "gpi.s": _named(stats, *gpi_names, column=TOTAL),
        "gpi.self_s": selfs["gpi"],
        "gpi.paths": _named(stats, *gpi_names, column=COUNT),
        "scm.s": _named(stats, "scm/SCManeuver.run", column=TOTAL),
        "scm.self_s": selfs["scm"],
        "scm.maneuvers": _named(stats, "scm/SCManeuver.run", column=COUNT),
        "scm.batch_slots": _scm_batch_slots(tracer),
        "estimator.queries": _outermost(tracer, "estimator"),
        "estimator.self_s": selfs["estimator"],
        "estimator.full_pass_ratio": ratio(full_passes, benefit_queries),
        "delta.evals": n_delta,
        "delta.self_s": selfs["delta"],
        "delta.eval_self_s": _named(stats, *delta_evals, column=SELF),
        "delta.dirty_fraction": ratio(dirty, n_delta * num_worlds),
        "delta.splices": _named(stats, *splices),
        "delta.splice_s": _named(stats, *splices, column=TOTAL),
        "delta.snapshot_passes": _named(stats, "delta/DeltaCascadeEngine.snapshot"),
        "engine.full_passes": full_passes,
        "engine.crossing_s": selfs["engine"],
        "kernel.instrumented_calls": _named(stats, instrumented),
        "kernel.instrumented_s": _named(stats, instrumented, column=TOTAL),
        "kernel.block_calls": _named(stats, block),
        "kernel.block_s": _named(stats, block, column=TOTAL),
        "kernel.us_per_call": ratio(kernel_s * 1e6, kernel_calls),
        "pool.tasks": _named(stats, "pool/SharedShardPool.imap_unordered", column=COUNT),
        "pool.self_s": selfs["pool"],
        "pool.wait_s": wait_s,
        "pool.wait_fraction": ratio(wait_s, wall),
        "shm.publishes": _named(stats, "shm/shm.create_segment"),
        "shm.attaches": _named(stats, "shm/shm.attach_segment"),
        "shm.attach_s": _named(stats, "shm/shm.attach_segment", column=TOTAL),
        "shm.self_s": selfs["shm"],
        "events.apply_s": _named(stats, "events/SocialGraph.apply_events", column=TOTAL),
        "events.self_s": selfs["events"],
        "reconcile.s": _named(stats, "reconcile/MonteCarloEstimator.reconcile", column=TOTAL),
        "reconcile.self_s": selfs["reconcile"],
        "reconcile.dirty_fraction": ratio(reconciled_worlds, reconciles * num_worlds),
        "service.self_s": selfs["service"],
        "service.whatif_self_s": _named(stats, whatif, column=SELF),
        "service.events_self_s": _named(
            stats, "service/CampaignService.apply_events", column=SELF),
        "service.splice_answers": spliced,
        "service.warm_answers": whatifs - spliced,
        "trace.wall_s": wall,
        "trace.unattributed_s": selfs[OP_LAYER],
        "trace.spans": len(tracer.spans),
    }
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = float(extra.get(name, 0.0))
    return {name: metrics[name] for name in PER_LAYER}


def attribution_gap(tracer: Tracer) -> float:
    """Traced wall time minus (layer self times + unattributed); ~0."""
    stats = tracer.aggregate()
    return _layer_sum(stats, TOTAL, OP_LAYER) - sum(self_times(stats).values())
