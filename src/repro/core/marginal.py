"""Marginal redemption (MR).

The ID phase of S3CA compares three kinds of investment — starting a new seed,
broadening the current spread, deepening it — by their *marginal redemption*:
the ratio of the expected benefit gained to the expected cost added by the
investment (Sec. IV-A.1).

* For a new seed ``v`` (``γ_v = 1``):
  ``MR = (B(S ∪ v, K) − B(S, K)) / (Cseed(S ∪ v) − Cseed(S))``
* For an extra coupon on ``v`` (``γ_v = 0``):
  ``MR = (B(S, K ∪ v) − B(S, K)) / (Csc(K ∪ v) − Csc(K))``
  where ``K ∪ v`` means ``K`` with ``k_v`` increased by one.

:class:`MarginalRedemption` evaluates both against a base deployment and
returns :class:`MarginalEvaluation` records carrying the benefit and cost
deltas alongside the ratio, so the caller can also perform budget checks
without recomputing anything.

Cost deltas are *canonical*: the denominator is the difference of the changed
node's own cost terms (seed cost, per-node expected SC cost) rather than a
difference of two full deployment sums.  The two are mathematically equal —
the sums telescope — but the canonical form is bit-stable across iterations,
which is what lets the CELF lazy queue in
:mod:`repro.core.investment` reuse priorities without float drift.

Incremental evaluation
----------------------
The estimator alone decides the evaluation path: when its
``supports_incremental`` is true (the default
:class:`~repro.diffusion.monte_carlo.MonteCarloEstimator`), the benefit side
is answered by the
:class:`~repro.diffusion.delta.DeltaCascadeEngine`: the base deployment is
snapshotted once (:meth:`MarginalRedemption.set_base`) and each candidate
re-simulates only the worlds its single-investment change can affect, with
bit-identical results to a full pass; otherwise every candidate is priced by
a full evaluation.  Callers can hand a previous
evaluation's :class:`~repro.diffusion.delta.DeltaOutcome` back through
``reuse`` to skip even the re-simulation when the invalidation rule proves it
still valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.deployment import Deployment
from repro.diffusion.delta import DeltaOutcome
from repro.diffusion.estimator import BenefitEstimator

NodeId = Hashable


@dataclass(frozen=True)
class MarginalEvaluation:
    """Outcome of evaluating one candidate investment.

    Attributes
    ----------
    node:
        The user the investment targets.
    action:
        ``"seed"`` for selecting the node as a new seed, ``"coupon"`` for
        handing it one more social coupon.
    benefit_gain / cost_gain:
        The numerator and denominator of the marginal redemption.
    ratio:
        The marginal redemption itself (``0`` when the cost gain is zero and
        the benefit gain is zero; ``inf`` when benefit is gained for free).
    resulting:
        The deployment that results from applying the investment.
    delta:
        The :class:`DeltaOutcome` behind the benefit, when the incremental
        path was used (``None`` on the full-resimulation path).  Carries the
        re-simulated worlds and touched nodes the lazy greedy queue needs for
        exact cache invalidation.
    """

    node: NodeId
    action: str
    benefit_gain: float
    cost_gain: float
    ratio: float
    resulting: Deployment
    delta: Optional[DeltaOutcome] = None

    @property
    def is_positive(self) -> bool:
        """Whether the investment strictly improves the expected benefit."""
        return self.ratio > 0.0


class MarginalRedemption:
    """Evaluator of marginal redemptions against a base deployment.

    Parameters
    ----------
    estimator:
        The expected-benefit estimator.  Its ``supports_incremental`` decides
        whether the delta path is taken (:attr:`incremental`).
    """

    def __init__(self, estimator: BenefitEstimator) -> None:
        self.estimator = estimator
        self.incremental = bool(getattr(estimator, "supports_incremental", False))

    # ------------------------------------------------------------------

    def set_base(self, base: Deployment) -> float:
        """Declare ``base`` the current base deployment; return its benefit.

        On the incremental path this snapshots the base in the delta engine
        (one instrumented pass, memoising the base's benefit and activation
        probabilities); otherwise it is a plain evaluation.
        """
        if self.incremental:
            return self.estimator.snapshot_base(
                base.seeds, base.allocation.as_dict()
            )
        return base.expected_benefit(self.estimator)

    def advance_base(self, evaluation: "MarginalEvaluation") -> Optional[float]:
        """Advance the base to an accepted evaluation's resulting deployment.

        After the greedy loop accepts a coupon investment, the evaluation's
        :class:`DeltaOutcome` already holds the re-simulated worlds of that
        exact change — so the estimator can *splice* them into its snapshot
        (:meth:`~repro.diffusion.monte_carlo.MonteCarloEstimator.advance_base`)
        instead of paying the O(num_samples) instrumented pass the next
        :meth:`set_base` would otherwise run.  The spliced snapshot is
        bit-identical to a fresh one.  Returns the new base benefit, or
        ``None`` when nothing could be advanced (eager path, seed accepts,
        fallback outcomes) — the next :meth:`set_base` then snapshots as
        before.
        """
        if not self.incremental:
            return None
        outcome = evaluation.delta
        if outcome is None or not outcome.exact or evaluation.action != "coupon":
            return None
        return self.estimator.advance_base(
            outcome,
            evaluation.node,
            evaluation.resulting.seeds,
            evaluation.resulting.allocation.as_dict(),
        )

    def advance_base_seed(self, resulting: Deployment, node: NodeId) -> Optional[float]:
        """Advance the base to an accepted *pivot* (seed) deployment.

        Counterpart of :meth:`advance_base` for seed accepts: the estimator
        delta-evaluates the accepted seed-add against the current base and
        splices it into the snapshot
        (:meth:`~repro.diffusion.monte_carlo.MonteCarloEstimator.advance_base_new_seed`),
        so the next :meth:`set_base` is a no-op instead of an O(num_samples)
        instrumented pass.  Returns the new base benefit, or ``None`` on the
        eager path (the next :meth:`set_base` then evaluates as before).
        """
        if not self.incremental:
            return None
        return self.estimator.advance_base_new_seed(
            node, resulting.seeds, resulting.allocation.as_dict()
        )

    def of_new_seed(
        self,
        base: Deployment,
        node: NodeId,
        *,
        coupons: int = 0,
        base_benefit: Optional[float] = None,
    ) -> MarginalEvaluation:
        """Marginal redemption of adding ``node`` to the seed set.

        ``coupons`` optionally also hands the new seed that many coupons (the
        pivot-queue construction of Alg. 1 evaluates seeds with ``k = 1``);
        the coupon cost is then included in the denominator, mirroring how the
        investment would actually be charged to the budget.
        """
        resulting = base.with_seed(node, coupons=coupons)
        cost_gain = 0.0
        if node not in base.seeds:
            cost_gain += base.graph.seed_cost(node)
        old_coupons = base.allocation.get(node)
        new_coupons = resulting.allocation.get(node)
        if new_coupons != old_coupons:
            cost_gain += base.node_sc_cost(node, new_coupons) - base.node_sc_cost(
                node, old_coupons
            )
        if self.incremental:
            if base_benefit is None:
                base_benefit = self.set_base(base)
            outcome = self.estimator.delta_new_seed(
                base.seeds,
                base.allocation.as_dict(),
                node,
                resulting.seeds,
                resulting.allocation.as_dict(),
            )
            benefit_new = outcome.benefit
        else:
            outcome = None
            if base_benefit is None:
                base_benefit = base.expected_benefit(self.estimator)
            benefit_new = resulting.expected_benefit(self.estimator)
        benefit_gain = benefit_new - base_benefit
        return MarginalEvaluation(
            node=node,
            action="seed",
            benefit_gain=benefit_gain,
            cost_gain=cost_gain,
            ratio=_safe_ratio(benefit_gain, cost_gain),
            resulting=resulting,
            delta=outcome,
        )

    def of_extra_coupon(
        self,
        base: Deployment,
        node: NodeId,
        *,
        base_benefit: Optional[float] = None,
        reuse: Optional[DeltaOutcome] = None,
        refreshed_benefit: Optional[float] = None,
    ) -> Optional[MarginalEvaluation]:
        """Marginal redemption of giving ``node`` one more coupon.

        Returns ``None`` when the node already holds as many coupons as it has
        friends (no further coupon can ever be redeemed).  ``reuse`` may carry
        a previous evaluation's still-valid :class:`DeltaOutcome`; the benefit
        is then re-derived from its count delta without re-simulating anything
        (bit-identical to a fresh evaluation — validity is the caller's
        contract, see the invalidation rule in :mod:`repro.core.investment`).
        A caller that already re-derived the benefit this iteration can hand
        it back via ``refreshed_benefit`` to skip even that splice.
        """
        old_coupons = base.allocation.get(node)
        if old_coupons >= base.graph.out_degree(node):
            return None
        resulting = base.with_extra_coupon(node)
        cost_gain = base.node_sc_cost(node, old_coupons + 1) - base.node_sc_cost(
            node, old_coupons
        )
        if self.incremental:
            if base_benefit is None:
                base_benefit = self.set_base(base)
            if reuse is not None and reuse.exact:
                outcome = reuse
                if refreshed_benefit is not None:
                    benefit_new = refreshed_benefit
                else:
                    benefit_new = self.estimator.refresh_delta_benefit(
                        reuse, resulting.seeds, resulting.allocation.as_dict()
                    )
            else:
                outcome = self.estimator.delta_extra_coupon(
                    base.seeds,
                    base.allocation.as_dict(),
                    node,
                    resulting.seeds,
                    resulting.allocation.as_dict(),
                )
                benefit_new = outcome.benefit
        else:
            outcome = None
            if base_benefit is None:
                base_benefit = base.expected_benefit(self.estimator)
            benefit_new = resulting.expected_benefit(self.estimator)
        benefit_gain = benefit_new - base_benefit
        return MarginalEvaluation(
            node=node,
            action="coupon",
            benefit_gain=benefit_gain,
            cost_gain=cost_gain,
            ratio=_safe_ratio(benefit_gain, cost_gain),
            resulting=resulting,
            delta=outcome,
        )


    def of_extra_coupons(
        self,
        base: Deployment,
        nodes: Sequence[NodeId],
        *,
        base_benefit: Optional[float] = None,
    ) -> List[Optional[MarginalEvaluation]]:
        """Marginal redemptions of one more coupon on each of ``nodes``.

        Batch form of :meth:`of_extra_coupon`, returning one entry per node
        in order (``None`` where the node can hold no further coupon).  On
        the eager (non-incremental) path every base/resulting pair is priced
        through one :class:`~repro.diffusion.estimator.EvaluationPlan`, so a
        parallel estimator pipelines the whole candidate pass instead of
        blocking per candidate; the evaluations — and therefore the selected
        investment — are bit-identical to the one-at-a-time loop.  On the
        incremental path the delta engine answers each candidate in-process
        (re-simulating only its dirty worlds), so the batch simply delegates.
        """
        if self.incremental:
            if base_benefit is None:
                base_benefit = self.set_base(base)
            return [
                self.of_extra_coupon(base, node, base_benefit=base_benefit)
                for node in nodes
            ]
        graph = base.graph
        plan = self.estimator.plan()
        base_slot: Optional[int] = None
        if base_benefit is None:
            base_slot = plan.add(base.seeds, base.allocation.as_dict())
        entries: List[Optional[Tuple[Deployment, float, int]]] = []
        for node in nodes:
            old_coupons = base.allocation.get(node)
            if old_coupons >= graph.out_degree(node):
                entries.append(None)
                continue
            resulting = base.with_extra_coupon(node)
            cost_gain = base.node_sc_cost(node, old_coupons + 1) - base.node_sc_cost(
                node, old_coupons
            )
            slot = plan.add(resulting.seeds, resulting.allocation.as_dict())
            entries.append((resulting, cost_gain, slot))
        plan.execute()
        if base_slot is not None:
            base_benefit = plan.benefit(base_slot)
        evaluations: List[Optional[MarginalEvaluation]] = []
        for node, entry in zip(nodes, entries):
            if entry is None:
                evaluations.append(None)
                continue
            resulting, cost_gain, slot = entry
            benefit_gain = plan.benefit(slot) - base_benefit
            evaluations.append(
                MarginalEvaluation(
                    node=node,
                    action="coupon",
                    benefit_gain=benefit_gain,
                    cost_gain=cost_gain,
                    ratio=_safe_ratio(benefit_gain, cost_gain),
                    resulting=resulting,
                    delta=None,
                )
            )
        return evaluations


def _safe_ratio(benefit_gain: float, cost_gain: float) -> float:
    """Benefit/cost ratio with the conventions used throughout the library.

    A zero-cost investment that gains benefit is infinitely attractive; a
    zero-cost investment that gains nothing is worthless; negative benefit
    gains (possible with Monte-Carlo noise) simply produce negative ratios so
    they lose every comparison.
    """
    if cost_gain <= 0.0:
        if benefit_gain > 0.0:
            return float("inf")
        return 0.0
    return benefit_gain / cost_gain
