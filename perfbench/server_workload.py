"""Server workload: an in-process campaign service and one closed-loop client.

The registered scenario is fixed, as a deployed server's is; the benchmark
seed draws the request stream.  A client that waits for every answer sends

* extra-coupon what-ifs (answered by delta snapshot/splice chains),
* seed-drop what-ifs (answered by a warm pass over the resident worlds),
* five-edge event batches (graph recompile plus snapshot reconcile),

in the proportions of ``workloads.json``.  Event batches drop one edge,
re-add the oldest dropped edge and reweight the rest around their original
probabilities, so the graph keeps its size and density however long the run.  The service is driven in-process, so a rewrite
of the HTTP adapter does not change what is measured.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import layers
from tracer import Tracer

#: Every this-many-th what-if of a run is checked against the replay path.
CHECK_EVERY = 150

#: In-process set-ups per run (each includes a cold priming solve);
#: ``setup_s`` is their median.
_SETUP_REPEATS = 3

_SOLVE_TIMEOUT = 170.0


class RequestStream:
    """Deterministic request generator for one seed and one starting graph."""

    def __init__(self, seed: int, mix: Dict, base_seeds: List, base_allocation: Dict,
                 graph) -> None:
        self.rng = np.random.default_rng([seed, 11])
        self.mix = mix
        self.base_seeds = sorted(base_seeds, key=str)
        self.base_allocation = dict(base_allocation)
        # Coupons matter where the cascade reaches: the deployment's holders
        # and their out-neighbours.
        near = set(self.base_seeds) | set(self.base_allocation)
        for node in list(near):
            near.update(graph.out_neighbors(node))
        self.coupon_nodes = sorted(
            (node for node in near if graph.out_degree(node) > 0), key=str
        )
        self.edges: List[Tuple] = sorted(
            ((u, v) for u, v, _ in graph.edges()), key=lambda e: (str(e[0]), str(e[1]))
        )
        self.original = {(u, v): p for u, v, p in graph.edges()}
        self.dropped: deque = deque()

    def next(self) -> Tuple[str, Dict]:
        """``(kind, request fields)``; kinds: extra_coupon, seed_drop, events."""
        draw = self.rng.random()
        if draw < self.mix["extra_coupon"]:
            # Two to four coupon units on one or two holders: every query is
            # a snapshot/splice chain, not a single delta evaluation.
            count = 1 + int(self.rng.integers(2))
            picks = self.rng.choice(len(self.coupon_nodes), size=count, replace=False)
            extra = {
                self.coupon_nodes[int(i)]: 2 if count == 1 else 1 + int(self.rng.integers(2))
                for i in picks
            }
            return "extra_coupon", {"extra_coupons": extra}
        if draw < self.mix["extra_coupon"] + self.mix["seed_drop"]:
            seed = self.base_seeds[int(self.rng.integers(len(self.base_seeds)))]
            return "seed_drop", {"drop_seeds": [seed]}
        return "events", {"events": self._edge_events()}

    def _edge_events(self) -> List[Dict]:
        """Reweights around each edge's original probability, one drop and
        the re-add of the oldest dropped edge: the graph stays stationary, so
        a run's requests cost the same early and late."""
        size = self.mix["events_per_batch"]
        picks = [int(i) for i in self.rng.choice(len(self.edges), size=size - 1, replace=False)]
        events = []
        for position in picks[:-1]:
            u, v = self.edges[position]
            probability = min(1.0, self.original[(u, v)] * float(self.rng.uniform(0.5, 1.5)))
            events.append({"type": "edge_reweight", "source": u, "target": v,
                           "probability": probability})
        drop_at = picks[-1]
        u, v = self.edges[drop_at]
        events.append({"type": "edge_drop", "source": u, "target": v})
        self.dropped.append((u, v))
        if len(self.dropped) > 1:
            readded = self.dropped.popleft()
            events.append({"type": "edge_add", "source": readded[0], "target": readded[1],
                           "probability": self.original[readded]})
            self.edges[drop_at] = readded
        else:
            self.edges[drop_at] = self.edges[-1]
            self.edges.pop()
        return events


def wire(kind: str, fields: Dict):
    """The service's request object (node ids travel as strings)."""
    from repro.server.schemas import GraphEventsRequest, WhatIfRequest

    if kind == "events":
        return GraphEventsRequest(events=[
            {key: (str(value) if key in ("source", "target") else value)
             for key, value in event.items()}
            for event in fields["events"]
        ])
    return WhatIfRequest(
        extra_coupons={str(node): count for node, count in fields.get("extra_coupons", {}).items()},
        drop_seeds=[str(node) for node in fields.get("drop_seeds", [])],
    )


class ServerWorkload:
    def __init__(self, params: Dict, seed: int) -> None:
        self.params = params
        self.seed = seed
        self.spec = params["scenario"]
        self.num_samples = params["solve"]["num_samples"]
        self.problems: List[str] = []
        self.service = None
        self.scenario_id: Optional[str] = None
        self.base: Optional[Dict] = None
        #: Priming solves whose answer failed its check.
        self.failed_solves = 0

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------

    def start(self) -> Dict[str, float]:
        """Service start, register, cold priming solve; returns timings."""
        from repro.diffusion.kernels import reset_kernel_cache
        from repro.experiments.config import ServerConfig
        from repro.server.schemas import RegisterScenarioRequest
        from repro.server.service import CampaignService

        self.close()
        reset_kernel_cache()
        watch = common.Stopwatch()
        self.service = CampaignService(ServerConfig(
            job_workers=1, num_samples=self.num_samples, seed=self.spec["dataset_seed"],
        ))
        info, _ = self.service.register_scenario(RegisterScenarioRequest(
            dataset=self.spec["dataset"], scale=self.spec["scale"],
            lam=self.spec["lam"], kappa=self.spec["kappa"],
            seed=self.spec["dataset_seed"], num_samples=self.num_samples,
        ))
        registered = watch.elapsed()
        self.scenario_id = info["scenario_id"]
        payload, _ = self.solve()
        self.base = payload
        before = len(self.problems)
        self.check_solve(payload)
        self.failed_solves += len(self.problems) > before
        return {
            "setup_s": watch.elapsed(),
            "setup.scenario_s": registered,
            "setup.compile_s": payload["timings"]["graph_compile_seconds"],
            "setup.estimator_s": payload["timings"]["estimator_build_seconds"],
        }

    def setup(self) -> Dict[str, float]:
        return common.median_setup(self.start, _SETUP_REPEATS)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def solve(self) -> Tuple[Dict, float]:
        """One full-budget solve through the job queue, as a client sees it."""
        from repro.server.schemas import SolveRequest

        watch = common.Stopwatch()
        job = self.service.enqueue_solve(
            self.scenario_id,
            SolveRequest(spend_full_budget=self.params["solve"]["spend_full_budget"]),
        )
        done = self.service.jobs.wait(job.job_id, timeout=_SOLVE_TIMEOUT, poll=0.0005)
        seconds = watch.elapsed()
        if done.status != "done":
            raise RuntimeError(f"solve job {done.status}: {done.error}")
        return done.result, seconds

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------

    def _entry(self):
        return self.service.registry.get(self.scenario_id)

    def check_solve(self, payload: Dict) -> None:
        """A priming solve's answer against a cold estimator (no graph event
        has been applied yet, so a fresh estimator sees the same worlds)."""
        from repro.core.deployment import Deployment

        scenario = self._entry().scenario
        graph = scenario.graph
        seeds = [_node(graph, raw) for raw in payload["seeds"]]
        allocation = {_node(graph, raw): count for raw, count in payload["allocation"].items()}
        self.problems.extend(common.check_solution(
            scenario, Deployment(graph, seeds, allocation), payload["expected_benefit"],
            payload["redemption_rate"], payload["total_cost"],
            self.num_samples, self.spec["dataset_seed"],
        ))

    def check_replay(self, samples: List[Tuple], batches: List[List[Dict]]) -> int:
        """Answers given after graph events, against an independent evaluation.

        ``samples`` holds ``(batches applied, label, seeds, allocation,
        answer)``.  The reference replays the run's event batches on a freshly
        built scenario through a fresh non-incremental estimator's public
        event ingestion, then evaluates each sampled deployment with one full
        pass: no delta snapshot, no splice chain, no memo and none of the
        service's resident state is involved.  Returns the number of answers
        that disagree.
        """
        from repro.graph.events import GraphEventBatch

        scenario = common.build_scenario(self.spec)
        estimator = common.cold_estimator(scenario, self.num_samples, self.spec["dataset_seed"])
        applied = wrong = 0
        try:
            for version, label, seeds, allocation, answer in sorted(samples, key=lambda s: s[0]):
                while applied < version:
                    estimator.ingest_events(GraphEventBatch.from_payloads(batches[applied]))
                    applied += 1
                benefit = estimator.expected_benefit(seeds, allocation)
                if benefit != answer:
                    wrong += 1
                    self.problems.append(
                        f"{label} after {version} event batches answered "
                        f"{answer!r}, reference {benefit!r}"
                    )
        finally:
            estimator.close()
        return wrong

    def warm_sample(self, payload: Dict, version: int) -> Tuple:
        """A re-solve's answer as a replay sample, after checking its budget."""
        from repro.core.deployment import Deployment

        entry = self._entry()
        graph = entry.scenario.graph
        seeds = {_node(graph, raw) for raw in payload["seeds"]}
        allocation = {_node(graph, raw): c for raw, c in payload["allocation"].items()}
        deployment = Deployment(graph, seeds, allocation)
        if not deployment.fits_budget(entry.scenario.budget_limit):
            self.problems.append("warm re-solve exceeds the budget")
        if payload["redemption_rate"] != payload["expected_benefit"] / payload["total_cost"]:
            self.problems.append("warm re-solve reports a rate other than benefit/cost")
        return (version, "warm re-solve", seeds, allocation, payload["expected_benefit"])

    # ------------------------------------------------------------------
    # request loop
    # ------------------------------------------------------------------

    def requests(self, seconds: Optional[float], limit: Optional[int],
                 twin: Optional["ServerWorkload"] = None,
                 tracer: Optional[Tracer] = None, targets=()) -> Dict:
        """Closed loop until ``seconds`` pass or ``limit`` requests are sent.

        With a ``twin`` (a second started workload), every request goes to
        this service untraced and then, wrapped and inside a traced
        operation, to the twin's: both see the same machine at the same
        moment, so their difference is the tracing overhead.
        """
        graph = self._entry().scenario.graph
        base_seeds = {_node(graph, raw) for raw in self.base["seeds"]}
        base_allocation = {_node(graph, raw): c for raw, c in self.base["allocation"].items()}
        stream = RequestStream(self.seed, self.params["mix"], base_seeds, base_allocation, graph)
        lanes = [self] if twin is None else [self, twin]
        latencies = [{"whatif": [], "events": []} for _ in lanes]
        answers: List[List[float]] = [[] for _ in lanes]
        samples: List[Tuple] = []
        batches: List[List[Dict]] = []
        failed = sent = whatifs = 0
        watch = common.Stopwatch()
        while True:
            if limit is not None and sent >= limit:
                break
            if seconds is not None and watch.elapsed() >= seconds:
                break
            kind, fields = stream.next()
            request = wire(kind, fields)
            sent += 1
            group = "events" if kind == "events" else "whatif"
            replies = []
            for lane, workload in enumerate(lanes):
                began = common.Stopwatch()
                try:
                    if lane == 0:
                        reply = workload._send(kind, request)
                    else:
                        with tracer.installed(targets):
                            began = common.Stopwatch()
                            with tracer.operation(f"op/{group}", f"request-{sent}"):
                                reply = workload._send(kind, request)
                except Exception:  # the loop must go on and report the failure
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    reply = None
                elapsed = began.elapsed()
                replies.append(reply)
                if reply is not None:
                    latencies[lane][group].append(elapsed)
                    answers[lane].append(
                        reply["solve_benefit"] if group == "events"
                        else reply["modified"]["expected_benefit"]
                    )
            if replies[0] is None:
                continue
            if group == "events":
                batches.append(fields["events"])
                continue
            if whatifs % CHECK_EVERY == 0:
                seeds = base_seeds - set(fields.get("drop_seeds", ()))
                allocation = dict(base_allocation)
                for node, count in fields.get("extra_coupons", {}).items():
                    allocation[node] = allocation.get(node, 0) + count
                samples.append((len(batches), f"{kind} what-if", seeds, allocation,
                                answers[0][-1]))
            whatifs += 1
        return {
            "seconds": watch.elapsed(), "sent": sent, "failed": failed,
            "latencies": latencies, "answers": answers, "samples": samples,
            "batches": batches,
        }

    def _send(self, kind: str, request) -> Dict:
        if kind == "events":
            return self.service.apply_events(self.scenario_id, request)
        return self.service.whatif(self.scenario_id, request)

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def run(self, seconds: float) -> Dict:
        try:
            setup = self.setup()
            loop = self.requests(seconds, None)
        finally:
            self.close()
        wrong = self.check_replay(loop["samples"], loop["batches"])
        latencies = loop["latencies"][0]["whatif"] + loop["latencies"][0]["events"]
        metrics = {"setup_s": setup["setup_s"]}
        if latencies:
            metrics.update(common.latency_metrics(latencies, loop["seconds"]))
        metrics["peak_rss_mb"] = common.peak_rss_mb(False)
        return {
            "attempted": loop["sent"] + _SETUP_REPEATS,
            "failed": loop["failed"] + wrong + self.failed_solves,
            "metrics": metrics,
        }

    def run_traced(self, seconds: float, trace_path) -> Dict:
        """A fixed request sequence on two services in lockstep, then a warm
        re-solve on each: one untraced, one traced.

        The sequence has a fixed length rather than a duration, so the traced
        counts repeat for a seed.  Both services must give the same answers;
        the untraced one gives the per-kind latencies.
        """
        limit = self.params["trace_requests"]
        targets = layers.targets()
        tracer = Tracer()
        twin = ServerWorkload(self.params, self.seed)
        try:
            setup = self.setup()
            twin.start()
            loop = self.requests(None, limit, twin, tracer, targets)
            plain_warm, plain_warm_s = self.solve()
            warm = self.warm_sample(plain_warm, len(loop["batches"]))
            with tracer.installed(targets):
                with tracer.operation("op/warm_solve", "warm-solve"):
                    marked_warm, marked_warm_s = twin.solve()
        finally:
            self.close()
            twin.close()
        wrong = self.check_replay(loop["samples"] + [warm], loop["batches"])
        plain_answers, marked_answers = loop["answers"]
        if plain_answers != marked_answers:
            self.problems.append("traced requests answered differently")
        if any(plain_warm[key] != marked_warm[key]
               for key in ("seeds", "allocation", "expected_benefit")):
            self.problems.append("traced warm re-solve returned another deployment")
        self.problems.extend(twin.problems)
        gap = layers.attribution_gap(tracer)
        if abs(gap) > 1e-6:
            self.problems.append(f"layer self times miss the wall time by {gap!r} s")
        plain, marked = loop["latencies"]
        busy = sum(plain["whatif"]) + sum(plain["events"])
        extra = {
            "setup.scenario_s": setup["setup.scenario_s"],
            "setup.compile_s": setup["setup.compile_s"],
            "setup.estimator_s": setup["setup.estimator_s"],
            "service.whatif_p50_ms": statistics.median(plain["whatif"]) * 1e3,
            "service.whatif_p99_ms": layers.percentile(plain["whatif"], 0.99) * 1e3,
            "service.events_p50_ms": statistics.median(plain["events"]) * 1e3,
            "service.events_p90_ms": layers.percentile(plain["events"], 0.90) * 1e3,
            "service.requests_per_s": len(plain_answers) / busy,
            "service.warm_solve_s": plain_warm_s,
            "trace.overhead_s": (
                sum(marked["whatif"]) + sum(marked["events"]) + marked_warm_s
                - busy - plain_warm_s
            ),
        }
        metrics = layers.derive(tracer, num_worlds=self.num_samples, extra=extra)
        metrics["investment.explored_nodes"] = marked_warm["explored_nodes"]
        common.write_trace(trace_path, tracer.spans, metrics)
        return {
            "attempted": 2 * (limit + 1) + _SETUP_REPEATS + 1,
            "failed": loop["failed"] + wrong + self.failed_solves + twin.failed_solves,
            "metrics": metrics,
        }


def _node(graph, raw: str):
    """Wire id back to the graph's id space (integer ids travel as strings)."""
    if raw in graph:
        return raw
    return int(raw)
