"""Pydantic request/response schemas of the campaign server.

The schemas are the wire contract shared by both transport adapters
(FastAPI and the Flask fallback): request bodies are validated through
``model_validate`` in one place (:class:`repro.server.app.CampaignApi`), so
the two frameworks cannot drift.  Node identifiers travel as strings — JSON
object keys are strings — and are resolved back to the graph's id space by
the service layer.

This module needs :mod:`pydantic` (part of the optional ``server`` extra);
importing it without pydantic raises an :class:`ImportError` with the
install hint.
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:
    from pydantic import BaseModel, Field, model_validator
except ImportError as _error:  # pragma: no cover - exercised only without extra
    raise ImportError(
        "repro.server needs pydantic; install the server extra: "
        "pip install 's3crm-repro[server]'"
    ) from _error


class RegisterScenarioRequest(BaseModel):
    """Register a dataset stand-in or a SNAP edge-list file as a scenario.

    Exactly one of ``dataset`` (a named Table II stand-in) or ``snap_path``
    (a server-side SNAP-style edge-list file, ingested through the
    content-addressed memory-mapped CSR cache) must be given.  ``num_samples``
    and ``seed`` default to the server's configuration; they are part of the
    scenario fingerprint, so registering the same inputs twice deduplicates
    onto one resident entry.
    """

    label: Optional[str] = None
    dataset: Optional[str] = None
    snap_path: Optional[str] = None
    scale: float = Field(default=0.15, gt=0)
    budget: Optional[float] = Field(default=None, gt=0)
    lam: float = Field(default=1.0, gt=0)
    kappa: float = Field(default=10.0, gt=0)
    seed: Optional[int] = None
    num_samples: Optional[int] = Field(default=None, gt=0)

    @model_validator(mode="after")
    def _exactly_one_source(self) -> "RegisterScenarioRequest":
        if (self.dataset is None) == (self.snap_path is None):
            raise ValueError("give exactly one of 'dataset' or 'snap_path'")
        return self


class SolveRequest(BaseModel):
    """Enqueue one S3CA solve of a registered scenario."""

    candidate_limit: Optional[int] = Field(default=8, gt=0)
    pivot_limit: Optional[int] = Field(default=20, gt=0)
    spend_full_budget: bool = False


#: Wire names of the graph event types, matching
#: :meth:`repro.graph.events.GraphEventBatch.from_payloads`.
_EDGE_EVENTS = ("edge_add", "edge_drop", "edge_reweight")
_NODE_EVENTS = ("node_add", "node_retire")


class GraphEventModel(BaseModel):
    """One typed graph mutation inside a :class:`GraphEventsRequest`.

    The ``type`` discriminator selects which fields are required:

    * ``edge_add`` / ``edge_reweight`` — ``source``, ``target`` and a
      ``probability`` in ``[0, 1]``; self-loop adds are rejected here rather
      than silently skipped, since a client naming one is confused;
    * ``edge_drop`` — ``source`` and ``target``;
    * ``node_add`` — ``node``, optionally with ``benefit`` / ``seed_cost`` /
      ``sc_cost`` attribute overrides;
    * ``node_retire`` — ``node``.

    Node ids are strings on the wire (like everywhere in the API) and are
    resolved back into the graph's id space by the service layer.
    """

    type: str
    source: Optional[str] = None
    target: Optional[str] = None
    node: Optional[str] = None
    probability: Optional[float] = None
    benefit: Optional[float] = None
    seed_cost: Optional[float] = None
    sc_cost: Optional[float] = None

    @model_validator(mode="after")
    def _shape(self) -> "GraphEventModel":
        if self.type in _EDGE_EVENTS:
            if self.source is None or self.target is None:
                raise ValueError(f"{self.type} needs 'source' and 'target'")
            if self.node is not None:
                raise ValueError(f"{self.type} does not take 'node'")
            if self.type == "edge_drop":
                if self.probability is not None:
                    raise ValueError("edge_drop does not take 'probability'")
            else:
                if self.probability is None:
                    raise ValueError(f"{self.type} needs 'probability'")
                if not 0.0 <= self.probability <= 1.0:
                    raise ValueError(
                        f"probability must be in [0, 1], got {self.probability!r}"
                    )
            if self.type == "edge_add" and self.source == self.target:
                raise ValueError("edge_add source and target must differ")
        elif self.type in _NODE_EVENTS:
            if self.node is None:
                raise ValueError(f"{self.type} needs 'node'")
            if self.source is not None or self.target is not None:
                raise ValueError(f"{self.type} does not take 'source'/'target'")
            if self.type == "node_retire" and any(
                value is not None
                for value in (self.benefit, self.seed_cost, self.sc_cost)
            ):
                raise ValueError("node_retire does not take attribute fields")
        else:
            raise ValueError(
                f"unknown event type {self.type!r}; expected one of "
                f"{', '.join(_EDGE_EVENTS + _NODE_EVENTS)}"
            )
        return self


class GraphEventsRequest(BaseModel):
    """A batch of graph mutations for ``POST /scenarios/{id}/events``.

    The whole batch applies atomically: the graph evolves once, the resident
    estimator reconciles once, and only the worlds whose live-edge draws
    touch a changed edge are re-simulated.
    """

    events: List[GraphEventModel] = Field(min_length=1)


class WhatIfRequest(BaseModel):
    """A what-if query against the scenario's last completed solve.

    ``extra_coupons`` adds coupons on top of the solved deployment (answered
    by the delta engine's snapshot/splice path — only the worlds the change
    can affect are re-simulated), ``drop_seeds`` removes seeds from it, and
    ``budget_delta`` shifts the budget the modified deployment is judged
    against.  Node ids are strings (JSON keys); integer-node graphs accept
    their decimal spelling.
    """

    extra_coupons: Dict[str, int] = Field(default_factory=dict)
    drop_seeds: List[str] = Field(default_factory=list)
    budget_delta: float = 0.0

    @model_validator(mode="after")
    def _some_change(self) -> "WhatIfRequest":
        if any(count <= 0 for count in self.extra_coupons.values()):
            raise ValueError("extra_coupons counts must be positive")
        if not self.extra_coupons and not self.drop_seeds and self.budget_delta == 0.0:
            raise ValueError(
                "empty what-if: give extra_coupons, drop_seeds or budget_delta"
            )
        return self
