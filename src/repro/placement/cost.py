"""Cost model for ranking placements.

The paper ends section 4 with exactly this trade-off: one solution "has
the advantage of grouping the two main communications, thereby saving an
additional communication overhead", the other "delays one communication so
that the iteration space of some loops may be restricted to the kernel
nodes, saving some instructions on the overlap.  The choice between these
solutions is, for the moment, left to the user."  This model mechanizes
the choice with a classical α–β–γ estimate:

* each communication *site* costs ``alpha`` (latency/overhead) plus
  ``beta`` per transferred value (overlap size, or 1 for scalars);
* adjacent communication sites (same anchor) share a single ``alpha`` —
  the "grouping" saving;
* every loop iteration costs ``gamma`` per statement; OVERLAP domains
  iterate ``(1+overlap_fraction)`` times the kernel count.

Sites inside sequential loops (the goto-100 convergence loop, time-step
loops) are weighted by ``iterations`` per nesting level.

Split-phase windows change the ranking: a communication whose
:class:`~repro.placement.comms.CommOp` carries a widened window hides its
latency ``alpha`` behind the γ-weighted statement executions between the
post and the wait (:func:`_window_steps`), so overlap-aware placements —
same traffic, wider windows — come out strictly cheaper and
:func:`rank_placements` prefers them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from ..errors import ReproError
from ..lang.ast import DoLoop
from ..lang.cfg import CFG, EXIT
from ..automata.automaton import OVERLAP
from .comms import Placement
from .dfg import ValueFlowGraph


@dataclass(frozen=True)
class CostModel:
    """Machine/mesh parameters of the estimate."""

    alpha: float = 100.0          # per communication site (latency, overhead)
    beta: float = 0.05            # per communicated value
    gamma: float = 1.0            # per statement execution
    iterations: float = 50.0      # expected trips of each sequential loop
    kernel_size: float = 1000.0   # kernel entities per processor
    overlap_fraction: float = 0.10  # overlap size relative to kernel
    loss_rate: float = 0.0        # P(message lost) on the reliable fabric

    def __post_init__(self):
        # a NaN or negative price would rank placements by noise
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                ok = isinstance(value, numbers.Real) \
                    and not isinstance(value, bool) \
                    and math.isfinite(value) and value >= 0
            except OverflowError:  # an int too large for a float
                ok = False
            if not ok:
                raise ReproError(f"bad cost model {f.name}: {value!r} "
                                 f"(expected a finite number >= 0)")

    def overlap_size(self) -> float:
        return self.kernel_size * self.overlap_fraction


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized estimate for one placement.

    ``comm_hidden`` is latency hidden inside post→wait windows — already
    subtracted from ``comm_alpha``, reported for inspection only.
    ``comm_fault`` is the expected retransmission cost on a lossy fabric:
    ``E[retransmits] = loss_rate × messages``, each retransmit paying the
    full α–β price again (the reliable-transport retry path cannot hide
    its latency — the receiver is already stalled when it fires).
    """

    comm_alpha: float
    comm_beta: float
    compute: float
    comm_sites: int
    grouped_sites: int
    comm_hidden: float = 0.0
    comm_fault: float = 0.0

    @property
    def total(self) -> float:
        return self.comm_alpha + self.comm_beta + self.compute \
            + self.comm_fault


def _seq_loop_weight(cfg: CFG, vfg: ValueFlowGraph, sid: int,
                     model: CostModel) -> float:
    """iterations^depth over *sequential* natural loops containing sid."""
    weight = 1.0
    for header in cfg.loops_containing(sid):
        if header not in vfg.loops:  # those are the parallel dimension
            weight *= model.iterations
    return weight


def _window_steps(cfg: CFG, vfg: ValueFlowGraph, placement: Placement,
                  model: CostModel, post: int, wait: int) -> float:
    """γ-weighted statement executions inside one post→wait window.

    Counts one execution of the window interior (statement ids between the
    post and the wait, which follow source order): loops whose *header*
    lies inside the window multiply their bodies by the expected trip
    count — ``kernel_size`` (× ``1+overlap_fraction`` for OVERLAP domains)
    for partitioned loops, ``iterations`` for sequential ones.  Loops
    enclosing the whole window do not multiply: they re-execute the window
    and its communication together, which the per-site weight already
    covers.
    """

    def in_window(sid: int) -> bool:
        return sid >= post and (wait == EXIT or sid < wait)

    steps = 0.0
    for sid, st in cfg.nodes.items():
        if isinstance(st, DoLoop) or not in_window(sid):
            continue
        trips = model.gamma
        for lsid in cfg.loops_of.get(sid, []):
            if not in_window(lsid):
                continue
            if lsid in vfg.loops:
                trips *= model.kernel_size
                if placement.domains.get(lsid) == OVERLAP:
                    trips *= 1.0 + model.overlap_fraction
            else:
                trips *= model.iterations
        for header in cfg.loops_containing(sid):
            if isinstance(cfg.nodes.get(header), DoLoop):
                continue  # do loops handled via loops_of above
            if in_window(header):
                trips *= model.iterations
        steps += trips
    return steps


def estimate_cost(vfg: ValueFlowGraph, placement: Placement,
                  model: CostModel = CostModel()) -> CostBreakdown:
    """Estimate the per-processor execution cost of one placement."""
    cfg = vfg.graph.cfg
    # --- communications ---------------------------------------------------
    comm_alpha = 0.0
    comm_beta = 0.0
    comm_hidden = 0.0
    comm_fault = 0.0
    anchors_seen: set[int] = set()
    grouped = 0
    for c in placement.comms:
        w = _seq_loop_weight(cfg, vfg, c.anchor, model)
        site_alpha = 0.0
        if c.anchor in anchors_seen:
            grouped += 1  # shares the latency of an existing site
        else:
            anchors_seen.add(c.anchor)
            site_alpha = model.alpha
        hid = 0.0
        if c.is_split and site_alpha > 0.0:
            hid = min(site_alpha,
                      _window_steps(cfg, vfg, placement, model,
                                    c.post_anchor, c.wait_anchor))
        comm_alpha += (site_alpha - hid) * w
        comm_hidden += hid * w
        volume = 1.0 if c.entity is None else model.overlap_size()
        comm_beta += model.beta * volume * w
        # expected-loss term: each executed message retransmits with
        # probability loss_rate, paying an unhidden alpha + beta again
        comm_fault += model.loss_rate * w * (model.alpha
                                             + model.beta * volume)
    # --- computation -------------------------------------------------------
    compute = 0.0
    for lsid, domain in placement.domains.items():
        loop = cfg.nodes.get(lsid)
        if not isinstance(loop, DoLoop):
            continue
        body_stmts = max(1, len(cfg.loop_interior(lsid)) - 1)
        trips = model.kernel_size
        if domain == OVERLAP:
            trips *= 1.0 + model.overlap_fraction
        w = _seq_loop_weight(cfg, vfg, lsid, model)
        compute += model.gamma * body_stmts * trips * w
    return CostBreakdown(comm_alpha=comm_alpha, comm_beta=comm_beta,
                         compute=compute,
                         comm_sites=len(anchors_seen) + grouped,
                         grouped_sites=grouped,
                         comm_hidden=comm_hidden,
                         comm_fault=comm_fault)


def rank_placements(vfg: ValueFlowGraph, placements: list[Placement],
                    model: CostModel = CostModel()) -> list[tuple[Placement, CostBreakdown]]:
    """Placements with costs, cheapest first (stable for ties)."""
    scored = [(p, estimate_cost(vfg, p, model)) for p in placements]
    scored.sort(key=lambda pc: pc[1].total)
    return scored
