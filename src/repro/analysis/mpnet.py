"""MP-net export: placed schedules as place/transition nets.

The paper argues communication placement can be *proven* safe before a
run; this module gives that argument a formal object.  Following the
MP-net construction of Šurkovský (arXiv 1903.08252, "MPI communication
as Petri nets"), a placed schedule — the per-rank-class sequence of
collective events a :class:`~repro.placement.comms.Placement` commits
to — compiles into a colored place/transition net:

* one **control place** per (class, program position) holding the
  class's single control token;
* one **channel place** per ``(src, dst, tag)`` holding the colored
  message tokens currently in flight on that channel (a Petri-net place
  is a *multiset*: tokens in a channel are deliberately unordered, so
  two in-flight messages on one channel make the receive match
  schedule-dependent — exactly the CC010 hazard);
* one **transition** per micro-operation: a ``send`` consumes its
  control token and deposits a colored token into the channel place
  (SimMPI sends are buffered — the transition is never blocked by a
  peer); a ``recv`` consumes its control token *and* one token from the
  channel place (any color: matching is by ``(src, tag)`` only, as in
  :meth:`repro.runtime.simmpi.RankView.recv`).

Net construction rules (documented in docs/architecture.md §Formal
schedule models):

* each collective identity expands into a symmetric exchange — every
  class sends one message to every peer, then receives one from every
  peer — unless the event carries explicit ``sends``/``recvs`` class
  lists (one-sided phases, seeded mutations);
* a blocking collective is one event (sends then receives); a
  split-phase window contributes a **post** event (sends only) at its
  post anchor and a **wait** event (receives only) at its wait anchor,
  sharing one tag — posts can never block, which is what makes
  cross-side post reordering safe where blocking reordering deadlocks;
* token **colors** name the logical message ``ident#instance`` so the
  checkers can tell *which* collective's payload a receive actually
  matched;
* **tags** come from :func:`assign_tags`: ``mode="static"`` gives every
  (identity, instance) one tag shared by all classes — the aligned
  allocation a correct run of :func:`repro.runtime.simmpi.SimComm.fresh_tag`
  produces; ``mode="counter"`` draws tags from a per-class counter in
  event order — the runtime's actual allocator, whose counters *skew*
  when rank classes execute collectives in different orders.  The skew
  mode is the tag-level fault model order-level analysis cannot see.

Serialization: :meth:`MPNet.to_json` (stable, sorted) and
:meth:`MPNet.to_dot` (Graphviz, channel places as ellipses, transitions
as boxes).  The model checker over this net lives in
:mod:`repro.analysis.modelcheck`.

>>> net = compile_orders([[("u", "overlap")], [("u", "overlap")]])
>>> net.nclasses, len(net.programs[0])
(2, 2)
>>> [op.kind for op in net.programs[0]]
['send', 'recv']
>>> sorted(net.channels())
[(0, 1, 100), (1, 0, 100)]
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..placement.comms import BLOCK, POST, WAIT, placed_schedule

#: one micro-operation = one net transition.  ``peer`` is the dst class
#: for a send, the src class for a recv; ``color`` the logical message.
MicroOp = namedtuple("MicroOp", "kind peer tag color")

SEND = "send"
RECV = "recv"

#: first tag the static assigner hands out (matches the replay harness;
#: SimComm's fresh_tag starts above every static tag)
TAG_BASE = 100

#: event actions: a placed schedule's phases
A_BLOCK, A_POST, A_WAIT = BLOCK, POST, WAIT


def ident_str(ident) -> str:
    """Canonical rendering of a collective identity (tuple or string)."""
    if isinstance(ident, tuple):
        return "/".join(str(x) for x in ident)
    return str(ident)


@dataclass(frozen=True)
class CommEvent:
    """One collective event in a rank class's schedule.

    ``ident`` is the collective identity (e.g. ``("u", "overlap-som")``),
    ``action`` one of ``"block"`` / ``"post"`` / ``"wait"``.  ``sends``
    and ``recvs`` restrict the exchange to explicit peer class lists
    (``None`` = every other class, the conservative symmetric model).
    """

    ident: object
    action: str = A_BLOCK
    sends: Optional[tuple[int, ...]] = None
    recvs: Optional[tuple[int, ...]] = None

    @property
    def label(self) -> str:
        tail = f":{self.action}" if self.action != A_BLOCK else ""
        return ident_str(self.ident) + tail


def _is_post_ident(ident) -> bool:
    if isinstance(ident, tuple):
        return bool(ident) and ident[-1] == "post"
    return isinstance(ident, str) and ident.endswith("/post")


def _strip_post(ident):
    if isinstance(ident, tuple):
        return ident[:-1]
    return ident[: -len("/post")]


def events_from_orders(orders: Sequence[Sequence]) -> list[list[CommEvent]]:
    """Identity-level per-class orders → per-class :class:`CommEvent` lists.

    The input is the vocabulary of commcheck's side analysis
    (:func:`repro.analysis.commcheck._side_events`): a split window's
    post appears as ``ident + ("post",)`` and its wait as the bare
    ident; a bare ident with no open post in the same class is a
    blocking collective.
    """
    out: list[list[CommEvent]] = []
    for order in orders:
        events: list[CommEvent] = []
        open_posts: set = set()
        for ident in order:
            if _is_post_ident(ident):
                base = _strip_post(ident)
                events.append(CommEvent(base, A_POST))
                open_posts.add(ident_str(base))
            elif ident_str(ident) in open_posts:
                events.append(CommEvent(ident, A_WAIT))
                open_posts.discard(ident_str(ident))
            else:
                events.append(CommEvent(ident, A_BLOCK))
        out.append(events)
    return out


def assign_tags(event_lists: Sequence[Sequence[CommEvent]],
                mode: str = "static",
                base: int = TAG_BASE) -> list[list[int]]:
    """Per-class, per-event tag assignment.

    ``mode="static"``: one tag per (identity, instance) shared by every
    class — instance k of a collective carries the same tag everywhere,
    the allocation a correct aligned run produces.  ``mode="counter"``:
    each class draws from its own counter at every tag-allocating event
    (post or blocking; a wait reuses its post's tag) — the runtime
    ``fresh_tag`` twin, whose counters skew under divergent orders.
    """
    if mode not in ("static", "counter"):
        raise ValueError(f"unknown tag mode {mode!r}")
    tags: list[list[int]] = []
    table: dict[tuple, int] = {}
    if mode == "static":
        # deterministic first-appearance scan, class 0 first
        for events in event_lists:
            occ: dict[str, int] = {}
            for ev in events:
                name = ident_str(ev.ident)
                if ev.action == A_WAIT:
                    continue
                k = occ.get(name, 0)
                occ[name] = k + 1
                table.setdefault((name, k), base + len(table))
    for events in event_lists:
        occ = {}
        open_tag: dict[str, int] = {}
        counter = 0
        row: list[int] = []
        for ev in events:
            name = ident_str(ev.ident)
            if ev.action == A_WAIT:
                row.append(open_tag.get(name, base))
                continue
            if mode == "static":
                k = occ.get(name, 0)
                occ[name] = k + 1
                tag = table[(name, k)]
            else:
                tag = base + counter
                counter += 1
            row.append(tag)
            if ev.action == A_POST:
                open_tag[name] = tag
        tags.append(row)
    return tags


@dataclass
class MPNet:
    """A compiled MP net: per-class micro-op programs plus net views.

    ``programs[r]`` is class ``r``'s sequence of :class:`MicroOp`
    transitions; the place/transition view (:meth:`places`,
    :meth:`transitions`, :meth:`to_json`, :meth:`to_dot`) is derived
    from it.  ``meta`` carries provenance (tag mode, source placement).
    """

    programs: list[tuple]
    events: list[list[CommEvent]] = field(default_factory=list)
    tags: list[list[int]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def nclasses(self) -> int:
        return len(self.programs)

    def channels(self) -> set[tuple[int, int, int]]:
        """Every (src, dst, tag) channel place the net can mark."""
        out: set[tuple[int, int, int]] = set()
        for r, prog in enumerate(self.programs):
            for op in prog:
                if op.kind == SEND:
                    out.add((r, op.peer, op.tag))
                else:
                    out.add((op.peer, r, op.tag))
        return out

    def places(self) -> list[dict]:
        out = []
        for r, prog in enumerate(self.programs):
            for i in range(len(prog) + 1):
                out.append({"name": f"ctl:{r}:{i}", "kind": "control",
                            "marking": 1 if i == 0 else 0})
        for (s, d, t) in sorted(self.channels()):
            out.append({"name": f"chan:{s}:{d}:{t}", "kind": "channel",
                        "src": s, "dst": d, "tag": t, "marking": 0})
        return out

    def transitions(self) -> list[dict]:
        out = []
        for r, prog in enumerate(self.programs):
            for i, op in enumerate(prog):
                if op.kind == SEND:
                    chan = f"chan:{r}:{op.peer}:{op.tag}"
                    consume = [f"ctl:{r}:{i}"]
                    produce = [f"ctl:{r}:{i + 1}", f"{chan}<{op.color}>"]
                else:
                    chan = f"chan:{op.peer}:{r}:{op.tag}"
                    consume = [f"ctl:{r}:{i}", f"{chan}<*>"]
                    produce = [f"ctl:{r}:{i + 1}"]
                out.append({"name": f"t:{r}:{i}", "kind": op.kind,
                            "class": r, "peer": op.peer, "tag": op.tag,
                            "color": op.color, "consume": consume,
                            "produce": produce})
        return out

    def to_json(self) -> dict:
        return {
            "format": "mpnet-v1",
            "classes": self.nclasses,
            "events": [[ev.label for ev in events]
                       for events in self.events],
            "tags": [list(row) for row in self.tags],
            "places": self.places(),
            "transitions": self.transitions(),
            "meta": dict(self.meta),
        }

    def to_dot(self, title: str = "mpnet") -> str:
        """Graphviz rendering: channel places ellipses, transitions boxes."""
        lines = [f'digraph "{title}" {{', "  rankdir=LR;",
                 '  node [fontsize=10];']
        for (s, d, t) in sorted(self.channels()):
            lines.append(
                f'  "chan:{s}:{d}:{t}" [shape=ellipse, '
                f'label="{s}→{d}\\ntag {t}"];')
        for tr in self.transitions():
            r, i = tr["class"], tr["name"].split(":")[2]
            color = "#c7e9c0" if tr["kind"] == SEND else "#c6dbef"
            lines.append(
                f'  "{tr["name"]}" [shape=box, style=filled, '
                f'fillcolor="{color}", '
                f'label="c{r}.{i} {tr["kind"]}\\n{tr["color"]}"];')
            if tr["kind"] == SEND:
                chan = f'chan:{tr["class"]}:{tr["peer"]}:{tr["tag"]}'
                lines.append(f'  "{tr["name"]}" -> "{chan}";')
            else:
                chan = f'chan:{tr["peer"]}:{tr["class"]}:{tr["tag"]}'
                lines.append(f'  "{chan}" -> "{tr["name"]}";')
        # control flow within each class
        for r, prog in enumerate(self.programs):
            for i in range(len(prog) - 1):
                lines.append(f'  "t:{r}:{i}" -> "t:{r}:{i + 1}" '
                             f'[style=dashed, color=gray];')
        lines.append("}")
        return "\n".join(lines)


def compile_events(event_lists: Sequence[Sequence[CommEvent]],
                   tags: Optional[Sequence[Sequence[int]]] = None,
                   tag_mode: str = "static",
                   meta: Optional[dict] = None) -> MPNet:
    """Expand per-class events into the micro-op programs of an MP net.

    ``tags`` overrides the per-event tag rows (seeded mutations); by
    default :func:`assign_tags` computes them under ``tag_mode``.
    """
    event_lists = [list(e) for e in event_lists]
    n = len(event_lists)
    explicit_tags = tags is not None
    if tags is None:
        tags = assign_tags(event_lists, mode=tag_mode)
    instance: list[dict[str, int]] = [dict() for _ in range(n)]
    open_color: list[dict[str, str]] = [dict() for _ in range(n)]
    programs: list[tuple] = []
    for r, events in enumerate(event_lists):
        ops: list[MicroOp] = []
        for ev, tag in zip(events, tags[r]):
            name = ident_str(ev.ident)
            if ev.action == A_WAIT:
                color = open_color[r].get(name, f"{name}#0")
            else:
                k = instance[r].get(name, 0)
                instance[r][name] = k + 1
                color = f"{name}#{k}"
                if ev.action == A_POST:
                    open_color[r][name] = color
            peers = range(n)
            if ev.action in (A_BLOCK, A_POST):
                dsts = ev.sends if ev.sends is not None else \
                    [p for p in peers if p != r]
                for d in sorted(dsts):
                    ops.append(MicroOp(SEND, d, tag, color))
            if ev.action in (A_BLOCK, A_WAIT):
                srcs = ev.recvs if ev.recvs is not None else \
                    [p for p in peers if p != r]
                for s in sorted(srcs):
                    ops.append(MicroOp(RECV, s, tag, color))
        programs.append(tuple(ops))
    net = MPNet(programs=programs, events=event_lists,
                tags=[list(row) for row in tags],
                meta=dict(meta or {}))
    net.meta.setdefault("tag_mode",
                        "explicit" if explicit_tags else tag_mode)
    return net


def compile_orders(orders: Sequence[Sequence],
                   tags: Optional[Sequence[Sequence[int]]] = None,
                   tag_mode: str = "static",
                   meta: Optional[dict] = None) -> MPNet:
    """Identity-level per-class orders → MP net (events + tags + expand)."""
    events = events_from_orders(orders)
    return compile_events(events, tags=tags, tag_mode=tag_mode, meta=meta)


def compile_placement(sub, placement, nclasses: int = 2,
                      tag_mode: str = "static") -> MPNet:
    """Compile one placed program into its whole-schedule MP net.

    Every rank class executes the same event sequence (rank-divergent
    control flow is the *side* analysis's business — see
    :func:`repro.analysis.commcheck.check_placement`): the placed schedule
    (:func:`~repro.placement.comms.placed_schedule`) with its anchors in
    source order, split windows contributing post and wait events, one
    round per window (loop-carried repetition is schedule-equivalent by
    the CC003 pairing checks).
    """
    schedule = placed_schedule(placement.comms)
    events = [CommEvent((op.var, op.method), phase)
              for anchor in sorted(schedule, key=sub.positions.__getitem__)
              for phase, op in schedule[anchor]]
    event_lists = [list(events) for _ in range(nclasses)]
    return compile_events(event_lists, tag_mode=tag_mode,
                          meta={"source": "placement",
                                "comms": len(placement.comms),
                                "classes": nclasses})
