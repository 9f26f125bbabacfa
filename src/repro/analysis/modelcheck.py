"""Model checking of MP nets: one FIFO run, carrying vector clocks.

Under Šurkovský's MP-net semantics (arXiv 1903.08252; the nets are
compiled by :mod:`repro.analysis.mpnet`) every ``(src, dst, tag)``
channel has one sender class and one receiver class, so a net is a Kahn
network: sends are buffered and never block, and a receive consumes
only from its own channel.  The sequence of tokens sent on each channel,
and so each channel's token count at every point of each class's
program, is the same in every schedule.  One greedy run with FIFO
channels (:func:`wait_for_analysis`, SimMPI's seq-ordered matching)
therefore decides for every interleaving:

* **deadlock** — the run sticks with classes unfinished.  The blocked
  heads form the tag-level wait-for graph, whose cycle (or never-sent
  message) is the witness, beside the trace of fired transitions;
* **unmatched send** — the run completes with tokens left in channels;
* **nondeterministic receive-match** (CC010) — a channel place is a
  multiset, so a receive may match any token in flight.  Token ``m`` can
  be in flight at the ``k``-th receive on its channel when ``m ≥ k`` and
  its send is not causally after that receive.  The run carries vector
  clocks (a send stamps its sender's clock on the token; a receive
  merges the stamp, then ticks), which makes that a comparison:
  ``send_clock_m[dst] < recv_clock_k[dst]``.  A race is such a token
  whose color differs from the one receive ``k`` expects.

>>> from repro.analysis.mpnet import compile_orders
>>> a, b = ("a", "m"), ("b", "m")
>>> wait_for_analysis(compile_orders([[a, b], [b, a]])).deadlock["kind"]
'cycle'
>>> windows = [[a + ("post",), b + ("post",), a, b]] * 2   # one shared tag
>>> v = wait_for_analysis(compile_orders(windows, tags=[[100] * 4] * 2))
>>> [(r["channel"], r["expected"], r["got"]) for r in v.races]
[([0, 1, 100], 'a/m#0', 'b/m#0'), ([1, 0, 100], 'a/m#0', 'b/m#0')]
>>> v.deadlock is None and not v.unmatched   # FIFO still completes
True
>>> wait_for_analysis(compile_orders(windows)).clean   # one tag per window
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .mpnet import MPNet, SEND


def _op_label(r: int, i: int, op) -> str:
    arrow = f"c{r}→c{op.peer}" if op.kind == SEND else f"c{op.peer}→c{r}"
    return f"c{r}[{i}] {op.kind} {op.color} ({arrow} tag {op.tag})"


@dataclass
class WaitForVerdict:
    """What the run concluded."""

    #: None when every class completed; else {"kind", "cycle", "blocked",
    #: "trace"} — the trace lists the transitions fired before sticking
    deadlock: Optional[dict] = None
    #: receives a token of another color can reach in some schedule
    races: list = field(default_factory=list)
    #: channels with tokens left after completion
    unmatched: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.deadlock is None and not self.races \
            and not self.unmatched


def wait_for_analysis(net: MPNet) -> WaitForVerdict:
    """Greedy FIFO completion with vector clocks; see the module docstring."""
    progs = net.programs
    n = len(progs)
    pcs = [0] * n
    clocks = [[0] * n for _ in range(n)]
    #: channel -> [(color, sender clock, send position)] in send order
    sent: dict[tuple[int, int, int], list] = {}
    #: channel -> [(expected color, receiver tick, position)] in FIFO order
    recvd: dict[tuple[int, int, int], list] = {}
    fired: list[tuple[int, int]] = []
    progress = True
    while progress:
        progress = False
        for r in range(n):
            prog, clock = progs[r], clocks[r]
            while pcs[r] < len(prog):
                op = prog[pcs[r]]
                if op.kind == SEND:
                    sent.setdefault((r, op.peer, op.tag), []).append(
                        (op.color, tuple(clock), pcs[r]))
                else:
                    key = (op.peer, r, op.tag)
                    got = recvd.setdefault(key, [])
                    tokens = sent.get(key, ())
                    if len(got) == len(tokens):
                        break  # channel empty
                    for c, t in enumerate(tokens[len(got)][1]):
                        if t > clock[c]:
                            clock[c] = t
                    clock[r] += 1
                    got.append((op.color, clock[r], pcs[r]))
                fired.append((r, pcs[r]))
                pcs[r] += 1
                progress = True
    verdict = WaitForVerdict()
    reported: set = set()
    for key in sorted(recvd):
        src, dst, _tag = key
        tokens = sent.get(key, ())
        for k, (expected, tick, at) in enumerate(recvd[key]):
            for color, stamp, sent_at in tokens[k:]:
                race = (key, expected, color)
                if color != expected and stamp[dst] < tick \
                        and race not in reported:
                    reported.add(race)
                    verdict.races.append({
                        "class": dst, "channel": list(key),
                        "expected": expected, "got": color,
                        "recv": _op_label(dst, at, progs[dst][at]),
                        "send": _op_label(src, sent_at,
                                          progs[src][sent_at])})
    if all(pcs[r] >= len(progs[r]) for r in range(n)):
        for key in sorted(sent):
            left = sent[key][len(recvd.get(key, ())):]
            if left:
                verdict.unmatched.append({"channel": list(key),
                                          "colors": [t[0] for t in left]})
        return verdict
    # stuck: build the wait-for graph over the blocked heads
    blocked: dict[int, dict] = {}
    for r in range(n):
        if pcs[r] >= len(progs[r]):
            continue
        op = progs[r][pcs[r]]
        key = (op.peer, r, op.tag)
        # who still owes a send into this channel?
        owes = any(o.kind == SEND and (src, o.peer, o.tag) == key
                   for src in range(n)
                   for o in progs[src][pcs[src]:])
        blocked[r] = {"class": r, "channel": list(key),
                      "waiting_for": op.color,
                      "sender_alive": bool(owes)}
    # each blocked class waits on its channel's sender class (if alive)
    edges = {r: info["channel"][0] for r, info in blocked.items()
             if info["sender_alive"] and info["channel"][0] in blocked}
    cycle = None
    for start in sorted(edges):
        seen: list[int] = []
        node = start
        while node in edges and node not in seen:
            seen.append(node)
            node = edges[node]
        if node in seen:
            loop = seen[seen.index(node):]
            cycle = [[blocked[k]["waiting_for"], k] for k in loop]
            break
    kind = "cycle" if cycle else "unmatched-recv"
    verdict.deadlock = {
        "kind": kind, "cycle": cycle,
        "blocked": [blocked[r] for r in sorted(blocked)],
        "trace": [_op_label(r, i, progs[r][i]) for r, i in fired]}
    return verdict
