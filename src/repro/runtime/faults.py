"""Fault-injection fabric for SimMPI.

The paper's correctness claim is that the generated placements keep every
rank's communications matched and the overlapped data coherent; a
perfectly reliable FIFO fabric never *tests* that claim.  This module
makes the fabric hostile on demand:

:class:`FaultPlan`
    A declarative, seeded description of what goes wrong — per-(src, dst,
    tag) rules that **drop**, **delay**-by-N-steps, **reorder**,
    **duplicate** or bit-**corrupt** messages, plus **kill** rules that
    take a rank down before a chosen collective event.  Plans parse from a
    compact text form (``repro-place --fault-plan``) so CI matrices and
    bug reports can pin a failure to one line.

:class:`FaultComm`
    A :class:`~repro.runtime.simmpi.SimComm` whose one delivery hook
    applies the plan.  Rule targeting is by (src, dst, tag) only, so a
    wave is split with one boolean-mask pass over the compiled rule
    arrays: messages no *live* rule (one whose ``count`` is not spent)
    targets go on as one wave and only the rest run the per-message
    engine, which delivers waves of one.  Everything is
    deterministic: randomness comes from one seeded generator, delays
    are indexed in fabric steps (one step per receive retry poll), and
    the whole fabric state — clock, the column-array delayed and dropped
    ledgers, per-rule firing counts, RNG state — participates in
    transport snapshots, so a checkpoint replay re-injects exactly the
    same faults.

Recovery (retry/retransmit at the receive, checkpoint replay after a
kill) lives in :mod:`repro.runtime.simmpi`, :mod:`repro.runtime.checkpoint`
and the executor; this module only manufactures the hostility.

>>> plan = FaultPlan.parse("drop src=0 dst=1 count=1; seed=7")
>>> plan.describe()
'seed=7; drop src=0 dst=1 count=1'
>>> comm = FaultComm(2, plan)
>>> comm.view(0).send([1, 2], dest=1)
>>> comm.pending_messages()  # the fabric ate it
0
>>> comm.ledger()["dropped"]
[(0, 1, 0)]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..errors import ReproError
from .ringbuf import _payload_words, _split, wave_of, wave_rows
from .simmpi import SimComm

#: actions a FaultRule may take on a matching message
ACTIONS = ("drop", "delay", "duplicate", "corrupt", "reorder")


@dataclass(frozen=True)
class FaultRule:
    """One thing that goes wrong on the wire.

    ``src``/``dst``/``tag`` of None match any value; ``count`` bounds how
    many messages the rule fires on (-1 = unlimited); ``prob`` thins the
    firing with the plan's seeded RNG; ``steps`` is the delay duration in
    fabric steps for ``delay`` rules.

    >>> FaultRule(action="delay", dst=2, steps=3).describe()
    'delay dst=2 steps=3'
    """

    action: str
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    count: int = -1
    steps: int = 1
    prob: float = 1.0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ReproError(f"unknown fault action {self.action!r} "
                             f"(expected one of {', '.join(ACTIONS)})")
        # a NaN prob fails both comparisons, so it is refused too
        for bad, problem in (
                (not 0.0 <= self.prob <= 1.0, "prob must lie in [0, 1]"),
                (self.count < -1, "count must be >= 0, or -1 for unlimited"),
                (self.steps < 1, f"steps={self.steps} must be >= 1"),
                (any(v is not None and v < 0
                     for v in (self.src, self.dst, self.tag)),
                 "src/dst/tag must be >= 0")):
            if bad:
                raise ReproError(
                    f"bad fault clause {self.describe()!r}: {problem}")

    def matches(self, src: int, dst: int, tag: int) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst)
                and (self.tag is None or self.tag == tag))

    def describe(self) -> str:
        parts = [self.action]
        for name, v in (("src", self.src), ("dst", self.dst),
                        ("tag", self.tag)):
            if v is not None:
                parts.append(f"{name}={v}")
        if self.action == "delay":
            parts.append(f"steps={self.steps}")
        if self.count != -1:
            parts.append(f"count={self.count}")
        if self.prob != 1.0:
            parts.append(f"prob={self.prob}")
        return " ".join(parts)


@dataclass(frozen=True)
class KillRule:
    """Take ``rank`` down just before collective event ``event`` fires."""

    rank: int
    event: int

    def describe(self) -> str:
        return f"kill rank={self.rank} event={self.event}"


@dataclass
class FaultPlan:
    """A deterministic description of every fault one run will suffer."""

    rules: list[FaultRule] = field(default_factory=list)
    kills: list[KillRule] = field(default_factory=list)
    seed: int = 0
    #: whether dropped messages are recoverable: a retrying receive can
    #: trigger a retransmission of the most recently dropped matching
    #: message (a reliable-transport model); False makes drops final
    retransmit: bool = True

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact plan syntax.

        One clause per line or ``;``-separated, e.g.::

            seed=42
            drop src=0 dst=1 tag=101 count=1
            delay dst=2 steps=3
            reorder
            kill rank=2 event=4
            no-retransmit

        >>> FaultPlan.parse("reorder; seed=11").describe()
        'seed=11; reorder'
        """
        plan = cls()
        for raw in text.replace(";", "\n").splitlines():
            clause = raw.split("#", 1)[0].strip()
            if not clause:
                continue
            try:
                plan._add_clause(clause)
            except KeyError as exc:
                raise ReproError(f"bad fault clause {clause!r}: missing "
                                 f"{exc.args[0]}=") from None
            except ValueError as exc:
                raise ReproError(
                    f"bad fault clause {clause!r}: {exc}") from None
        return plan

    def _add_clause(self, clause: str) -> None:
        head, *pairs = clause.split()
        kv: dict[str, str] = {}
        for p in pairs:
            if "=" not in p:
                raise ReproError(
                    f"bad fault clause {clause!r}: expected KEY=VALUE, "
                    f"got {p!r}")
            k, v = p.split("=", 1)
            kv[k.strip()] = v.strip()
        if head.startswith("seed"):
            if "=" in head:
                self.seed = int(head.split("=", 1)[1])
            elif "seed" in kv:
                self.seed = int(kv["seed"])
            else:
                raise ReproError(f"bad seed clause {clause!r}")
        elif head == "no-retransmit":
            self.retransmit = False
        elif head == "kill":
            self.kills.append(KillRule(rank=int(kv["rank"]),
                                       event=int(kv["event"])))
        elif head in ACTIONS:
            self.rules.append(FaultRule(
                action=head,
                src=int(kv["src"]) if "src" in kv else None,
                dst=int(kv["dst"]) if "dst" in kv else None,
                tag=int(kv["tag"]) if "tag" in kv else None,
                count=int(kv.get("count", -1)),
                steps=int(kv.get("steps", 1)),
                prob=float(kv.get("prob", 1.0))))
        else:
            raise ReproError(f"unknown fault clause {head!r}")

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.parse(fh.read())

    def describe(self) -> str:
        clauses = [f"seed={self.seed}"]
        clauses += [r.describe() for r in self.rules]
        clauses += [k.describe() for k in self.kills]
        if not self.retransmit:
            clauses.append("no-retransmit")
        return "; ".join(clauses)


@dataclass
class DroppedMessage:
    """Ledger entry for a message the fabric ate (payload kept for
    retransmission when the plan allows it)."""

    src: int
    dst: int
    tag: int
    payload: Any
    clock: int


def _copy_payload(p: Any) -> Any:
    return p.copy() if isinstance(p, np.ndarray) else p


class FaultComm(SimComm):
    """A SimMPI communicator that injects a :class:`FaultPlan`.

    Deterministic by construction: one seeded RNG drives every
    probabilistic choice, the delay clock advances only through the
    receive retry loop (:meth:`SimComm._recv` → :meth:`_progress`), and
    the full fabric state rides along in transport snapshots so a
    checkpoint replay re-observes bit-identical faults.

    Rule targeting is compiled to int64 arrays (-1 = wildcard, and the
    ``count`` column that retires spent rules); the delayed and dropped
    ledgers are kept column-wise — (src, dst, tag) key rows, due clocks,
    serials — so the release sweep in :meth:`_progress` and the
    retransmit lookup are masked array scans.
    """

    def __init__(self, size: int, plan: FaultPlan):
        super().__init__(size)
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.clock = 0
        # delayed ledger, column-wise: key rows, due clocks, serials,
        # payload side list (aligned by row)
        self._d_key = np.zeros((0, 3), np.int64)
        self._d_due = np.zeros(0, np.int64)
        self._d_serial = np.zeros(0, np.int64)
        self._d_payloads: list[Any] = []
        self._delay_serial = 0
        # dropped ledger, column-wise
        self._x_key = np.zeros((0, 3), np.int64)
        self._x_clock = np.zeros(0, np.int64)
        self._x_payloads: list[Any] = []
        self.corruptions: list[tuple[int, int, int]] = []
        self.duplicates: list[tuple[int, int, int]] = []
        self._fired = np.zeros(len(plan.rules), np.int64)
        # compiled rule targeting (-1 = wildcard) for the batch mask pass
        self._r_src = np.asarray(
            [-1 if r.src is None else r.src for r in plan.rules], np.int64)
        self._r_dst = np.asarray(
            [-1 if r.dst is None else r.dst for r in plan.rules], np.int64)
        self._r_tag = np.asarray(
            [-1 if r.tag is None else r.tag for r in plan.rules], np.int64)
        self._r_count = np.asarray([r.count for r in plan.rules], np.int64)

    @property
    def dropped(self) -> list[DroppedMessage]:
        """The dropped-message ledger as record objects (oldest first)."""
        return [DroppedMessage(src=s, dst=d, tag=t, payload=p, clock=c)
                for (s, d, t), c, p in zip(self._x_key.tolist(),
                                           self._x_clock.tolist(),
                                           self._x_payloads)]

    # -- rule machinery ------------------------------------------------------

    def _fires(self, index: int, rule: FaultRule) -> bool:
        if rule.count >= 0 and self._fired[index] >= rule.count:
            return False
        if rule.prob < 1.0 and self.rng.random() >= rule.prob:
            return False
        self._fired[index] += 1
        return True

    def _deliver(self, srcs: np.ndarray, dsts: np.ndarray, tag: int,
                 block, words: np.ndarray) -> None:
        """Split one wave with a boolean-mask pass over the rule arrays.

        A message's fate depends only on its (src, dst, tag) channel, so
        every message of a channel lands on the same side of the split —
        per-channel FIFO order and the RNG draw sequence are exactly what
        per-message delivery would produce.  Clean messages go on as one
        wave; matched ones run the rule engine in wave order.
        """
        matched = self._match_any(srcs, dsts, tag)
        if matched is None or not matched.any():
            SimComm._deliver(self, srcs, dsts, tag, block, words)
            return
        clean = np.flatnonzero(~matched)
        if clean.size:
            SimComm._deliver(self, srcs[clean], dsts[clean], tag,
                             *wave_rows(block, words, clean))
        payloads = block if isinstance(block, list) else _split(block, words)
        for i in np.flatnonzero(matched).tolist():
            self._apply_rules(int(srcs[i]), int(dsts[i]), tag,
                              _copy_payload(payloads[i]))

    def _deliver_one(self, src: int, dest: int, tag: int,
                     payload: Any) -> None:
        """Put one message on the wire past the rules, as a wave of one."""
        SimComm._deliver(self, np.array([src]), np.array([dest]), tag,
                         *wave_of([payload]))

    def _apply_rules(self, src: int, dest: int, tag: int,
                     payload: Any) -> None:
        """The per-message rule engine: the first firing placement rule
        decides the message's fate; corruption composes with it."""
        for i, rule in enumerate(self.plan.rules):
            if not rule.matches(src, dest, tag):
                continue
            if rule.action == "corrupt":
                if self._fires(i, rule):
                    payload = _corrupt(payload, self.rng)
                    self.corruptions.append((src, dest, tag))
                continue  # corruption composes with a later placement rule
            if not self._fires(i, rule):
                continue
            if rule.action == "drop":
                self._x_key = np.vstack(
                    (self._x_key, [[src, dest, tag]]))
                self._x_clock = np.append(self._x_clock, self.clock)
                self._x_payloads.append(payload)
                return
            if rule.action == "delay":
                self._delay_serial += 1
                self._d_key = np.vstack((self._d_key, [[src, dest, tag]]))
                self._d_due = np.append(self._d_due, self.clock + rule.steps)
                self._d_serial = np.append(self._d_serial,
                                           self._delay_serial)
                self._d_payloads.append(payload)
                return
            if rule.action == "duplicate":
                self._deliver_one(src, dest, tag, payload)
                dup = _copy_payload(payload)
                self.stats.note_batch(np.array([src]), np.array([dest]),
                                      np.array([_payload_words(dup)]))
                self.duplicates.append((src, dest, tag))
                self._deliver_one(src, dest, tag, dup)
                return
            if rule.action == "reorder":
                self._deliver_one(src, dest, tag, payload)
                n = self._transport.count(src, dest, tag)
                if n > 1:
                    pos = int(self.rng.integers(0, n))
                    self._transport.move_last(src, dest, tag, pos)
                return
        else:
            self._deliver_one(src, dest, tag, payload)

    def _match_any(self, srcs: np.ndarray,
                   dsts: np.ndarray, tag: int) -> Optional[np.ndarray]:
        """Which wave messages any *live* rule targets; None when no rule
        is live.  A rule whose ``count`` is spent can never fire again
        (``_fires`` tests the count before any RNG draw); its liveness
        derives from ``_fired``, so a rollback re-arms it."""
        live = (self._r_count < 0) | (self._fired < self._r_count)
        if not live.any():
            return None
        tag_ok = live & ((self._r_tag < 0) | (self._r_tag == tag))
        m = ((self._r_src < 0) | (self._r_src == srcs[:, None])) \
            & ((self._r_dst < 0) | (self._r_dst == dsts[:, None])) \
            & tag_ok
        return m.any(axis=1)

    # -- progress: the fabric moves while a receive retries ------------------

    def _progress(self, key: tuple[int, int, int]) -> bool:
        self.clock += 1
        advanced = False
        if len(self._d_due):
            due = self._d_due <= self.clock
            if due.any():
                idx = np.flatnonzero(due)
                order = np.lexsort((self._d_serial[idx], self._d_due[idx]))
                for i in idx[order].tolist():
                    s, d, t = self._d_key[i].tolist()
                    self._deliver_one(s, d, t, self._d_payloads[i])
                keep = np.flatnonzero(~due)
                self._d_key = self._d_key[keep]
                self._d_due = self._d_due[keep]
                self._d_serial = self._d_serial[keep]
                self._d_payloads = [self._d_payloads[i]
                                    for i in keep.tolist()]
                advanced = True
        if self.plan.retransmit and not self._transport.count(*key):
            advanced = self._retransmit(key) or advanced
        return advanced

    def _retransmit(self, key: tuple[int, int, int]) -> bool:
        """Reliable-transport model: re-inject a dropped message the
        retrying receive is waiting for (masked scan over the ledger)."""
        if not len(self._x_clock):
            return False
        src, dst, tag = key
        k = self._x_key
        hits = np.flatnonzero((k[:, 0] == src) & (k[:, 1] == dst)
                              & (k[:, 2] == tag))
        if not hits.size:
            return False
        i = int(hits[0])  # oldest matching drop goes first
        payload = self._x_payloads.pop(i)
        keep = np.ones(len(self._x_clock), bool)
        keep[i] = False
        self._x_key = k[keep]
        self._x_clock = self._x_clock[keep]
        self._deliver_one(src, dst, tag, payload)
        self.stats.retransmits += 1
        self.stats.retransmit_words += _payload_words(payload)
        return True

    # -- ledger / snapshots --------------------------------------------------

    def ledger(self) -> dict:
        out = super().ledger()
        out["dropped"] = [tuple(row) for row in self._x_key.tolist()]
        out["delayed"] = [(tuple(row), due)
                          for row, due in zip(self._d_key.tolist(),
                                              self._d_due.tolist())]
        return out

    def _ledger_text(self) -> str:
        text = super()._ledger_text()
        if len(self._x_clock):
            text += ("; dropped: " + ", ".join(
                f"{s}->{d} tag={t}"
                for s, d, t in self._x_key[:8].tolist()))
        if len(self._d_due):
            text += f"; {len(self._d_due)} delayed message(s) in flight"
        return text

    def transport_snapshot(self) -> dict:
        """Checkpoint the fabric: ledgers are serialized as their arrays."""
        snap = super().transport_snapshot()
        snap["clock"] = self.clock
        snap["delay_serial"] = self._delay_serial
        snap["delayed"] = (self._d_key.copy(), self._d_due.copy(),
                           self._d_serial.copy(),
                           [_copy_payload(p) for p in self._d_payloads])
        snap["dropped"] = (self._x_key.copy(), self._x_clock.copy(),
                           [_copy_payload(p) for p in self._x_payloads])
        snap["fired"] = self._fired.copy()
        snap["rng_state"] = self.rng.bit_generator.state
        return snap

    def transport_restore(self, snap: dict) -> None:
        super().transport_restore(snap)
        self.clock = snap["clock"]
        self._delay_serial = snap["delay_serial"]
        d_key, d_due, d_serial, d_payloads = snap["delayed"]
        self._d_key = d_key.copy()
        self._d_due = d_due.copy()
        self._d_serial = d_serial.copy()
        self._d_payloads = [_copy_payload(p) for p in d_payloads]
        x_key, x_clock, x_payloads = snap["dropped"]
        self._x_key = x_key.copy()
        self._x_clock = x_clock.copy()
        self._x_payloads = [_copy_payload(p) for p in x_payloads]
        self._fired = snap["fired"].copy()
        self.rng.bit_generator.state = snap["rng_state"]


def _corrupt(payload: Any, rng: np.random.Generator) -> Any:
    """Flip one bit of the payload, deterministically under ``rng``."""
    if isinstance(payload, np.ndarray) and payload.size:
        buf = payload.copy()
        raw = buf.view(np.uint8).reshape(-1)
        raw[int(rng.integers(0, raw.size))] ^= 0x80
        return buf
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, (int, np.integer)):
        return int(payload) ^ (1 << int(rng.integers(0, 16)))
    if isinstance(payload, (float, np.floating)):
        scratch = np.array([payload], dtype=np.float64)
        scratch.view(np.uint8)[int(rng.integers(0, 7))] ^= 0x80
        return float(scratch[0])
    return payload


def make_comm(size: int, plan: Optional[FaultPlan]) -> SimComm:
    """The executor's fabric factory: perfect unless a plan says otherwise.

    >>> type(make_comm(2, None)) is SimComm
    True
    """
    if plan is None:
        return SimComm(size)
    return FaultComm(size, plan)


def rebalance_policy(partition, events: tuple[int, ...]):
    """Fixed-plan rebalance that swaps ranks 0<->1 at the listed events.

    Returns a :class:`repro.mesh.migrate.RebalancePolicy` that migrates
    to a rank-0/1 permutation of ``partition`` at each listed collective
    event (consecutive events swap back and forth).  The plan is pinned
    up front — it does not depend on runtime loads — so a fault-free
    baseline and every fault-injected variant migrate **identically**,
    and bit-identity with the baseline stays a valid check under live
    migration.  ``None`` when the partition has fewer than two ranks.
    """
    from ..mesh.migrate import RebalancePolicy
    from ..mesh.overlap import permute_partition

    if partition.nparts < 2 or not events:
        return None
    perm = list(range(partition.nparts))
    perm[0], perm[1] = perm[1], perm[0]
    swapped = permute_partition(partition, perm)
    plans, cur = {}, partition
    for e in sorted(events):
        cur = swapped if cur is partition else partition
        plans[e] = cur
    return RebalancePolicy(rebalance_at=tuple(sorted(events)),
                           plans=plans)
