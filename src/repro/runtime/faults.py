"""Fault-injection fabric and adversarial-schedule checker for SimMPI.

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

:func:`adversarial_check`
    Replays every enumerated placement under randomized message orderings
    and asserts the results are bit-identical to the in-order run —
    tag-based matching must make the exchanges order-independent (the
    matched-communication property that MP-net-style formal models check,
    here established by brute execution).  ``python -m
    repro.runtime.faults`` runs it over the fig-9/10 corpus (TESTIV); the
    CI ``fault-matrix`` job does so at 4 and 32 ranks.

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

import argparse
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


# -- adversarial-schedule checker -------------------------------------------


def envs_bit_identical(a: list[dict], b: list[dict]) -> Optional[str]:
    """None if two per-rank env lists match bit-for-bit, else a description
    of the first divergence.

    Arrays match on shape, dtype and bytes; scalars on type and bytes —
    so ``0.0`` and ``-0.0`` differ, and a NaN equals its own bits.

    >>> envs_bit_identical([{"x": np.array([0.0])}], [{"x": np.array([-0.0])}])
    "rank 0: array 'x' diverges"
    >>> envs_bit_identical([{"x": np.nan}], [{"x": np.nan}]) is None
    True
    """
    if len(a) != len(b):
        return f"rank count differs: {len(a)} vs {len(b)}"
    for r, (ea, eb) in enumerate(zip(a, b)):
        if set(ea) != set(eb):
            return f"rank {r}: variable sets differ"
        for var in sorted(ea):
            va, vb = ea[var], eb[var]
            if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
                va, vb = np.asarray(va), np.asarray(vb)
                if va.shape != vb.shape or va.dtype != vb.dtype \
                        or va.tobytes() != vb.tobytes():
                    return f"rank {r}: array {var!r} diverges"
            elif type(va) is not type(vb) \
                    or np.asarray(va).tobytes() != np.asarray(vb).tobytes():
                return f"rank {r}: scalar {var!r} {va!r} != {vb!r}"
    return None


def adversarial_check(placements, spec, partition, global_values,
                      seeds: tuple[int, ...] = (11, 23, 47),
                      indices: Optional[list[int]] = None) -> list[str]:
    """Replay placements under randomized message orderings.

    For every ranked placement (or the chosen ``indices``), runs the SPMD
    executor once on the perfect fabric and once per seed with a
    reorder-everything :class:`FaultPlan`, and checks the final per-rank
    environments are bit-identical — the tag-matched exchanges must not
    depend on wire arrival order.  Returns a list of failure descriptions
    (empty = all placements order-independent).
    """
    from .executor import SPMDExecutor

    failures: list[str] = []
    chosen = indices if indices is not None \
        else range(len(placements.ranked))
    for idx in chosen:
        rp = placements.ranked[idx]
        base = SPMDExecutor(placements.sub, spec, rp.placement,
                            partition).run(dict(global_values))
        for seed in seeds:
            plan = FaultPlan(rules=[FaultRule(action="reorder")], seed=seed)
            res = SPMDExecutor(placements.sub, spec, rp.placement,
                               partition).run(dict(global_values),
                                              faults=plan)
            diff = envs_bit_identical(base.envs, res.envs)
            if diff is not None:
                failures.append(
                    f"placement #{idx} seed {seed}: {diff}")
            if base.stats.total_words() != res.stats.total_words():
                failures.append(
                    f"placement #{idx} seed {seed}: traffic differs "
                    f"({base.stats.total_words()} vs "
                    f"{res.stats.total_words()} words)")
    return failures


def rebalance_policy(partition, events: tuple[int, ...]):
    """Fixed-plan rebalance for fault harnesses: swap ranks 0<->1.

    Returns a :class:`repro.mesh.migrate.RebalancePolicy` that migrates
    to a rank-0/1 permutation of ``partition`` at each listed collective
    event (consecutive events swap back and forth).  The plan is pinned
    up front — it does not depend on runtime loads — so a fault-free
    baseline and every fault-injected variant migrate **identically**,
    and the harnesses' bit-identity comparisons stay valid under live
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


def soak_check(placements, spec, partition, global_values,
               seeds: tuple[int, ...] = (11, 23, 47),
               prob: float = 0.05,
               indices: Optional[list[int]] = None,
               rebalance: Optional[tuple[int, ...]] = None) -> list[str]:
    """Probabilistic soak: low-rate faults, every seed.

    For each placement and seed, runs the executor under four low-rate
    ``prob=``-thinned fault plans — drop, delay, reorder, corrupt.
    Checks:

    * drop/delay/reorder runs finish **bit-identical** to the fault-free
      baseline (recovery must be invisible);
    * corrupt runs finish and drain (a flipped payload legitimately
      changes values, so only liveness is asserted);
    * one seed-derived kill per placement×seed (alone, and composed with
      low-rate reorder), recovered under **both** recovery modes with a
      sparse checkpoint cadence: global rollback and localized restart
      must both land bit-identical to the fault-free baseline (and hence
      to each other).

    ``rebalance=`` lists collective events at which **every** run —
    the fault-free baseline and each fault-injected variant — performs
    the same fixed-plan migration (:func:`rebalance_policy`), so the
    drop/delay/reorder/kill matrix is exercised while entities are
    moving between ranks; one extra check compares the migrated
    baseline's gathered outputs against a never-migrated run.

    Returns failure descriptions (empty = clean soak).  Unlike
    :func:`adversarial_check` this is sized for a scheduled CI job, not
    a per-PR gate.
    """
    from .executor import SPMDExecutor

    policy = rebalance_policy(partition, tuple(rebalance)) \
        if rebalance else None

    soak_plans = [
        ("drop", [FaultRule(action="drop", prob=prob)], 64),
        ("delay", [FaultRule(action="delay", steps=2, prob=prob)], 64),
        ("reorder", [FaultRule(action="reorder", prob=prob)], 0),
        ("corrupt", [FaultRule(action="corrupt", prob=prob)], 0),
    ]
    failures: list[str] = []
    chosen = indices if indices is not None \
        else range(len(placements.ranked))
    for idx in chosen:
        rp = placements.ranked[idx]

        def execute(plan=None, timeout=0, recovery="global",
                    checkpoint_every=1, policy=policy):
            return SPMDExecutor(placements.sub, spec, rp.placement,
                                partition).run(dict(global_values),
                                               faults=plan,
                                               comm_timeout=timeout,
                                               recovery=recovery,
                                               rebalance=policy,
                                               checkpoint_every=
                                               checkpoint_every)

        base = execute()
        if policy is not None:
            # migration differential: the rank-permutation plan must be
            # invisible in the assembled outputs — compare the migrated
            # baseline's gathers against a never-migrated run
            where = f"placement #{idx} rebalance at {policy.rebalance_at}"
            plain = execute(policy=None)
            if not base.migration or base.migration["epochs"] == 0:
                failures.append(f"{where}: no migration epoch ran")
            for var in sorted(base.envs[0]):
                # scratch scalars (loop counters, local extents) end at
                # rank-local values; only distributed fields must match
                if spec.entity_of_array(var) is None:
                    continue
                if not np.array_equal(base.gather(var), plain.gather(var)):
                    failures.append(f"{where}: gathered {var!r} differs "
                                    f"from the never-migrated run")
        for seed in seeds:
            for kind, rules, timeout in soak_plans:
                where = f"placement #{idx} seed {seed} {kind} prob={prob}"
                plan = FaultPlan(rules=list(rules), seed=seed)
                try:
                    run = execute(plan, timeout)
                except ReproError as exc:
                    failures.append(f"{where}: {exc}")
                    continue
                if kind != "corrupt":
                    diff = envs_bit_identical(base.envs, run.envs)
                    if diff is not None:
                        failures.append(f"{where}: recovery not "
                                        f"bit-identical — {diff}")
            # kill soak: one seed-derived kill, recovered under both
            # modes with a sparse cadence (so localized restart actually
            # replays a multi-event log window), alone and composed with
            # low-rate reorder
            nevents = len(base.timeline.events)
            kill = KillRule(rank=seed % partition.nparts,
                            event=1 + seed % max(1, nevents - 1))
            for kind, rules in (
                    ("kill", []),
                    ("kill+reorder",
                     [FaultRule(action="reorder", prob=prob)])):
                where = (f"placement #{idx} seed {seed} {kind} "
                         f"rank={kill.rank} event={kill.event}")
                recovered = {}
                for mode in ("global", "local"):
                    plan = FaultPlan(rules=list(rules), kills=[kill],
                                     seed=seed)
                    try:
                        recovered[mode] = execute(plan, recovery=mode,
                                                  checkpoint_every=3)
                    except ReproError as exc:
                        failures.append(f"{where} [{mode}]: {exc}")
                if len(recovered) == 2:
                    diff = envs_bit_identical(recovered["global"].envs,
                                              recovered["local"].envs)
                    if diff is not None:
                        failures.append(f"{where}: global vs local "
                                        f"recovery diverge — {diff}")
                for mode, res in recovered.items():
                    diff = envs_bit_identical(base.envs, res.envs)
                    if diff is not None:
                        failures.append(f"{where} [{mode}]: recovery "
                                        f"not bit-identical — {diff}")
    return failures


def kill_check(placements, spec, partition, global_values,
               events: tuple[int, ...] = (1, 3),
               indices: Optional[list[int]] = None,
               rebalance: Optional[tuple[int, ...]] = None) -> list[str]:
    """Deterministic kill sweep recovered under both recovery modes.

    For each chosen placement, kills a spread of ranks (first, middle,
    last) at each requested collective event (clamped to the run's event
    count) and recovers once with ``recovery="global"`` and once with
    ``"local"``, under a sparse checkpoint cadence so localized restart
    actually replays a multi-event message-log window.  Every recovered
    run must be bit-identical to the fault-free baseline.  Sized as a
    per-PR CI gate (the fault-matrix job); :func:`soak_check` carries
    the probabilistic composition with other fault kinds.

    ``rebalance=`` arms the same fixed-plan migration
    (:func:`rebalance_policy`) on the baseline and on every killed run,
    so kills land both before and after a live migration epoch and
    recovery must replay across the epoch boundary.
    """
    from .executor import SPMDExecutor

    policy = rebalance_policy(partition, tuple(rebalance)) \
        if rebalance else None
    failures: list[str] = []
    chosen = indices if indices is not None \
        else range(len(placements.ranked))
    for idx in chosen:
        rp = placements.ranked[idx]

        def execute(plan=None, recovery="global"):
            return SPMDExecutor(placements.sub, spec, rp.placement,
                                partition).run(dict(global_values),
                                               faults=plan,
                                               recovery=recovery,
                                               rebalance=policy,
                                               checkpoint_every=3)

        base = execute()
        nevents = len(base.timeline.events)
        ranks = sorted({0, partition.nparts // 2, partition.nparts - 1})
        for event in sorted({min(e, max(1, nevents - 1)) for e in events}):
            for rank in ranks:
                plan = FaultPlan(kills=[KillRule(rank=rank, event=event)])
                for mode in ("global", "local"):
                    where = (f"placement #{idx} kill rank={rank} "
                             f"event={event} [{mode}]")
                    try:
                        res = execute(plan, recovery=mode)
                    except ReproError as exc:
                        failures.append(f"{where}: {exc}")
                        continue
                    diff = envs_bit_identical(base.envs, res.envs)
                    if diff is not None:
                        failures.append(f"{where}: recovery not "
                                        f"bit-identical — {diff}")
    return failures


def _testiv_problem(mesh_n: int, maxloop: int, seed: int = 0):
    from ..corpus import TESTIV_SOURCE
    from ..mesh import structured_tri_mesh
    from ..placement import enumerate_placements
    from ..spec import spec_for_testiv

    mesh = structured_tri_mesh(mesh_n, mesh_n)
    spec = spec_for_testiv()
    placements = enumerate_placements(TESTIV_SOURCE, spec)
    rng = np.random.default_rng(seed)
    values = {
        "init": rng.standard_normal(mesh.n_nodes),
        "airetri": mesh.triangle_areas,
        "airesom": mesh.node_areas,
        "epsilon": 1e-8,
        "maxloop": maxloop,
    }
    return mesh, spec, placements, values


def main(argv: Optional[list[str]] = None) -> int:
    """CI entry point: adversarial checker over the fig-9/10 corpus."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.runtime.faults",
        description="Replay every enumerated TESTIV placement under "
                    "randomized message orderings and assert the results "
                    "are order-independent.")
    ap.add_argument("--nparts", type=int, nargs="+", default=[4],
                    help="rank counts to check (default: 4)")
    ap.add_argument("--mesh", type=int, default=12,
                    help="structured mesh size N (N×N squares, default 12)")
    ap.add_argument("--maxloop", type=int, default=3,
                    help="TESTIV sweep count (default 3)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 23, 47],
                    help="reorder seeds per placement")
    ap.add_argument("--soak", action="store_true",
                    help="probabilistic soak instead of the adversarial "
                         "reorder sweep: low-rate prob= drop/delay/"
                         "reorder/corrupt plans per seed, checked "
                         "bit-identical to the fault-free run (sized "
                         "for a scheduled CI job)")
    ap.add_argument("--prob", type=float, default=0.05,
                    help="per-message fault probability in --soak mode "
                         "(default 0.05)")
    ap.add_argument("--rebalance", type=int, nargs="*", default=None,
                    metavar="EVENT",
                    help="arm a fixed-plan online rebalance (rank 0<->1 "
                         "swap) at the listed collective events (default: "
                         "event 2) in --soak and --kills modes, so the "
                         "fault matrix is exercised under live entity "
                         "migration")
    ap.add_argument("--kills", action="store_true",
                    help="deterministic kill sweep instead of the "
                         "adversarial reorder sweep: kill first/middle/"
                         "last rank at a spread of events and recover "
                         "under both --recovery modes (global rollback "
                         "and localized restart), checked bit-identical "
                         "to the fault-free baseline")
    args = ap.parse_args(argv)

    from ..mesh import build_partition

    _mesh, spec, placements, values = _testiv_problem(args.mesh,
                                                      args.maxloop)
    rebalance = None
    if args.rebalance is not None:
        rebalance = tuple(args.rebalance) or (2,)
    reb_note = f" under rebalance at {rebalance}" if rebalance else ""
    failures: list[str] = []
    for nparts in args.nparts:
        partition = build_partition(_mesh, nparts, spec.pattern)
        if args.soak:
            found = soak_check(placements, spec, partition, values,
                               seeds=tuple(args.seeds), prob=args.prob,
                               rebalance=rebalance)
            print(f"nparts={nparts}: {len(placements.ranked)} placements x "
                  f"{len(args.seeds)} soak seeds x (4 fault kinds + "
                  f"2 kill plans x 2 recovery modes) "
                  f"(prob={args.prob}){reb_note} — "
                  f"{'OK' if not found else f'{len(found)} FAILURES'}")
        elif args.kills:
            found = kill_check(placements, spec, partition, values,
                               rebalance=rebalance)
            print(f"nparts={nparts}: {len(placements.ranked)} placements, "
                  f"kill sweep x 2 recovery modes{reb_note} — "
                  f"{'OK' if not found else f'{len(found)} FAILURES'}")
        else:
            found = adversarial_check(placements, spec, partition, values,
                                      seeds=tuple(args.seeds))
            print(f"nparts={nparts}: {len(placements.ranked)} placements x "
                  f"{len(args.seeds)} adversarial seeds — "
                  f"{'OK' if not found else f'{len(found)} FAILURES'}")
        failures += [f"nparts={nparts}: {f}" for f in found]
    for f in failures:
        print(f"  FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
