"""Per-node ingress sequencing for graph topologies.

Two packets arriving at one node at the same simulated instant are a real
tie: the link model delivers each in its own queue event, so which one the
node processes first is decided by event *scheduling history* (sequence
numbers) — an order a sharded run cannot reproduce, because packets injected
across a shard boundary are scheduled at the barrier, not at their original
send time.  One swapped ACK pair is enough to steer a TCP sender onto a
different trajectory and break the byte-for-byte determinism contract of
:mod:`repro.netsim.parallel`.

An :class:`IngressSequencer` removes scheduling history from the tie
entirely.  Deliveries to a node buffer per timestamp instead of invoking the
IP layer directly, and a single end-of-timestamp *drain* — scheduled with
:meth:`~repro.netsim.engine.Simulator.push_late`, so it runs after every
normal event at that instant — hands them to the node in **content-defined
order**: ascending ``(global directed link index, per-link arrival seq)``.
Both the single-process graph build and every shard apply the same rule, so
they agree on tie order by construction.

Why this is safe and exact:

* On a delay > 0 link the delivery event is scheduled strictly before it
  fires, so every same-instant delivery has a smaller sequence number than
  the late drain — all of them buffer before the drain runs, in either
  execution mode.  (Zero-delay links cannot be cut, and locally they keep
  whatever order they had: same-link arrivals are FIFO by construction.)
* The drain's queue position ``(t, LATE + node_rank)`` depends only on the
  node's global declaration index — partition-independent.
* Same-instant drains of *different* nodes commute: each touches only its
  own node's state, and anything a drained packet sends toward another node
  rides a link, which re-sequences it there.
* Per-link arrival order is FIFO (link serialisation is a chain), so the
  per-link counter assigns the same seq to the same packet in every mode.

Dumbbell/channel builds do not use sequencers.  They have no sharded
counterpart, and sequencing would change their result bytes: a sequenced
delivery runs in the late lane, after every normal event at the same
instant, where a channel delivery runs in its own scheduled turn.  Routing
``Channel`` and ``build_dumbbell`` links through sequencers was measured to
keep all 14 preset goldens but to change the ``aggressiveness`` and
``figure6`` smoke-experiment digests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["IngressSequencer"]


class IngressSequencer:
    """Order same-timestamp deliveries to one node by (link, arrival seq)."""

    __slots__ = ("sim", "rank", "receiver", "_buffers", "_pending")

    def __init__(self, sim, rank: int, receiver: Callable) -> None:
        self.sim = sim
        #: Global node declaration index — the drain's tie-break rank among
        #: same-instant drains of other nodes.
        self.rank = rank
        #: The node's real ``ip.receive``.
        self.receiver = receiver
        #: time → [(global directed link index, per-link seq, packet)]
        self._buffers: Dict[float, List[Tuple[int, int, object]]] = {}
        #: Timestamps with a drain already scheduled (one drain per instant).
        self._pending = set()

    def port(self, link_rank: int) -> Callable:
        """A receiver to ``Link.attach`` in place of ``node.ip.receive``.

        ``link_rank`` is the link's global directed index; the closure keeps
        its own per-link arrival counter.
        """
        state = [0]

        def deliver(packet) -> None:
            seq = state[0]
            state[0] = seq + 1
            self._add(self.sim._now, link_rank, seq, packet)

        return deliver

    def inject(self, time: float, link_rank: int, seq: int, packet) -> None:
        """Buffer a cross-shard delivery for ``time`` (a future instant).

        ``seq`` is the sending shard's per-link emission counter — the same
        number the local :meth:`port` counter would have assigned, since
        link emission and delivery are both FIFO.
        """
        self._add(time, link_rank, seq, packet)

    def _add(self, time: float, link_rank: int, seq: int, packet) -> None:
        buffer = self._buffers.get(time)
        if buffer is None:
            self._buffers[time] = [(link_rank, seq, packet)]
        else:
            buffer.append((link_rank, seq, packet))
        if time not in self._pending:
            self._pending.add(time)
            self.sim.push_late(time, self.rank, self._drain, (time,))

    def _drain(self, time: float) -> None:
        self._pending.discard(time)
        entries = self._buffers.pop(time)
        if len(entries) > 1:
            entries.sort(key=_order)
        receiver = self.receiver
        for _link_rank, _seq, packet in entries:
            receiver(packet)


def _order(entry: Tuple[int, int, object]) -> Tuple[int, int]:
    # Never compare the packet slot: (link, seq) is already a total order.
    return (entry[0], entry[1])
