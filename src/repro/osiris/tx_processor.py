"""The transmit-side i960 loop.

Section 2.1.1's algorithm, verbatim:

* wait until the transmit queue is not empty
* read the descriptor at ``xmitQueue[tail]``
* transmit the buffer
* increment the tail pointer

extended with everything sections 2.1.2, 2.5 and 3.2 layer on top:
PDUs spanning several descriptors, the transmit-space interrupt (only
when the host found the queue full), DMA-length discipline including
the stop-at-page-boundary continuation, per-channel priorities, and
the ADC page-authorization check.

Two multiplexing disciplines (section 2.5.1):

* **sequential** (default) -- one PDU at a time, maximizing throughput
  to a single application;
* **interleaved** -- one cell from each active PDU in turn ('the host
  could queue a number of packets and the microprocessor could
  transmit one cell from each in turn'), the fine-grained multiplexing
  that favors latency and switch behaviour.

Data fidelity: the AAL5 framing (padding, CRC trailer) is computed by
the cell generator hardware at no modelled cost; the timed part is the
per-cell command issue plus every DMA transaction on the bus.

The loop is a callback state machine, not a generator process: each
wait (queue empty, descriptors still arriving, per-PDU setup, a DMA
read, a credit stall, the per-cell issue time) ends in the bound
method that continues the loop, so a cell costs no process resume.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..analysis.sanitize import maybe_actor
from ..atm.aal5 import SegmentMode, cell_count, encode_pdu
from ..atm.cell import Cell
from ..atm.striping import StripedLink
from ..hw.specs import AAL_PAYLOAD_BYTES
from ..hw.dma import DmaTransaction
from ..sim import Signal, Simulator
from .board import Channel, OsirisBoard
from .descriptors import Descriptor

DeliverFn = Callable[[Cell], None]


class _PduTransmission:
    """Cursor state for one PDU being segmented onto the wire.

    The processor advances it one cell (with any DMA bursts needed to
    gather that cell's payload) at a time, so it can interleave several
    of these at cell granularity.
    """

    def __init__(self, txp: "TxProcessor", channel: Channel,
                 descs: list[Descriptor]):
        self.txp = txp
        self.channel = channel
        self.descs = descs
        self.vci = descs[0].vci
        self.total_len = sum(d.length for d in descs)
        self.n_cells = cell_count(self.total_len)
        self.framed: Optional[bytes] = None
        if txp.board.fidelity.copy_data:
            data = b"".join(
                self._read_buffer(d.addr, d.length) for d in descs)
            self.framed = encode_pdu(data)
        self.seq_base = txp._seq_counters.get(self.vci, 0)
        if txp.segment_mode is SegmentMode.SEQUENCE:
            txp._seq_counters[self.vci] = self.seq_base + self.n_cells
        self.emitted = 0
        # The data walk, advanced by the processor: bytes gathered but
        # not yet emitted, the descriptor being read and the offset
        # into it, and the host bytes still to read.
        self.acc = 0
        self.desc_index = 0
        self.buf_offset = 0
        self.data_left = self.total_len

    def _read_buffer(self, addr: int, length: int) -> bytes:
        """Descriptor contents, translating I/O-virtual addresses
        through the scatter/gather map page by page."""
        memory = self.txp.board.memory
        sgmap = self.txp.board.tx_dma.sgmap
        if sgmap is None or not sgmap.covers(addr):
            return memory.read(addr, length)
        out = bytearray()
        pos = addr
        left = length
        page = sgmap.page_size
        while left > 0:
            take = min(page - (pos % page), left)
            out += memory.read(sgmap.translate(pos), take)
            pos += take
            left -= take
        return bytes(out)

    @property
    def done(self) -> bool:
        return self.emitted >= self.n_cells

    def consume_remaining(self) -> None:
        """Pop any descriptors not consumed by the data walk (empty
        buffers of a degenerate PDU)."""
        while self.desc_index < len(self.descs):
            with maybe_actor("tx-processor"):
                self.channel.tx_queue.pop(by_host=False)
            self.txp._maybe_tx_space_irq(self.channel)
            self.desc_index += 1


class TxProcessor:
    """Transmit processor: drains tx queues into cells on the link.

    One callback state machine serves both disciplines.  Per PDU:
    :meth:`_loop` picks the channel(s), :meth:`_gather` peeks the
    descriptors, :meth:`_begin_pdu` runs after the per-PDU setup time.
    Per cell: :meth:`_step` reads (DMA) until a cell's payload is in,
    :meth:`_next_cell` takes a credit, :meth:`_emit` issues the cell
    after the per-cell time, and :meth:`_cell_done` moves on to the
    next cell, the next channel in the ring, or the top of the loop.
    """

    def __init__(self, sim: Simulator, board: OsirisBoard,
                 link: Optional[StripedLink] = None,
                 deliver: Optional[DeliverFn] = None,
                 segment_mode: SegmentMode = SegmentMode.IN_ORDER,
                 interleave: bool = False):
        if link is None and deliver is None:
            raise ValueError("TxProcessor needs a link or a deliver callback")
        self.sim = sim
        self.board = board
        self.link = link
        self.deliver = deliver
        self.segment_mode = segment_mode
        self.interleave = interleave
        self.work = Signal("tx.work")
        # Optional per-VCI emission gate (duck-typed: anything with a
        # ``try_acquire(vci)`` test and a ``wait(vci, then)`` callback
        # stall, e.g. repro.cluster.backpressure.CreditGate).  The
        # fabric installs one when flow control is on.
        self.credit_gate = None
        self.pdus_sent = 0
        self.cells_sent = 0
        self.violations = 0
        self._seq_counters: dict[int, int] = {}
        self.seq_migrations = 0
        self._last_served = 0
        self._active: dict[int, _PduTransmission] = {}
        # Loop state: the channel being started (and the descriptors
        # peeked so far), the PDU being stepped, the cells its current
        # step may still emit, and the interleaved ring with the next
        # position to serve.
        self._channel: Optional[Channel] = None
        self._descs: list[Descriptor] = []
        self._tx: Optional[_PduTransmission] = None
        self._cells_left = 0
        self._ring: list[Channel] = []
        self._ring_pos = 0
        dma = board.tx_dma
        self._dma = dma
        self._dma_cap = dma.max_bytes or 1 << 30
        self._cell_us = float(board.spec.tx_cell_us)
        for channel in board.channels:
            channel.tx_queue.became_nonempty.subscribe(
                lambda _v: self.work.fire())
        # The first pass is an event of its own; the pinned event
        # schedule counts it.
        sim.call_now(self._loop)

    def migrate_seq(self, old_vci: int, new_vci: int) -> None:
        """Carry a flow's cell sequence numbering to a new VCI (path
        failover).  The receiver's reassembler keys its state by the
        *delivered* VCI, which a reroute never changes, so numbering
        must stay monotone across the retarget -- otherwise every
        post-failover cell reads as a stale duplicate and is dropped.
        A PDU already mid-transmission keeps the old VCI (and the old,
        possibly dead, path); the gap it leaves is ordinary loss to
        the AAL5 layer."""
        self._seq_counters[new_vci] = self._seq_counters.get(old_vci, 0)
        self.seq_migrations += 1

    # -- scheduling -----------------------------------------------------------

    def _ready_channels(self) -> list[Channel]:
        """Channels with queued work or an in-flight transmission."""
        ready = [
            ch for ch in self.board.channels
            if (ch.channel_id == 0 or ch.open)
            and (ch.channel_id in self._active
                 or not ch.tx_queue.is_empty(by_host=False))
        ]
        if not ready:
            return []
        best = min(ch.priority for ch in ready)
        ring = [ch for ch in ready if ch.priority == best]
        n = len(self.board.channels)
        ring.sort(key=lambda ch: (ch.channel_id - self._last_served - 1) % n)
        return ring

    def _loop(self, _value: Any = None) -> None:
        """Top of the loop: park on ``work`` while every queue is
        empty; otherwise transmit a whole PDU from the first ready
        channel (sequential) or one cell from each in turn
        (interleaved)."""
        ring = self._ready_channels()
        if not ring:
            self.work._add_waiter(self._loop)
        elif self.interleave:
            self._ring = ring
            self._ring_pos = 0
            self._next_channel()
        else:
            channel = ring[0]
            self._last_served = channel.channel_id
            self._start(channel)

    def _next_channel(self) -> None:
        """Interleaved: serve the next channel of the ring, or go back
        to the top of the loop once the ring is done."""
        if self._ring_pos == len(self._ring):
            self._loop()
            return
        channel = self._ring[self._ring_pos]
        self._ring_pos += 1
        tx = self._active.get(channel.channel_id)
        if tx is None:
            self._start(channel)
            return
        self._last_served = channel.channel_id
        self._tx = tx
        self._step()

    # -- per PDU ----------------------------------------------------------------

    def _start(self, channel: Channel) -> None:
        self._channel = channel
        self._descs = []
        self._gather()

    def _gather(self, _value: Any = None) -> None:
        """Peek descriptors up to the END_OF_PDU flag, then check the
        channel's page authorization and take the per-PDU setup time.

        The tail pointer is NOT advanced here: it only moves as each
        buffer finishes transmission, because the host reads its
        advance as the completion signal (section 2.1.2).
        """
        channel = self._channel
        descs = self._descs
        while True:
            desc = channel.tx_queue.peek_at(len(descs), by_host=False)
            if desc is None:
                # Host is still queueing the PDU's remaining buffers.
                channel.tx_queue.pushed._add_waiter(self._gather)
                return
            descs.append(desc)
            if desc.end_of_pdu:
                break
        for desc in descs:
            if not channel.page_authorized(desc.addr, desc.length,
                                           self.board.machine.page_size):
                self.violations += 1
                self.board.raise_protection_irq(channel)
                for _ in descs:  # discard the whole PDU
                    with maybe_actor("tx-processor"):
                        channel.tx_queue.pop(by_host=False)
                    self._maybe_tx_space_irq(channel)
                if self.interleave:
                    self._next_channel()
                else:
                    self._loop()
                return
        self.sim.call_after(self.board.spec.tx_pdu_overhead_us,
                            self._begin_pdu)

    def _begin_pdu(self) -> None:
        channel = self._channel
        if self.link is not None and not self.interleave:
            self.link.start_pdu()
        tx = _PduTransmission(self, channel, self._descs)
        self._tx = tx
        if self.interleave:
            self._active[channel.channel_id] = tx
            self._last_served = channel.channel_id
        self._step()

    def _finish_transmission(self, tx: _PduTransmission) -> None:
        tx.consume_remaining()
        tx.channel.pdus_sent += 1
        self.pdus_sent += 1

    # -- per cell -----------------------------------------------------------------

    def _step(self) -> None:
        """Advance the current PDU by one cell: DMA until one whole
        cell's payload has been gathered (two bursts at buffer/page
        edges -- the section 2.5.2 two-address continuation), then
        emit.  In double-cell mode one burst may gather two cells;
        both are emitted."""
        tx = self._tx
        if tx.data_left > 0 and tx.acc < AAL_PAYLOAD_BYTES:
            self._read(tx)
        else:
            self._emit_gathered(tx, tx.acc // AAL_PAYLOAD_BYTES)

    def _read(self, tx: _PduTransmission) -> None:
        desc = tx.descs[tx.desc_index]
        addr = desc.addr + tx.buf_offset
        want = min(tx.data_left, desc.length - tx.buf_offset,
                   self._dma_cap - tx.acc)
        burst = self._dma.max_burst(addr, want)
        DmaTransaction(self._dma, addr, burst, False, on_done=self._on_read)

    def _on_read(self, txn: DmaTransaction) -> None:
        tx = self._tx
        burst = txn.nbytes
        tx.buf_offset += burst
        tx.data_left -= burst
        tx.acc += burst
        desc = tx.descs[tx.desc_index]
        if tx.buf_offset == desc.length:
            # Buffer fully read: NOW advance the tail pointer -- the
            # host's transmission-complete signal.
            with maybe_actor("tx-processor"):
                popped = tx.channel.tx_queue.pop(by_host=False)
            assert popped == desc
            self._maybe_tx_space_irq(tx.channel)
            tx.desc_index += 1
            tx.buf_offset = 0
        gathered = tx.acc // AAL_PAYLOAD_BYTES
        if tx.data_left == 0 and tx.acc % AAL_PAYLOAD_BYTES:
            gathered += 1  # final partial cell (pad+trailer follow)
        if tx.data_left > 0 and gathered == 0:
            self._read(tx)
        else:
            self._emit_gathered(tx, gathered)

    def _emit_gathered(self, tx: _PduTransmission, gathered: int) -> None:
        if gathered > 0:
            tx.acc -= min(tx.acc, gathered * AAL_PAYLOAD_BYTES)
            self._cells_left = gathered
        else:
            # Pad/trailer-only cells carry no host data.
            self._cells_left = 1
        self._next_cell()

    def _next_cell(self) -> None:
        tx = self._tx
        if self._cells_left == 0 or tx.emitted >= tx.n_cells:
            self._cell_done()
            return
        self._cells_left -= 1
        gate = self.credit_gate
        if gate is not None and not gate.try_acquire(tx.vci):
            # Fabric backpressure: hold the cell until its VCI may
            # emit (credit available / EFCI cooldown elapsed).
            gate.wait(tx.vci, self._cell_time)
        else:
            self._cell_time()

    def _cell_time(self) -> None:
        self.sim.call_after(self._cell_us, self._emit)

    def _emit(self) -> None:
        tx = self._tx
        index = tx.emitted
        if tx.framed is not None:
            payload = tx.framed[index * AAL_PAYLOAD_BYTES:
                                (index + 1) * AAL_PAYLOAD_BYTES]
        else:
            payload = b""
        n_cells = tx.n_cells
        mode = self.segment_mode
        if mode is SegmentMode.CONCURRENT:
            stripe = self.link.n_links if self.link else 4
            eom = index >= n_cells - min(stripe, n_cells)
        else:
            eom = index == n_cells - 1
        cell = Cell(
            vci=tx.vci,
            payload=payload,
            eom=eom,
            seq=(tx.seq_base + index
                 if mode is SegmentMode.SEQUENCE else None),
            atm_last=(mode is SegmentMode.CONCURRENT
                      and index == n_cells - 1),
            tx_index=index,
        )
        tx.emitted += 1
        self.cells_sent += 1
        if self.link is not None:
            self.link.submit(cell)
        else:
            assert self.deliver is not None
            self.deliver(cell)
        self._next_cell()

    def _cell_done(self) -> None:
        """The current step emitted its cells: finish the PDU if that
        was its last cell, then continue the discipline."""
        tx = self._tx
        if self.interleave:
            if tx.done:
                del self._active[tx.channel.channel_id]
                self._finish_transmission(tx)
            self._next_channel()
        elif tx.done:
            self._finish_transmission(tx)
            self._loop()
        else:
            self._step()

    def _maybe_tx_space_irq(self, channel: Channel) -> None:
        """Assert the transmit-space interrupt when the host asked for
        one and the queue has drained to half empty (section 2.1.2)."""
        if channel.channel_id not in self.board.tx_interrupt_wanted:
            return
        occupancy = channel.tx_queue.occupancy(by_host=False)
        if occupancy <= channel.tx_queue.capacity // 2:
            self.board.tx_interrupt_wanted.discard(channel.channel_id)
            self.board.raise_tx_space_irq(channel)


__all__ = ["TxProcessor"]
