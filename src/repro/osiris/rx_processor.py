"""The receive-side i960 loop.

The receive processor reads (VCI, AAL info) for each incoming cell
from the on-board FIFO, decides where in host memory the payload
belongs, and issues a DMA command -- typically one per cell (paper,
section 1).  This module implements that loop with:

* early demultiplexing through the VCI table (sections 3.1/3.2);
* buffer selection from per-path cached-fbuf pools with fallback to
  the uncached pool (section 3.1);
* the double-cell DMA optimisation: the processor looks at two cell
  headers and combines two payloads destined for contiguous addresses
  into one 88-byte transaction (section 2.5.1);
* stop-at-page-boundary bursts (section 2.5.2);
* all three reassembly strategies of section 2.6 (in-order, sequence
  numbers, concurrent per-link AAL5);
* the interrupt discipline of section 2.1.2: one interrupt per
  receive-queue empty->non-empty transition, or the traditional
  one-per-PDU as a baseline.

Skew-tolerant modes require full data fidelity and assume PDUs on one
VCI do not overlap by more than the stripe reorder window (the pure
algorithms in :mod:`repro.atm.sar` handle unrestricted pipelining and
are property-tested separately).

The loop, its DMA commands and the cell sources are callback state
machines rather than generator processes: every wait ends in the
method that continues the loop, so a cell costs no process resume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..analysis.sanitize import maybe_actor
from ..atm.aal5 import (
    Aal5Error, BadCrc, Reassembler, SegmentMode, encode_pdu, framed_size,
)
from ..atm.cell import Cell
from ..atm.sar import (
    ConcurrentReassembler, LossDetected, SequenceNumberReassembler,
    SkewOverflow,
)
from ..hw.dma import DmaMode, DmaTransaction
from ..hw.specs import AAL_PAYLOAD_BYTES
from ..sim import SimulationError, Simulator, Store
from .board import Channel, OsirisBoard
from .descriptors import Descriptor, FLAG_END_OF_PDU, FLAG_ERROR


class InterruptMode(enum.Enum):
    COALESCED = "coalesced"    # the paper's discipline
    PER_PDU = "per-pdu"        # traditional baseline


@dataclass
class _Bucket:
    """One receive buffer holding a slice of the open PDU."""

    desc: Descriptor
    filled: int = 0


class _CountDetector:
    """Timing-only in-order completion: count cells until the framing
    bit, no payload reconstruction."""

    def __init__(self) -> None:
        self.cells = 0

    def push(self, cell: Cell) -> Optional[bool]:
        self.cells += 1
        return cell.eom


@dataclass
class _VciState:
    channel: Channel
    detector: Any
    vci: int = 0
    # In-order placement cursor (bytes into the open PDU's framing).
    offset: int = 0
    cells_in_pdu: int = 0
    base_seq: int = 0
    # CONCURRENT mode: cells placed so far per link, one slot per
    # stripe link (built with the processor's stripe width).
    link_counts: list[int] = field(default_factory=list)
    buckets: dict[int, _Bucket] = field(default_factory=dict)
    max_offset_seen: int = 0
    last_dma: Optional["_RxDmaCommand"] = None
    dropping: bool = False


class _RxDmaCommand:
    """One receive DMA command: a cell's (or cell pair's) payload,
    moved by one or more :class:`DmaTransaction` s chained by callback.

    The controller stops at page boundaries and waits for a
    continuation address (section 2.5.2), so a payload that straddles
    a boundary costs two transactions.  The command starts one event
    after it is issued (the engine runs concurrently with cell
    processing); when its last transaction completes it returns its
    command-queue token first and then wakes its joiners.  The
    processor joins it like a process: ``done``, then
    ``_add_waiter`` (a process may ``yield command``).
    """

    __slots__ = ("rxp", "pos", "left", "data", "done", "_waiters")

    def __init__(self, rxp: "RxProcessor", addr: int,
                 data: Optional[bytes], nbytes: int):
        self.rxp = rxp
        self.pos = addr
        self.left = nbytes
        self.data = data
        self.done = False
        self._waiters: Optional[list] = None    # built on the first join
        rxp.sim.call_now(self._next)

    def _add_waiter(self, resume) -> None:
        if self.done:
            resume(None)
        elif self._waiters is None:
            self._waiters = [resume]
        else:
            self._waiters.append(resume)

    def _next(self, _done: Optional[DmaTransaction] = None) -> None:
        left = self.left
        if left > 0:
            dma = self.rxp.board.rx_dma
            pos = self.pos
            burst = dma.max_burst(pos, left)
            self.pos = pos + burst
            self.left = left - burst
            data = self.data
            if data is not None:
                # A transaction moves the bytes it carries.
                self.data = data[burst:]
                data = data[:burst]
                burst = len(data)
            DmaTransaction(dma, pos, burst, True, data, self._next)
            return
        self.rxp._dma_tokens.try_put(None)
        self.done = True
        if self._waiters is not None:
            for resume in self._waiters:
                resume(None)


@dataclass
class _Placement:
    state: _VciState
    cell: Cell
    offset: int           # byte offset within the open PDU
    addr: int             # physical destination address
    bucket_index: int


class RxProcessor:
    """Receive processor: cells in, filled buffers + interrupts out."""

    def __init__(self, sim: Simulator, board: OsirisBoard,
                 reassembly_mode: SegmentMode = SegmentMode.IN_ORDER,
                 interrupt_mode: InterruptMode = InterruptMode.COALESCED,
                 flow_controlled: bool = False,
                 stripe_width: int = 4,
                 combine_wait_us: float = 0.75,
                 loss_resync_cells: Optional[int] = 32):
        if (reassembly_mode is not SegmentMode.IN_ORDER
                and not board.fidelity.copy_data):
            raise SimulationError(
                "skew-tolerant reassembly requires data fidelity")
        self.sim = sim
        self.board = board
        self.reassembly_mode = reassembly_mode
        self.interrupt_mode = interrupt_mode
        self.flow_controlled = flow_controlled
        self.stripe_width = stripe_width
        self.combine_wait_us = combine_wait_us
        # SEQUENCE mode: declare a destroyed cell after this many later
        # arrivals instead of wedging until the skew window overflows
        # (which a short flow may never do).  None restores the wedge.
        self.loss_resync_cells = loss_resync_cells
        self.bufsize = board.spec.recv_buffer_bytes
        self._states: dict[int, _VciState] = {}
        self._dma_tokens = Store(sim, "rx-dma-tokens")
        for _ in range(board.spec.rx_dma_queue_depth):
            self._dma_tokens.try_put(None)
        self.pdus_received = 0
        self.pdus_errored = 0
        # Subset of pdus_errored caught specifically by the AAL5 CRC
        # (corrupted payload bits, as opposed to framing/length damage).
        self.crc_errors = 0
        # Loss recovery in SEQUENCE mode: resyncs after a destroyed
        # cell wedged the resequencer, and stale duplicates dropped
        # after base_seq moved past them.
        self.skew_resyncs = 0
        self.loss_resyncs = 0
        self.cells_stale = 0
        self.cells_received = 0
        self.cells_dropped_no_buffer = 0
        self.combined_dmas = 0
        self.single_dmas = 0
        # Loop state: the cell being processed, the first placement of
        # the current command, its combined partner, and the payload
        # the command carries.
        self._cell: Optional[Cell] = None
        self._first: Optional[_Placement] = None
        self._second: Optional[_Placement] = None
        self._data: Optional[bytes] = None
        self._nbytes = 0
        self._fifo = board.rx_fifo
        self._cell_us = float(board.spec.rx_cell_us)
        self._double = board.rx_dma.mode is DmaMode.DOUBLE_CELL
        # The first pass is an event of its own; the pinned event
        # schedule counts it.
        sim.call_now(self._next)

    # -- main loop ----------------------------------------------------------
    #
    # One cell: _next (FIFO read) -> _on_cell (rx_cell_us) -> _plan ->
    # _on_first -> [_try_combine] -> _issue (command token) -> _command
    # -> _post_dma for each placement -> _next.

    def _next(self, _value: Any = None) -> None:
        """Top of the loop: read the next cell from the FIFO.  A get
        hands over a queued cell synchronously and admits a blocked
        putter only after this loop has scheduled the cell's time."""
        self._fifo.get()._add_waiter(self._on_cell)

    def _on_cell(self, cell: Cell) -> None:
        self._cell = cell
        self.sim.call_after(self._cell_us, self._on_cell_time)

    def _on_cell_time(self) -> None:
        self._plan(self._cell, self._on_first)

    def _on_first(self, first: Optional[_Placement]) -> None:
        if first is None:
            self._next()
            return
        self._first = first
        if self._double:
            self._try_combine(first)
        else:
            self._issue(None)

    def _after_first(self) -> None:
        second = self._second
        if second is None:
            self._next()
        else:
            self._post_dma(second, self._next)

    # -- placement ------------------------------------------------------------

    def _state_for(self, cell: Cell) -> Optional[_VciState]:
        channel_id = self.board.vci_table.get(cell.vci)
        if channel_id is None:
            self.board.unknown_vci_drops += 1
            return None
        channel = self.board.channels[channel_id]
        state = self._states.get(cell.vci)
        if state is None:
            state = _VciState(channel=channel, vci=cell.vci,
                              detector=self._new_detector(cell.vci),
                              link_counts=[0] * self.stripe_width)
            self._states[cell.vci] = state
        return state

    def _new_detector(self, vci: int) -> Any:
        if self.reassembly_mode is SegmentMode.SEQUENCE:
            return SequenceNumberReassembler(
                vci, loss_resync_cells=self.loss_resync_cells)
        if self.reassembly_mode is SegmentMode.CONCURRENT:
            return ConcurrentReassembler(vci, self.stripe_width)
        if self.board.fidelity.copy_data:
            return Reassembler(vci)
        return _CountDetector()

    def _cell_offset(self, state: _VciState, cell: Cell) -> int:
        mode = self.reassembly_mode
        if mode is SegmentMode.IN_ORDER:
            return state.offset
        if mode is SegmentMode.SEQUENCE:
            if cell.seq is None:
                raise SimulationError("sequence mode needs numbered cells")
            return (cell.seq - state.base_seq) * AAL_PAYLOAD_BYTES
        m = state.link_counts[cell.link_id]
        return (m * self.stripe_width + cell.link_id) * AAL_PAYLOAD_BYTES

    def _plan(self, cell: Cell,
              then: Callable[[Optional[_Placement]], None]) -> None:
        """Demux, compute placement, secure a buffer, update counters;
        ``then`` gets the placement, or None when the cell is dropped."""
        self.cells_received += 1
        state = self._state_for(cell)
        if state is None:
            then(None)
            return
        if state.dropping:
            # Discard the rest of a PDU that lost its buffer.
            if cell.eom and self.reassembly_mode is SegmentMode.IN_ORDER:
                state.dropping = False
                state.detector = self._new_detector(cell.vci)
                self._reset_pdu(state)
            then(None)
            return
        offset = self._cell_offset(state, cell)
        if offset < 0:
            # A duplicate from before a loss resync advanced base_seq;
            # its bytes were already abandoned, so drop it quietly.
            self.cells_stale += 1
            then(None)
            return
        bucket_index = offset // self.bufsize
        bucket = state.buckets.get(bucket_index)
        if bucket is None:
            self._allocate_bucket(state, cell, offset, bucket_index, then)
        else:
            then(self._place(state, cell, offset, bucket_index, bucket))

    def _place(self, state: _VciState, cell: Cell, offset: int,
               bucket_index: int, bucket: _Bucket) -> _Placement:
        addr = bucket.desc.addr + (offset % self.bufsize)
        # Advance per-mode cursors.
        if self.reassembly_mode is SegmentMode.IN_ORDER:
            state.offset += AAL_PAYLOAD_BYTES
        elif self.reassembly_mode is SegmentMode.CONCURRENT:
            state.link_counts[cell.link_id] += 1
        state.cells_in_pdu += 1
        state.max_offset_seen = max(state.max_offset_seen,
                                    offset + AAL_PAYLOAD_BYTES)
        bucket.filled += AAL_PAYLOAD_BYTES
        return _Placement(state=state, cell=cell, offset=offset,
                          addr=addr, bucket_index=bucket_index)

    def _allocate_bucket(self, state: _VciState, cell: Cell, offset: int,
                         bucket_index: int,
                         then: Callable[[Optional[_Placement]], None]
                         ) -> None:
        channel = state.channel
        desc = self.board.take_receive_buffer(channel, cell.vci)
        if desc is not None:
            if desc.length != self.bufsize:
                raise SimulationError(
                    f"receive buffer of {desc.length} bytes; the "
                    f"board expects uniform {self.bufsize}")
            bucket = _Bucket(desc=desc)
            state.buckets[bucket_index] = bucket
            then(self._place(state, cell, offset, bucket_index, bucket))
            return
        if not self.flow_controlled:
            self.cells_dropped_no_buffer += 1
            channel.cells_dropped += 1
            if self.reassembly_mode is SegmentMode.IN_ORDER:
                state.dropping = not cell.eom
                state.detector = self._new_detector(cell.vci)
                if cell.eom:
                    self._reset_pdu(state)
                else:
                    self._discard_open_buffers(state)
            then(None)
            return
        # Flow-controlled source: wait for the host to feed buffers.
        channel.free_queue.became_nonempty._add_waiter(
            lambda _queue: self._allocate_bucket(state, cell, offset,
                                                 bucket_index, then))

    def _discard_open_buffers(self, state: _VciState) -> None:
        for _, bucket in sorted(state.buckets.items()):
            state.channel.anon_pool.append(bucket.desc)
        state.buckets.clear()

    # -- double-cell combining ---------------------------------------------------

    def _try_combine(self, first: _Placement) -> None:
        """Peek the next FIFO cell; combine when its payload lands
        immediately after the first (section 2.5.1)."""
        if first.cell.eom:
            self._issue(None)
            return
        nxt: Optional[Cell] = self._fifo.peek()
        if nxt is None:
            # The successor may be one cell-time behind on the wire;
            # waiting for its header costs less than a separate DMA's
            # overhead, so the firmware holds briefly.
            self.sim.call_after(self.combine_wait_us,
                                self._combine_after_wait)
            return
        self._combine_with(nxt)

    def _combine_after_wait(self) -> None:
        nxt = self._fifo.peek()
        if nxt is None:
            self._issue(None)
        else:
            self._combine_with(nxt)

    def _combine_with(self, nxt: Cell) -> None:
        first = self._first
        if (nxt.vci != first.cell.vci
                or not self._is_contiguous(first, nxt)
                # Both payloads must fit in one burst in the same
                # buffer/page.
                or (first.offset % self.bufsize) + 2 * AAL_PAYLOAD_BYTES
                > self.bufsize
                or self.board.rx_dma.max_burst(
                    first.addr, 2 * AAL_PAYLOAD_BYTES)
                < 2 * AAL_PAYLOAD_BYTES):
            self._issue(None)
            return
        ok, cell = self._fifo.try_get()
        assert ok and cell is nxt
        self._cell = cell
        self.sim.call_after(self._cell_us, self._on_second_time)

    def _on_second_time(self) -> None:
        self._plan(self._cell, self._issue)

    def _is_contiguous(self, first: _Placement, nxt: Cell) -> bool:
        mode = self.reassembly_mode
        if mode is SegmentMode.IN_ORDER:
            return True  # in-order cells on one VCI are consecutive
        if mode is SegmentMode.SEQUENCE:
            return (nxt.seq is not None and first.cell.seq is not None
                    and nxt.seq == first.cell.seq + 1)
        state = first.state
        expected = self._cell_offset(state, nxt)
        return expected == first.offset + AAL_PAYLOAD_BYTES

    # -- DMA ------------------------------------------------------------------

    def _issue(self, second: Optional[_Placement]) -> None:
        """Issue one DMA command for a cell or a combined pair; waits
        only when the command queue is full (the engine runs
        concurrently with cell processing)."""
        first = self._first
        copy = self.board.fidelity.copy_data
        if second is not None:
            self._data = (first.cell.payload + second.cell.payload
                          if copy else None)
            self._nbytes = 2 * AAL_PAYLOAD_BYTES
            self.combined_dmas += 1
        else:
            self._data = first.cell.payload if copy else None
            self._nbytes = AAL_PAYLOAD_BYTES
            self.single_dmas += 1
        self._second = second
        tokens = self._dma_tokens
        if tokens.try_get()[0]:
            self._command()
        else:
            tokens.get()._add_waiter(self._command)

    def _command(self, _token: Any = None) -> None:
        first = self._first
        first.state.last_dma = _RxDmaCommand(self, first.addr, self._data,
                                             self._nbytes)
        self._post_dma(first, self._after_first)

    # -- completion ----------------------------------------------------------------

    def _post_dma(self, placement: _Placement,
                  then: Callable[[], None]) -> None:
        state = placement.state
        cell = placement.cell
        try:
            result = state.detector.push(
                cell, cell.link_id) \
                if self.reassembly_mode is SegmentMode.CONCURRENT \
                else state.detector.push(cell)
        except Aal5Error as exc:
            self.pdus_errored += 1
            if isinstance(exc, BadCrc):
                self.crc_errors += 1
            if isinstance(exc, SkewOverflow):
                # A destroyed cell wedged the sequence stream; abandon
                # everything buffered and resume just past the cell
                # that overflowed (see SequenceNumberReassembler.resync).
                self.skew_resyncs += 1
                state.detector.resync(cell.seq + 1)
            elif isinstance(exc, LossDetected):
                # The gap outlived the loss bound: skip the damaged
                # PDU only; later PDUs stay buffered and drain as
                # their own EOMs complete.
                self.loss_resyncs += 1
                state.detector.gap_resync()
            self._deliver_pdu(state, True, then)
            return
        if self._completed(result):
            self._deliver_pdu(state, False, then)
        elif self.reassembly_mode is SegmentMode.IN_ORDER:
            # 'When the buffer is filled ... the processor adds the
            # buffer to the receive queue' (section 2.1.1): hand over
            # buffers the PDU has grown past without waiting for the
            # end of the PDU.
            self._deliver_filled_buckets(state, placement.bucket_index,
                                         then)
        else:
            then()

    def _completed(self, result: Any) -> bool:
        if result is None or result is False:
            return False
        if result is True:
            return True
        if isinstance(result, bytes):
            return True
        if isinstance(result, list):
            return len(result) > 0
        return False

    def _deliver_filled_buckets(self, state: _VciState,
                                current_index: int,
                                then: Callable[[], None]) -> None:
        ready = [i for i in sorted(state.buckets) if i < current_index]
        if not ready:
            then()
            return

        def enqueue(_value: Any = None) -> None:
            descs = []
            for index in ready:
                bucket = state.buckets.pop(index)
                descs.append(Descriptor(addr=bucket.desc.addr,
                                        length=self.bufsize, flags=0,
                                        vci=state.vci))
            self._enqueue_received(state.channel, descs, 0, then)

        self._join_last_dma(state, enqueue)

    def _deliver_pdu(self, state: _VciState, error: bool,
                     then: Callable[[], None]) -> None:
        """PDU complete: wait out the wrap-up time and the PDU's last
        DMA, enqueue its buffers, maybe interrupt, reset per-PDU
        state."""
        channel = state.channel

        def enqueue(_value: Any = None) -> None:
            total = state.max_offset_seen
            indices = sorted(state.buckets)
            descs = []
            for position, index in enumerate(indices):
                bucket = state.buckets[index]
                start = index * self.bufsize
                length = min(self.bufsize, total - start)
                flags = 0
                if position == len(indices) - 1:
                    flags |= FLAG_END_OF_PDU
                if error:
                    flags |= FLAG_ERROR
                descs.append(Descriptor(addr=bucket.desc.addr,
                                        length=length, flags=flags,
                                        vci=state.vci))
            self._enqueue_received(channel, descs, 0, finished)

        def finished() -> None:
            channel.pdus_received += 1
            self.pdus_received += 1
            self._reset_pdu(state)
            then()

        self.sim.call_after(self.board.spec.rx_pdu_overhead_us,
                            lambda: self._join_last_dma(state, enqueue))

    def _join_last_dma(self, state: _VciState,
                       then: Callable[..., None]) -> None:
        """Run ``then`` once the VCI's last DMA command has landed."""
        last = state.last_dma
        if last is not None and not last.done:
            last._add_waiter(then)
        else:
            then()

    def _enqueue_received(self, channel: Channel, descs: list[Descriptor],
                          start: int, then: Callable[[], None]) -> None:
        """Push ``descs[start:]`` onto the receive queue, then call
        ``then``.  A full queue parks the loop (flow-controlled) or
        drops the buffer back to the board's pool (host overrun)."""
        queue = channel.recv_queue
        for pos in range(start, len(descs)):
            desc = descs[pos]
            # The adaptor-side pointer moves under the rx-processor
            # actor so the SRSW sanitizer can name the second writer
            # if one ever appears (paper section 2.1.1).
            with maybe_actor("rx-processor"):
                was_empty = queue.is_empty(by_host=False)
                pushed = queue.push(desc, by_host=False)
            if pushed:
                if self.interrupt_mode is InterruptMode.PER_PDU:
                    if desc.end_of_pdu:
                        self.board.raise_receive_irq(channel)
                elif was_empty:
                    self.board.raise_receive_irq(channel)
            elif self.flow_controlled:
                # Retry this buffer once the host frees a slot.
                queue.became_nonfull._add_waiter(
                    lambda _queue, pos=pos: self._enqueue_received(
                        channel, descs, pos, then))
                return
            else:
                # Host overrun: drop and recycle the buffer on-board.
                channel.anon_pool.append(
                    Descriptor(addr=desc.addr, length=self.bufsize))
                channel.cells_dropped += 1
        then()

    def _reset_pdu(self, state: _VciState) -> None:
        state.offset = 0
        state.cells_in_pdu = 0
        state.max_offset_seen = 0
        state.buckets.clear()
        state.link_counts = [0] * self.stripe_width
        if self.reassembly_mode is SegmentMode.SEQUENCE:
            reasm: SequenceNumberReassembler = state.detector
            state.base_seq = reasm.next_seq


class _CellPacer:
    """Replays framed PDUs into the receive FIFO at link cell pace.

    A callback loop: build the next cell, wait ``cell_pace_us``, put it
    into the bounded FIFO (parking while it is full), repeat.  Each PDU
    is its framed bytes (the payload source; None in timing-only runs)
    and its cell count; the list is replayed ``rounds`` times.  The
    first cell is built in a start event of its own, which the pinned
    event schedule counts.
    """

    def __init__(self, sim: Simulator, board: OsirisBoard, vci: int,
                 pdus: list[tuple[Optional[bytes], int]], rounds: int,
                 cell_pace_us: float):
        self.sim = sim
        self.board = board
        self.vci = vci
        self.cell_pace_us = cell_pace_us
        self._pdus = pdus
        self._rounds = rounds
        self._rounds_done = 0
        self._pdu = 0
        self._index = 0
        self._cell: Optional[Cell] = None
        sim.call_now(self._advance)

    def _advance(self, _value: Any = None) -> None:
        """Build the next cell and wait out its pace; stop after the
        last round."""
        while self._rounds_done < self._rounds:
            if self._pdu < len(self._pdus):
                framed, n = self._pdus[self._pdu]
                i = self._index
                if i < n:
                    self._index = i + 1
                    payload = (framed[i * AAL_PAYLOAD_BYTES:
                                      (i + 1) * AAL_PAYLOAD_BYTES]
                               if framed is not None else b"")
                    self._cell = Cell(vci=self.vci, payload=payload,
                                      eom=(i == n - 1), tx_index=i)
                    self.sim.call_after(self.cell_pace_us, self._put)
                    return
                self._pdu += 1
                self._index = 0
            else:
                self._rounds_done += 1
                self._pdu = 0

    def _put(self) -> None:
        self.board.rx_fifo.put(self._cell)._add_waiter(self._advance)


def _framed_cells(board: OsirisBoard,
                  data: bytes) -> tuple[Optional[bytes], int]:
    """One PDU for a pacer: its AAL5 framing (kept only when the board
    copies data) and its cell count."""
    if board.fidelity.copy_data:
        framed = encode_pdu(data)
        return framed, len(framed) // AAL_PAYLOAD_BYTES
    return None, framed_size(len(data)) // AAL_PAYLOAD_BYTES


class FramedPduSource(_CellPacer):
    """Fictitious-PDU generator fed with explicit PDU contents.

    Used by the figure 2/3 harness: the PDUs are the IP fragments a
    sending host's stack would have produced (UDP/IP headers included),
    so the receiving host runs its full protocol path.  The list is
    replayed ``repeat`` times at link cell pace.
    """

    def __init__(self, sim: Simulator, board: OsirisBoard, vci: int,
                 pdus: list[bytes], repeat: int,
                 cell_pace_us: float = 0.682):
        self.repeat = repeat
        super().__init__(sim, board, vci,
                         [_framed_cells(board, p) for p in pdus], repeat,
                         cell_pace_us)

    @property
    def rounds_generated(self) -> int:
        return self._rounds_done


class FictitiousPduSource(_CellPacer):
    """The receive-side isolation workload of section 4.

    'The receiver processor of the OSIRIS board was programmed to
    generate fictitious PDUs as fast as the receiving host could
    absorb them.'  Cells are synthesized at the striped link's
    aggregate cell rate (0.682 us per cell -> 516 Mbps of payload) and
    pushed through the normal receive FIFO; the bounded FIFO provides
    the absorb-rate flow control.
    """

    def __init__(self, sim: Simulator, board: OsirisBoard, vci: int,
                 pdu_bytes: int, pdu_count: int,
                 cell_pace_us: float = 0.682):
        self.pdu_bytes = pdu_bytes
        self.pdu_count = pdu_count
        pattern = (b"OSIRIS!" * (pdu_bytes // 7 + 1))[:pdu_bytes]
        super().__init__(sim, board, vci, [_framed_cells(board, pattern)],
                         pdu_count, cell_pace_us)

    @property
    def pdus_generated(self) -> int:
        return self._rounds_done


__all__ = ["RxProcessor", "InterruptMode", "FictitiousPduSource",
           "FramedPduSource"]
