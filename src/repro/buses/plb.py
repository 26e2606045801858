"""IBM CoreConnect Processor Local Bus (PLB) model.

The slave-side protocol follows Figures 4.5 and 4.6: the bus asserts a
one-hot chip-enable (``RD_CE`` / ``WR_CE``) plus ``BE`` and strobes
``RD_REQ`` / ``WR_REQ`` for one cycle, then holds the enables steady until
the peripheral answers with ``RD_ACK`` / ``WR_ACK``.

The master model charges two arbitration cycles per request (the PLB is a
shared, arbitrated processor bus) and supports three transfer styles:

* single-word reads/writes (the only style the PowerPC 405 can issue
  directly, Section 4.3.1),
* back-to-back streaming used for DMA payload movement, and
* DMA block transfers, which first pay the four control transactions the
  Xilinx PLB DMA engine requires (Section 9.2.1) and then stream the payload
  without per-word arbitration.
"""

from __future__ import annotations

from typing import Dict

from repro.buses.base import M_TO_S, S_TO_M, BusMaster, BusTransaction, SlaveBundle, TransactionKind
from repro.rtl.fsm import (
    Active,
    Call,
    Exec,
    Goto,
    If,
    Pulse,
    Redispatch,
    Schedule,
    ScheduleZero,
)
from repro.buses.base import DMA_KINDS as _DMA_KINDS, WRITE_KINDS as _WRITE_KINDS

#: Transfer styles that stream beats back-to-back without re-arbitration.
_STREAMING_KINDS = (
    TransactionKind.BURST_READ,
    TransactionKind.BURST_WRITE,
    TransactionKind.DMA_READ,
    TransactionKind.DMA_WRITE,
)


class PLBSlaveBundle(SlaveBundle):
    """Signals visible to a PLB-attached peripheral (slave port)."""

    DESCRIPTION = (
        (M_TO_S, "rd_req", "RD_REQ", 1),
        (M_TO_S, "wr_req", "WR_REQ", 1),
        (M_TO_S, "be", "BE", "data_bytes"),
        (M_TO_S, "rd_ce", "RD_CE", "num_slots"),
        (M_TO_S, "wr_ce", "WR_CE", "num_slots"),
        (M_TO_S, "data_to_slave", "DATA_IN", "data_width"),
        (S_TO_M, "data_from_slave", "DATA_OUT", "data_width"),
        (S_TO_M, "rd_ack", "RD_ACK", 1),
        (S_TO_M, "wr_ack", "WR_ACK", 1),
    )

    def selected_slot(self, write: bool) -> int:
        """Decode the one-hot chip enable into a slot number (-1 when idle)."""
        value = self.wr_ce.value if write else self.rd_ce.value
        if value == 0:
            return -1
        return value.bit_length() - 1


class PLBMaster(BusMaster):
    """Drives a :class:`PLBSlaveBundle` on behalf of the processor."""

    ARBITRATION_CYCLES = 2
    RECOVERY_CYCLES = 1
    #: Cycles charged for each of the DMA engine's control transactions.
    DMA_SETUP_TRANSACTION_CYCLES = 4
    #: Number of control transactions needed to set up / tear down DMA.
    DMA_SETUP_TRANSACTIONS = 4

    def __init__(
        self,
        name: str,
        slave: PLBSlaveBundle,
        base_address: int = 0,
    ) -> None:
        super().__init__(name, slave)
        self.base_address = base_address
        self._phase = "idle"
        self._delay = 0
        self._delay_until = None
        self._word_index = 0
        # Per-transaction facts hoisted out of the per-cycle FSM: the write
        # direction and streaming style never change mid-transaction —
        # re-deriving them every cycle (enum properties) was measurable
        # harness overhead on every kernel.
        self._active_write = False
        self._active_streaming = False
        self._request_signals = (
            slave.rd_req, slave.wr_req, slave.rd_ce, slave.wr_ce,
            slave.be, slave.data_to_slave,
        )
        self._register_tick()

    def _wake_signals(self):
        # A parked PLB master resumes only when the peripheral acknowledges.
        return [self.slave.wr_ack, self.slave.rd_ack]

    # -- FSM IR ----------------------------------------------------------------

    def _fsm_groups(self) -> Dict[str, tuple]:
        return {"req_group": self._request_signals}

    def _fsm_helpers(self) -> Dict[str, object]:
        return {"h_complete": self._complete, "h_slot_for": self._slot_for}

    def _fsm_consts(self) -> Dict[str, int]:
        slave = self.slave
        return {
            **super()._fsm_consts(),
            "BASEADDR": self.base_address,
            "WORDB": slave.data_width // 8,
            "NSLOTS": slave.num_slots,
            "BEMASK": (1 << (slave.data_width // 8)) - 1,
        }

    def _fsm_external_states(self) -> tuple:
        # _begin() enters arbitration (or the DMA control-transaction
        # countdown) from Python when a transaction starts.
        return ("arbitrate", "dma_setup")

    def _fsm_protocol_states(self) -> Dict[str, tuple]:
        """The PLB request/acknowledge protocol as FSM IR.

        States are declared hottest-first (a transaction spends most cycles
        waiting for an acknowledge).  The per-beat advance is fully inline:
        streaming beats keep the enables and present the next word;
        single-word semantics re-arbitrate per beat.
        """
        after_beat = (
            Exec("tot = len(m.active.data) if m._active_write else m.active.word_count"),
            If(
                "m._word_index < tot",
                (
                    If(
                        "m._active_streaming",
                        (
                            # Back-to-back beat: keep the enables, present
                            # the next word; parked until the acknowledge.
                            If(
                                "m._active_write",
                                (
                                    Schedule("data_to_slave", "m.active.data[m._word_index]"),
                                    Pulse("wr_req"),
                                ),
                                orelse=(Pulse("rd_req"),),
                            ),
                            Goto("wait_ack"),
                            Active("False"),
                        ),
                        orelse=(
                            # Single-word semantics: re-arbitrate per beat.
                            ScheduleZero("req_group"),
                            Exec("m._delay = ARB"),
                            Goto("arbitrate"),
                            Active("True"),
                        ),
                    ),
                ),
                orelse=(
                    ScheduleZero("req_group"),
                    Exec("m._delay = RECOV"),
                    Goto("recover"),
                    Active("True"),
                ),
            ),
        )
        request = (
            Exec("txn = m.active"),
            Exec("slot = (txn.address - BASEADDR) // WORDB"),
            If(
                "not (0 <= slot < NSLOTS)",
                # Out-of-range decode: the Python helper raises with the
                # full diagnostic.
                (Call("h_slot_for", args="txn.address"),),
            ),
            Schedule("be", "BEMASK"),
            If(
                "m._active_write",
                (
                    # REQ strobes for a single cycle (pulse); CE/BE/DATA hold.
                    Pulse("wr_req"),
                    Schedule("wr_ce", "1 << slot"),
                    Schedule("data_to_slave", "txn.data[m._word_index]"),
                ),
                orelse=(
                    Pulse("rd_req"),
                    Schedule("rd_ce", "1 << slot"),
                ),
            ),
            Goto("wait_ack"),
            Active("False"),
        )
        return {
            "wait_ack": (
                If(
                    "m._active_write",
                    (
                        If(
                            "wr_ack._value",
                            (Exec("m._word_index += 1"), *after_beat),
                        ),
                    ),
                    orelse=(
                        If(
                            "rd_ack._value",
                            (
                                Exec("m.active.results.append(data_from_slave._value)"),
                                Exec("m._word_index += 1"),
                                *after_beat,
                            ),
                        ),
                    ),
                ),
            ),
            "arbitrate": self._fsm_countdown((Goto("request"), Redispatch())),
            "dma_setup": self._fsm_countdown((Goto("request"), Redispatch())),
            "request": request,
            "recover": self._fsm_countdown(
                (
                    ScheduleZero("req_group"),
                    Call("h_complete", args="m.active"),
                    Goto("idle"),
                    Active("True"),
                )
            ),
        }

    # -- helpers ---------------------------------------------------------------

    def _slot_for(self, address: int) -> int:
        offset = address - self.base_address
        slot = offset // (self.slave.data_width // 8)
        if not 0 <= slot < self.slave.num_slots:
            raise ValueError(
                f"address 0x{address:x} does not decode to a slot of peripheral at "
                f"0x{self.base_address:x} ({self.slave.num_slots} slots)"
            )
        return slot

    # -- FSM ----------------------------------------------------------------------

    def _begin(self, transaction: BusTransaction) -> None:
        self._word_index = 0
        kind = transaction.kind
        self._active_write = kind in _WRITE_KINDS
        self._active_streaming = kind in _STREAMING_KINDS
        if kind in _DMA_KINDS:
            self._phase = "dma_setup"
            self._delay = self.DMA_SETUP_TRANSACTIONS * self.DMA_SETUP_TRANSACTION_CYCLES
        else:
            self._phase = "arbitrate"
            self._delay = self.ARBITRATION_CYCLES
