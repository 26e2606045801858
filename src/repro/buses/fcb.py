"""Xilinx Fabric Co-processor Bus (FCB) model.

The FCB is a pseudo-asynchronous 32-bit co-processor interconnect that is
*not* memory mapped: transfers are triggered by FCB-specific opcodes and go
straight to a single attached device, so there is no address decode and no
shared-bus arbitration (Section 2.3.2).  Besides single-word loads and
stores, the interface natively supports double- and quad-word burst
transmissions, which Splice exploits for array transfers.

Because Splice multiplexes several logical functions behind the single FCB
attachment point, the master presents a function-select field alongside each
request; the generated adapter forwards it as the SIS ``FUNC_ID``.
"""

from __future__ import annotations

from typing import Dict

from repro.buses.base import M_TO_S, S_TO_M, BusMaster, BusTransaction, SlaveBundle, TransactionKind
from repro.rtl.fsm import Active, Call, Exec, Goto, If, Pulse, Schedule


class FCBSlaveBundle(SlaveBundle):
    """Signals visible to the FCB-attached peripheral."""

    DESCRIPTION = (
        (M_TO_S, "req", "REQ", 1),
        (M_TO_S, "is_write", "IS_WRITE", 1),
        (M_TO_S, "func_sel", "FUNC_SEL", "func_id_width"),
        (M_TO_S, "burst_len", "BURST_LEN", 3),
        (M_TO_S, "data_to_slave", "DATA_IN", "data_width"),
        (M_TO_S, "data_valid", "DATA_VALID", 1),
        (S_TO_M, "data_from_slave", "DATA_OUT", "data_width"),
        (S_TO_M, "ack", "ACK", 1),
        (S_TO_M, "resp_valid", "RESP_VALID", 1),
    )


class FCBMaster(BusMaster):
    """Drives an :class:`FCBSlaveBundle` via co-processor opcodes.

    Transaction addresses are interpreted as raw function identifiers (the
    FCB is not memory mapped).  Burst transactions present up to four words
    under a single request; the device acknowledges each beat and the next
    beat is presented immediately, giving the low per-word latency the paper
    attributes to the interface.
    """

    #: The co-processor port is private to the CPU: no arbitration, only the
    #: opcode issue itself.
    ARBITRATION_CYCLES = 0
    RECOVERY_CYCLES = 0
    #: Largest natively supported burst (quad-word, Section 2.3.2).
    MAX_BURST_WORDS = 4

    def __init__(
        self,
        name: str,
        slave: FCBSlaveBundle,
        base_address: int = 0,
    ) -> None:
        super().__init__(name, slave)
        self.base_address = base_address  # unused; kept for interface parity
        self._phase = "idle"
        self._word_index = 0
        # Per-transaction facts hoisted out of the per-cycle FSM (see
        # PLBMaster for rationale): direction, total beats, strobe pending.
        self._active_write = False
        self._active_total = 0
        self._register_tick()

    def _wake_signals(self):
        # A parked FCB master resumes on the beat acknowledge or read response.
        return [self.slave.ack, self.slave.resp_valid]

    # -- FSM IR ----------------------------------------------------------------

    def _fsm_helpers(self) -> Dict[str, object]:
        return {"h_complete": self._complete, "h_finish": self._finish}

    def _fsm_consts(self) -> Dict[str, int]:
        return {**super()._fsm_consts(), "MAXB": self.MAX_BURST_WORDS}

    def _fsm_external_states(self) -> tuple:
        return ("request",)  # entered by _begin()

    def _fsm_protocol_states(self) -> Dict[str, tuple]:
        """The FCB opcode protocol as FSM IR (request / wait_ack / next_beat).

        The machine is parked (``Active(False)``) from each request or beat
        presentation until ACK / RESP_VALID wakes it; burst beats drop
        DATA_VALID for one delimiting cycle between acknowledges so the
        peripheral can tell consecutive beats apart.
        """
        return {
            "wait_ack": (
                If(
                    "m._active_write",
                    (
                        If(
                            "ack._value",
                            (
                                Exec("m._word_index += 1"),
                                If(
                                    "m._word_index < m._active_total",
                                    (
                                        # Delimit consecutive burst beats.
                                        Schedule("data_valid", "0"),
                                        Goto("next_beat"),
                                    ),
                                    orelse=(Call("h_finish", args="m.active"),),
                                ),
                                Active("True"),
                            ),
                        ),
                    ),
                    orelse=(
                        If(
                            "resp_valid._value",
                            (
                                Exec("m.active.results.append(data_from_slave._value)"),
                                Exec("m._word_index += 1"),
                                If(
                                    "m._word_index >= m._active_total",
                                    (Call("h_finish", args="m.active"),),
                                ),
                                Active("True"),
                            ),
                        ),
                    ),
                ),
            ),
            "request": (
                # REQ strobes for one cycle (kernel-cleared pulse).
                Pulse("req"),
                Schedule("is_write", "1 if m._active_write else 0"),
                Schedule("func_sel", "m.active.address"),
                Schedule("burst_len", "min(m._active_total, MAXB)"),
                If(
                    "m._active_write",
                    (
                        Schedule("data_to_slave", "m.active.data[0]"),
                        Schedule("data_valid", "1"),
                    ),
                ),
                Goto("wait_ack"),
                Active("False"),
            ),
            "next_beat": (
                Schedule("data_to_slave", "m.active.data[m._word_index]"),
                Schedule("data_valid", "1"),
                Goto("wait_ack"),
                Active("False"),
            ),
        }

    def _begin(self, transaction: BusTransaction) -> None:
        if transaction.kind.is_dma:
            raise ValueError("the FCB is not memory accessible and therefore has no DMA support")
        is_write = transaction.kind.is_write
        word_total = len(transaction.data) if is_write else transaction.word_count
        if word_total > self.MAX_BURST_WORDS and transaction.kind in (
            TransactionKind.BURST_READ,
            TransactionKind.BURST_WRITE,
        ):
            raise ValueError(
                f"FCB bursts move at most {self.MAX_BURST_WORDS} words, got {word_total}"
            )
        self._word_index = 0
        self._active_write = is_write
        self._active_total = word_total
        self._phase = "request"

    def _finish(self, transaction: BusTransaction) -> None:
        slave = self.slave
        slave.data_valid.next = 0
        slave.data_to_slave.next = 0
        slave.is_write.next = 0
        slave.func_sel.next = 0
        slave.burst_len.next = 0
        self._complete(transaction)
        self._phase = "idle"
