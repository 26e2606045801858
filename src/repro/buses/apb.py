"""AMBA Peripheral Bus (APB) model.

The APB is the paper's example of a *strictly synchronous* interface
(Section 2.3.1): peripherals are not allowed to pause the bus, every access
completes in a fixed setup + access cycle pair, and read data must be valid
during the access cycle.  Consequently the generated software drivers must
poll the ``CALC_DONE`` status register (function identifier zero) before
reading results (Section 4.2.2).

Peripherals hang off an AHB-to-APB bridge, which adds a small fixed latency
to every transaction.
"""

from __future__ import annotations

from typing import Dict

from repro.buses.base import M_TO_S, S_TO_M, BusMaster, BusTransaction, SlaveBundle
from repro.rtl.fsm import Active, Call, Exec, Goto, If, Redispatch, Schedule


class APBSlaveBundle(SlaveBundle):
    """Signals visible to an APB-attached peripheral."""

    DESCRIPTION = (
        (M_TO_S, "psel", "PSEL", 1),
        (M_TO_S, "penable", "PENABLE", 1),
        (M_TO_S, "pwrite", "PWRITE", 1),
        (M_TO_S, "paddr", "PADDR", 32),
        (M_TO_S, "pwdata", "PWDATA", "data_width"),
        (S_TO_M, "prdata", "PRDATA", "data_width"),
    )


class APBMaster(BusMaster):
    """Drives an :class:`APBSlaveBundle` with fixed two-cycle accesses."""

    #: AHB access plus the AHB-to-APB bridge crossing.
    ARBITRATION_CYCLES = 3
    RECOVERY_CYCLES = 1

    def __init__(
        self,
        name: str,
        slave: APBSlaveBundle,
        base_address: int = 0,
    ) -> None:
        super().__init__(name, slave)
        self.base_address = base_address
        self._phase = "idle"
        self._delay = 0
        self._delay_until = None
        self._word_index = 0
        # Per-transaction facts hoisted out of the per-cycle FSM (see
        # PLBMaster for rationale).
        self._active_write = False
        self._active_total = 0
        self._register_tick()

    # -- FSM IR ----------------------------------------------------------------

    def _fsm_consts(self) -> Dict[str, int]:
        return {**super()._fsm_consts(), "WORDB": self.slave.data_width // 8}

    def _fsm_external_states(self) -> tuple:
        return ("bridge",)  # entered by _begin()

    def _fsm_protocol_states(self) -> Dict[str, tuple]:
        """The strictly synchronous APB transfer as FSM IR.

        Outside the bridge/recovery countdowns (which sleep under timed
        wakes), every phase makes progress each cycle — the machine is
        active on every access cycle and declares no wake signals.
        """
        return {
            "setup": (
                Schedule("psel", "1"),
                Schedule("penable", "0"),
                Schedule("pwrite", "1 if m._active_write else 0"),
                Schedule("paddr", "m.active.address + m._word_index * WORDB"),
                If(
                    "m._active_write",
                    (Schedule("pwdata", "m.active.data[m._word_index]"),),
                ),
                Goto("access"),
                Active("True"),
            ),
            "access": (
                Schedule("penable", "1"),
                Goto("complete"),
                Active("True"),
            ),
            "complete": (
                # The access cycle has committed: the slave saw PENABLE this
                # cycle and read data (if any) is now on PRDATA.
                If(
                    "not m._active_write",
                    (Exec("m.active.results.append(prdata._value)"),),
                ),
                Schedule("psel", "0"),
                Schedule("penable", "0"),
                Schedule("pwrite", "0"),
                Schedule("pwdata", "0"),
                Exec("m._word_index += 1"),
                If(
                    "m._word_index < m._active_total",
                    (Goto("setup"),),
                    orelse=(Exec("m._delay = RECOV"), Goto("recover")),
                ),
                Active("True"),
            ),
            "bridge": self._fsm_countdown((Goto("setup"), Redispatch())),
            "recover": self._fsm_countdown(
                (
                    Call("h_complete", args="m.active"),
                    Goto("idle"),
                    Active("True"),
                )
            ),
        }

    def _begin(self, transaction: BusTransaction) -> None:
        if transaction.kind.is_dma:
            raise ValueError("the APB has no DMA support")
        self._word_index = 0
        self._active_write = transaction.kind.is_write
        self._active_total = (
            len(transaction.data) if self._active_write else transaction.word_count
        )
        self._phase = "bridge"
        self._delay = self.ARBITRATION_CYCLES
