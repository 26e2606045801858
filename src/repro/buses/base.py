"""Shared machinery for bus masters and slave bundles.

Each bus declares its slave-side signals once, as the ``DESCRIPTION`` table
of its :class:`SlaveBundle` subclass: ``(direction, attribute, native name,
width)`` rows in the spirit of migen's bus ``Description`` layouts.  That
one table builds the bundle's signals, gives the generated adapter its
native ports (:func:`repro.core.generation.interface.build_interface_ir`)
and binds the master's FSM signal names (:meth:`BusMaster._fsm_signals`).

A :class:`BusTransaction` describes one logical bus operation (a single-word
read or write, a burst, or a DMA block transfer).  A :class:`BusMaster`
consumes queued transactions and drives its slave bundle cycle-by-cycle per
the native protocol; the processor model waits for ``transaction.done``.

Transaction scripts
-------------------

A driver call is not one transaction but a *sequence* — every input write
beat, an optional ``CALC_DONE`` poll loop, every result read beat, with the
processor's inter-operation gap between consecutive operations.  Driving
that sequence one ``submit``/wait/``step(gap)`` round trip at a time keeps
the whole call on the Python side of the kernel boundary.  A
:class:`TransactionScript` instead hands the master the full sequence up
front (:meth:`BusMaster.submit_script`): the master consumes it inside its
own clocked process — charging the same inter-operation gaps, re-issuing
poll reads until the polled bit is set, and aborting the remainder when the
poll limit is hit — and reports completion by incrementing its
``script_count`` signal, which the processor waits on with a single
:class:`~repro.rtl.simulator.WaitCondition`.  The scripted execution is
cycle-for-cycle identical to the equivalent sequence of blocking
``execute`` calls (proven by ``tests/test_harness_scripting.py``).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.rtl.fsm import (
    Active,
    BoundFsm,
    Call,
    Exec,
    FsmSpec,
    If,
    Sleep,
    StateDispatch,
)
from repro.rtl.module import Module
from repro.rtl.signal import Signal


class TransactionKind(enum.Enum):
    """The kinds of bus operations generated drivers can issue."""

    READ = "read"
    WRITE = "write"
    BURST_READ = "burst_read"
    BURST_WRITE = "burst_write"
    DMA_READ = "dma_read"
    DMA_WRITE = "dma_write"

    @property
    def is_write(self) -> bool:
        return self in WRITE_KINDS

    @property
    def is_dma(self) -> bool:
        return self in DMA_KINDS


#: Membership tuples for the hot per-transaction checks: the enum properties
#: above stay as API, but per-call tuple construction was measurable in the
#: transaction-construction path on every kernel.  Tuples beat frozensets
#: here — ``in`` short-circuits on identity for enum members, skipping the
#: (surprisingly slow) Enum.__hash__.
WRITE_KINDS = (TransactionKind.WRITE, TransactionKind.BURST_WRITE, TransactionKind.DMA_WRITE)
DMA_KINDS = (TransactionKind.DMA_READ, TransactionKind.DMA_WRITE)


@dataclass(slots=True)
class BusTransaction:
    """One logical bus operation submitted by a driver.

    ``address`` is the byte address of the targeted function slot on memory
    mapped buses; on the FCB it is the raw function identifier.  Write data
    is supplied in ``data`` (one entry per bus word); read results are filled
    into ``results``.
    """

    kind: TransactionKind
    address: int
    data: List[int] = field(default_factory=list)
    word_count: int = 1
    done: bool = False
    results: List[int] = field(default_factory=list)
    issue_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in WRITE_KINDS:
            if not self.data:
                raise ValueError("write transactions require data")
            self.word_count = len(self.data)
        if self.word_count < 1:
            raise ValueError("transactions must move at least one word")

    @property
    def latency(self) -> Optional[int]:
        """Cycles from submission to completion (``None`` until done)."""
        if self.issue_cycle is None or self.complete_cycle is None:
            return None
        return self.complete_cycle - self.issue_cycle

    @property
    def result(self) -> int:
        """First result word of a completed read."""
        if not self.results:
            raise ValueError("transaction has no results (not a read, or not complete)")
        return self.results[0]


@dataclass(slots=True)
class TransactionOp:
    """One scripted bus operation: run ``transaction`` to completion."""

    transaction: BusTransaction


@dataclass(slots=True)
class PollOp:
    """One scripted poll loop: re-issue a single-word read until satisfied.

    The master clones a fresh ``(kind, address)`` read for each attempt (so
    per-attempt results never accumulate), charges the script's gap between
    attempts exactly as software polling did, and considers the loop finished
    when ``result & mask`` is non-zero.  After ``limit`` unsatisfied attempts
    the script's remaining operations are skipped and
    ``TransactionScript.poll_failed`` is set — the caller raises, matching
    the software ``WAIT_FOR_RESULTS`` failure path.
    """

    kind: TransactionKind
    address: int
    mask: int
    limit: int


ScriptOp = Union[TransactionOp, PollOp]


class TransactionScript:
    """A full driver-call beat sequence queued on a master at once.

    ``gap`` is the inter-operation gap (in cycles) charged after every
    completed operation, including the last — mirroring the blocking
    processor model, which steps the gap after every ``execute``.  ``done``
    flips when the trailing gap has elapsed; ``transactions`` counts every
    completed bus transaction (poll attempts included), ``polls`` counts
    poll attempts alone.  With ``record`` set, every completed transaction
    object is kept in ``executed`` (off by default: campaign-scale runs must
    not grow memory per transaction).
    """

    __slots__ = (
        "ops",
        "gap",
        "record",
        "done",
        "poll_failed",
        "transactions",
        "polls",
        "executed",
    )

    def __init__(self, ops: Sequence[ScriptOp], gap: int = 0, record: bool = False) -> None:
        self.ops: List[ScriptOp] = list(ops)
        self.gap = int(gap)
        self.record = record
        self.done = False
        self.poll_failed = False
        self.transactions = 0
        self.polls = 0
        self.executed: List[BusTransaction] = []


#: Direction of a :attr:`SlaveBundle.DESCRIPTION` row: driven by the bus
#: master toward the slave, or by the slave back toward the master.
M_TO_S = "m_to_s"
S_TO_M = "s_to_m"


class SlaveBundle:
    """The signal bundle a peripheral's slave port exposes.

    Each bus declares its slave signals once, as ``DESCRIPTION`` rows of
    ``(direction, attribute, native name, width)``; ``width`` is a bit count
    or the name of a sizing attribute (``data_width``, ``data_bytes``,
    ``num_slots``, ``func_id_width``).  The constructor builds ``rst`` plus
    one ``Signal`` named ``<name>.<NATIVE>`` per row, stored under the row's
    attribute.  The same rows give the adapter its native ports
    (:meth:`ports`) and the bus master its FSM signal bindings.
    """

    DESCRIPTION: Tuple[Tuple[str, str, str, Union[int, str]], ...] = ()

    def __init__(self, name: str, data_width: int = 32, func_id_width: int = 4) -> None:
        self.name = name
        self.data_width = data_width
        self.data_bytes = data_width // 8
        self.func_id_width = func_id_width
        self.num_slots = 1 << func_id_width
        self.rst = Signal(f"{name}.RST", 1)
        for _direction, attribute, native, width in self.DESCRIPTION:
            if isinstance(width, str):
                width = getattr(self, width)
            setattr(self, attribute, Signal(f"{name}.{native}", width))

    def signals(self) -> List[Signal]:
        return [self.rst, *(getattr(self, row[1]) for row in self.DESCRIPTION)]

    def ports(self) -> List[Tuple[str, int, str]]:
        """``(native name, width, direction)`` of every described signal."""
        return [
            (native, getattr(self, attribute).width, direction)
            for direction, attribute, native, _width in self.DESCRIPTION
        ]


class BusMaster(Module):
    """Common transaction queue / bookkeeping for every bus master model.

    Subclasses describe their native protocol as FSM IR states
    (:meth:`_fsm_protocol_states`); the shared base frame built by
    :meth:`_fsm_spec` advances the machine one cycle per clock.  Masters are
    fully clocked — they register no combinational processes — so on cycles
    where a master sits idle and schedules no differing signal value, the
    event-driven kernel's settle-skipping fast path applies.

    Masters also opt into the compiled kernel's wait-state elision: the
    clocked process declares the slave handshake signals it reacts to (the
    :meth:`_wake_signals` hook) plus an internal ``WAKE`` signal toggled by
    :meth:`submit` / :meth:`submit_script`, and reports quiescence whenever
    it is parked — idle with nothing queued, or holding a request steady
    while the peripheral has not yet acknowledged.  Cycle bookkeeping
    (``_cycle``, ``total_busy_cycles``) is resynchronised from the
    simulator's cycle counter on wake-up, so the elided cycles are accounted
    exactly as if the process had run.
    """

    #: Cycles of master-side overhead (arbitration, address decode) charged
    #: before the slave sees each new request.  Subclasses override.
    ARBITRATION_CYCLES = 0
    #: Idle cycles inserted after a transaction completes.
    RECOVERY_CYCLES = 1

    #: Width of the completion/script count signals; counts wrap, so waits
    #: use equality against a masked target (wrap-safe for a blocking CPU).
    COUNT_WIDTH = 32

    def __init__(self, name: str, slave: SlaveBundle) -> None:
        super().__init__(name)
        self.slave = slave
        self._queue: Deque[BusTransaction] = deque()
        self.active: Optional[BusTransaction] = None
        self.completed: List[BusTransaction] = []
        self._cycle = 0
        self.total_busy_cycles = 0
        #: Keep completed transaction objects in ``completed``.  Campaign
        #: runs switch this off: the counters below keep counting either way.
        self.record_transactions = True
        self._completed_total = 0
        self._scripts_total = 0
        #: Completion-count signal: increments (mod 2**COUNT_WIDTH) when a
        #: transaction completes, visible the same cycle ``done`` is set.
        #: The processor waits on it instead of polling a Python lambda.
        self.completion_count = self.signal("COMPLETIONS", width=self.COUNT_WIDTH)
        #: Script-count signal: increments when a queued script (trailing
        #: gap included) finishes.
        self.script_count = self.signal("SCRIPTS", width=self.COUNT_WIDTH)
        self._script: Optional[TransactionScript] = None
        self._script_pc = 0
        self._script_attempts = 0
        self._gap_left = 0
        #: Toggled by submit()/submit_script() so a sleeping (elided) master
        #: wakes on the very next cycle — the same cycle it would have popped
        #: the queue had it been running.
        self._wake = self.signal("WAKE", width=1)
        self.fsm: Optional[BoundFsm] = None
        # Subclasses finish their own construction (protocol registers,
        # request-signal groups) and then call _register_tick(), which
        # builds the FSM-IR machine.

    def _register_tick(self) -> None:
        """Build the FSM-IR machine and register it as the clocked process.

        Called at the end of every subclass ``__init__`` (the IR machine's
        bindings reference protocol registers the subclass creates after
        ``super().__init__``).
        """
        self.fsm = BoundFsm(
            self._fsm_spec(),
            self,
            signals=self._fsm_signals(),
            groups=self._fsm_groups(),
            helpers={
                "h_finish_script": self._finish_script,
                "h_start_script_op": self._start_script_op,
                "h_pop_queue": self._pop_queue,
                **self._fsm_helpers(),
            },
            consts=self._fsm_consts(),
        )
        self.clocked(
            self.fsm.tick, sensitive_to=[self._wake] + list(self._wake_signals())
        )

    # -- FSM IR assembly ------------------------------------------------------

    #: Scratch names shared by the base frame and every protocol spec.
    _FSM_BASE_TEMPS = ("go", "c1", "sk", "tx", "txn", "tot", "slot")

    def _fsm_spec(self) -> FsmSpec:
        """Assemble the master's machine: shared base frame + protocol states.

        The spec depends only on the concrete master class (instance facts —
        base address, widths — are const *bindings*, not spec structure), so
        it is built once per class and shared: spec validation and the
        standalone-tick codegen are amortised across every instance.

        The entry tree does the per-cycle bookkeeping every master shares.
        Elision-proof cycle accounting: the counter is resynchronised from
        the simulator, and busy cycles skipped while parked mid-transaction
        (possible only in an acknowledge wait, where the bus stays busy) are
        credited on wake-up — identical totals to running every cycle.
        Then the inter-operation gap countdown (the bus sits idle exactly as
        it did between blocking ``execute()`` calls), script-op start and
        queue pop; an idle master with nothing queued sleeps until a submit
        toggles ``WAKE``.  It dispatches into the subclass's protocol states
        only when a transaction is (or just became) active.
        Transaction-boundary work (``_begin`` via the pop/start helpers,
        ``_complete``, script bookkeeping) stays in Python helpers;
        everything that runs on ordinary bus cycles is IR.
        """
        cached = type(self).__dict__.get("_fsm_spec_cache")
        if cached is not None:
            return cached
        entry = (
            Exec("go = 0"),
            Exec("c1 = CYCLE + 1"),
            If(
                "m.active is not None",
                (
                    Exec("sk = c1 - m._cycle - 1"),
                    If("sk > 0", (Exec("m.total_busy_cycles += sk"),)),
                ),
            ),
            Exec("m._cycle = c1"),
            If(
                "m.active is None",
                (
                    If(
                        "m._gap_left",
                        (
                            Exec("m._gap_left -= 1"),
                            If(
                                "not m._gap_left and m._script is not None "
                                "and m._script_pc >= len(m._script.ops)",
                                (Call("h_finish_script"),),
                            ),
                            Active("True"),
                        ),
                        orelse=(
                            If(
                                "m._script is not None",
                                (
                                    Call("h_start_script_op", store="tx"),
                                    If(
                                        "tx is None",
                                        (Active("True"),),
                                        orelse=(
                                            Exec("m.total_busy_cycles += 1; go = 1"),
                                        ),
                                    ),
                                ),
                                orelse=(
                                    If(
                                        "m._queue",
                                        (
                                            Call("h_pop_queue"),
                                            Exec("m.total_busy_cycles += 1; go = 1"),
                                        ),
                                        orelse=(Active("False"),),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
                orelse=(Exec("m.total_busy_cycles += 1; go = 1"),),
            ),
            If("go", (StateDispatch(),)),
        )
        states = dict(self._fsm_protocol_states())
        states["idle"] = ()
        spec = FsmSpec(
            name=f"{type(self).__name__.lower()}",
            entry=entry,
            states=states,
            initial="idle",
            state_attr="_phase",
            external_states=self._fsm_external_states(),
            signals=tuple(self._fsm_signals()),
            groups=tuple(self._fsm_groups()),
            helpers=(
                "h_finish_script",
                "h_start_script_op",
                "h_pop_queue",
                *self._fsm_helpers(),
            ),
            consts=tuple(self._fsm_consts()),
            temps=self._FSM_BASE_TEMPS,
        )
        type(self)._fsm_spec_cache = spec
        return spec

    @staticmethod
    def _fsm_countdown(next_ops) -> tuple:
        """The shared delay-countdown pattern (arbitration, bridge, recovery).

        Expressed against the elision-proof cycle counter so the machine can
        sleep through the wait on kernels with timed wakes (:class:`Sleep`).
        """
        return (
            If(
                "m._delay_until is None",
                (Exec("m._delay_until = m._cycle + m._delay"),),
            ),
            If(
                "m._cycle < m._delay_until",
                (Sleep("m._delay_until - m._cycle"),),
                orelse=(Exec("m._delay_until = None"), *next_ops),
            ),
        )

    def _fsm_protocol_states(self) -> Dict[str, tuple]:  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{type(self).__name__} must describe its protocol as FSM IR "
            f"states (override _fsm_protocol_states)"
        )

    def _fsm_external_states(self) -> tuple:
        """Protocol states entered by Python helpers (``_begin``) rather
        than by an IR transition."""
        return ()

    def _fsm_signals(self) -> Dict[str, object]:
        slave = self.slave
        return {row[1]: getattr(slave, row[1]) for row in slave.DESCRIPTION}

    def _fsm_groups(self) -> Dict[str, tuple]:
        return {}

    def _fsm_helpers(self) -> Dict[str, object]:
        return {"h_complete": self._complete}

    def _fsm_consts(self) -> Dict[str, int]:
        return {
            "ARB": type(self).ARBITRATION_CYCLES,
            "RECOV": type(self).RECOVERY_CYCLES,
        }

    def _wake_signals(self) -> List:
        """Slave-side signals whose changes must wake a parked master.

        Subclasses with request/acknowledge protocols return their ack /
        response signals; strictly synchronous masters (fixed-latency FSMs
        that are active on every busy cycle) can return nothing.
        """
        return []

    def _now(self) -> int:
        """The current bus cycle, valid even while this process is elided."""
        sim = self._simulator
        return sim.cycle if sim is not None else self._cycle

    # -- driver-facing API ----------------------------------------------------

    def submit(self, transaction: BusTransaction) -> BusTransaction:
        """Queue ``transaction`` for execution; returns it for convenience."""
        transaction.issue_cycle = self._now()
        self._queue.append(transaction)
        wake = self._wake
        wake.drive(1 - wake._value)
        return transaction

    def submit_script(self, script: TransactionScript) -> TransactionScript:
        """Queue a full transaction script for in-master execution.

        Only one script may be in flight, and it takes priority over plainly
        queued transactions (the blocking processor model never mixes the
        two).  An empty script is completed by the caller without touching
        the simulation.
        """
        if self._script is not None:
            raise ValueError(f"master {self.name!r} already has a script in flight")
        self._script = script
        self._script_pc = 0
        self._script_attempts = 0
        wake = self._wake
        wake.drive(1 - wake._value)
        return script

    @property
    def idle(self) -> bool:
        """True when no transaction or script is active or pending."""
        return self.active is None and not self._queue and self._script is None

    @property
    def pending(self) -> int:
        return len(self._queue) + (1 if self.active is not None else 0)

    # -- statistics -----------------------------------------------------------

    @property
    def transactions_completed(self) -> int:
        return self._completed_total

    def utilization(self) -> float:
        """Fraction of simulated cycles during which the bus was busy."""
        cycles = self._now()
        if cycles == 0:
            return 0.0
        return self.total_busy_cycles / cycles

    # -- simulation -------------------------------------------------------------

    def _pop_queue(self) -> BusTransaction:
        """Pop the next queued transaction and begin it (IR helper)."""
        active = self.active = self._queue.popleft()
        if active.issue_cycle is None:
            active.issue_cycle = self._cycle
        self._begin(active)
        return active

    def _start_script_op(self) -> Optional[BusTransaction]:
        script = self._script
        if self._script_pc >= len(script.ops):
            # Only reachable with gap == 0 (otherwise the gap countdown
            # finishes the script): complete it without consuming a cycle.
            self._finish_script()
            return None
        op = script.ops[self._script_pc]
        if type(op) is PollOp:
            transaction = BusTransaction(op.kind, op.address, word_count=1)
        else:
            transaction = op.transaction
        self.active = transaction
        if transaction.issue_cycle is None:
            transaction.issue_cycle = self._cycle
        self._begin(transaction)
        return transaction

    def _script_txn_done(self, script: TransactionScript, transaction: BusTransaction) -> None:
        script.transactions += 1
        if script.record:
            script.executed.append(transaction)
        op = script.ops[self._script_pc]
        if type(op) is PollOp:
            script.polls += 1
            self._script_attempts += 1
            if transaction.results and (transaction.results[0] & op.mask):
                self._script_pc += 1
                self._script_attempts = 0
            elif self._script_attempts >= op.limit:
                # Poll limit exhausted: skip the remaining operations; the
                # caller observes poll_failed and raises, exactly where the
                # software poll loop would have.
                script.poll_failed = True
                self._script_pc = len(script.ops)
                self._script_attempts = 0
        else:
            self._script_pc += 1
        if script.gap:
            self._gap_left = script.gap
        elif self._script_pc >= len(script.ops):
            self._finish_script()

    def _finish_script(self) -> None:
        script = self._script
        self._script = None
        script.done = True
        self._scripts_total += 1
        self.script_count.next = self._scripts_total

    def _complete(self, transaction: BusTransaction) -> None:
        """Mark the active transaction finished."""
        transaction.done = True
        transaction.complete_cycle = self._cycle
        self._completed_total += 1
        self.completion_count.schedule(self._completed_total)
        if self.record_transactions:
            self.completed.append(transaction)
        self.active = None
        if self._script is not None:
            self._script_txn_done(self._script, transaction)

    # -- subclass hooks -------------------------------------------------------

    def _begin(self, transaction: BusTransaction) -> None:
        """Called once when ``transaction`` becomes active."""
