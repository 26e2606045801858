"""Cycle-driven simulation engines: the event-driven kernel and its oracle.

(A third kernel, the levelized :class:`repro.rtl.compile.CompiledSimulator`,
shares this registration API and is proven cycle-exact against both kernels
here by ``tests/test_kernel_equivalence.py``.)

Two kernels live in this module:

* :class:`Simulator` — the **event-driven kernel** used everywhere by
  default.  Signals report changes into a per-simulator dirty set (see
  :meth:`repro.rtl.signal.Signal.bind`), combinational processes declare
  *sensitivity lists* (``add_comb(proc, sensitive_to=[...])``), and the
  settle phase only re-runs processes whose inputs changed.  When a cycle's
  clocked phase commits no differing value, settle is skipped entirely (the
  *fast path*), so an idle design costs only its clocked processes.
* :class:`ReferenceSimulator` — the original snapshot-based kernel kept
  verbatim as the differential-testing oracle.  Its settle phase re-runs
  *every* combinational process and compares full signal-vector snapshots
  until a pass changes nothing.  ``tests/test_kernel_equivalence.py`` proves
  the two kernels produce cycle-identical traces on all four buses.

Both kernels advance one clock cycle at a time:

1. **clocked phase** — every registered clocked process runs once, reading
   the *current* values of signals and scheduling updates via ``sig.next``.
2. **commit phase** — all pending ``next`` assignments are applied at once,
   which models all flip-flops updating on the same clock edge.  (The
   event-driven kernel only visits signals that actually scheduled a value.)
3. **combinational settle** — combinational processes run (driving values
   with :meth:`repro.rtl.signal.Signal.drive`) until no signal changes or
   the iteration limit is hit, which flags a combinational loop.

Sensitivity lists and the purity contract
-----------------------------------------

``add_comb(proc, sensitive_to=[sig, ...])`` declares that ``proc`` reads
only the listed signals; the event-driven kernel re-runs it exactly when one
of them changed.  Omitting ``sensitive_to`` falls back to *run always*
semantics for legacy callers: the process re-runs on every settle pass, like
the reference kernel — but settle itself is still skipped on cycles where no
signal changed at all.  Both modes therefore assume combinational processes
are **pure functions of signal values**: a process that reads non-signal
Python state mutated elsewhere may not be re-run when that state changes.
Every in-tree combinational process satisfies this contract.

When the fast path applies
--------------------------

``step()`` skips the settle phase for a cycle when the commit phase changed
no signal value and nothing was driven since the previous settle.  Because
combinational outputs are pure functions of signal values and were already
at a fixed point, re-running them could not change anything.  Designs that
spend most cycles idle (e.g. a bus master waiting on a peripheral) run at
clocked-process cost only; :class:`SimulatorStats` counts how often the fast
path fired.

This is the classical two-phase synchronous model used by cycle-based HDL
simulators; it is sufficient for every protocol in the paper because all
four target buses are single-clock synchronous interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.rtl.signal import Signal


class SimulationError(RuntimeError):
    """Raised for structural simulation problems (e.g. combinational loops)."""


#: Sentinel for "no fault scheduled" — one integer compare per cycle is the
#: whole cost of fault support on a clean design.  Matches the compiled
#: kernel's timed-wake sentinel (``repro.rtl.compile._NEVER``).
_NEVER = 1 << 62


Process = Callable[[], None]


@dataclass(frozen=True)
class WaitCondition:
    """A declarative wait target: ``signal <op> value``.

    Testbench code that previously polled a Python lambda every cycle
    (``run_until(lambda: txn.done)``) can instead wait on a *signal* — for
    example a bus master's completion-count signal — which every kernel can
    evaluate without calling back into Python.  The event and reference
    kernels check the condition in a tight per-cycle loop (cycle-exact with
    ``run_until``: the condition is evaluated before each step); the compiled
    kernel lowers the check into its generated fused step loop, so a whole
    wait executes as one native-speed call.

    ``op`` is ``"=="`` (the default, wrap-safe for counters that increment by
    one per event) or ``">="`` (monotonic thresholds).  ``value`` is compared
    against the signal's committed value, masked to the signal's width.
    """

    signal: Signal
    value: int
    op: str = "=="

    def __post_init__(self) -> None:
        if self.op not in ("==", ">="):
            raise ValueError(f"unsupported wait op {self.op!r} (use '==' or '>=')")
        object.__setattr__(self, "value", int(self.value) & self.signal._mask)

    def satisfied(self) -> bool:
        """Whether the condition currently holds."""
        if self.op == "==":
            return self.signal._value == self.value
        return self.signal._value >= self.value


@dataclass
class SimulatorStats:
    """Counters describing how much work the kernel performed.

    ``fast_path_cycles`` counts cycles on which the settle phase was skipped
    because no signal changed during the commit phase.  The reference kernel
    never takes the fast path, so comparing the two objects for the same
    stimulus shows what the event-driven scheduler saved.

    ``leaped_cycles`` counts cycles the compiled kernel's cycle-leaping mode
    skipped outright (every machine parked, no events pending, monitors
    quiet): they are included in ``cycles`` but no per-cycle code ran for
    them.  Scan kernels execute every cycle, so the counter stays 0 there;
    ``executed_cycles`` is always ``cycles - leaped_cycles``.
    """

    cycles: int = 0
    settle_calls: int = 0
    settle_iterations: int = 0
    comb_activations: int = 0
    clocked_activations: int = 0
    fast_path_cycles: int = 0
    leaped_cycles: int = 0

    @property
    def executed_cycles(self) -> int:
        """Cycles on which per-cycle code actually ran (total minus leaped)."""
        return self.cycles - self.leaped_cycles

    def reset(self) -> None:
        """Zero every counter (done automatically by ``Simulator.reset``)."""
        self.cycles = 0
        self.settle_calls = 0
        self.settle_iterations = 0
        self.comb_activations = 0
        self.clocked_activations = 0
        self.fast_path_cycles = 0
        self.leaped_cycles = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cycles": self.cycles,
            "settle_calls": self.settle_calls,
            "settle_iterations": self.settle_iterations,
            "comb_activations": self.comb_activations,
            "clocked_activations": self.clocked_activations,
            "fast_path_cycles": self.fast_path_cycles,
            "leaped_cycles": self.leaped_cycles,
            "executed_cycles": self.executed_cycles,
        }

    def report(self) -> str:
        """Render the counters as an aligned, human-readable block."""
        rows = self.as_dict()
        width = max(len(k) for k in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows.items())


class Simulator:
    """Event-driven, synchronous, single-clock cycle-based simulator.

    Parameters
    ----------
    max_settle_iterations:
        Upper bound on combinational settle passes per cycle before a
        combinational loop is reported.
    """

    #: Whether this kernel honours :meth:`wake_after` (timed wakes).  Scan
    #: kernels run every clocked process on every cycle, so a countdown
    #: process gains nothing from announcing its wake time; processes check
    #: this flag to skip the bookkeeping entirely.
    timed_wakes = False

    def __init__(self, max_settle_iterations: int = 64) -> None:
        self._signals: List[Signal] = []
        self._clocked: List[Process] = []
        self._comb: List[Process] = []
        self._always_comb: List[Process] = []
        self._sensitive: Dict[Signal, List[Process]] = {}
        self._monitors: List[Process] = []
        self._dirty: Set[Signal] = set()
        self._scheduled: Set[Signal] = set()
        self.max_settle_iterations = max_settle_iterations
        self.cycle = 0
        self.stats = SimulatorStats()
        # Registration-order index per comb process: lets settle sort a
        # triggered subset instead of filtering the full process list.
        self._comb_index: Dict[Process, int] = {}
        # Full declarations, kept for the compiled kernel (and introspection):
        # (process, sensitivity, drives) per comb process and
        # (process, sensitivity) per clocked process.  The event/reference
        # kernels ignore ``drives`` and clocked sensitivity entirely.
        self._comb_decls: List[tuple] = []
        self._clocked_decls: List[tuple] = []
        # Fault injection (see repro.faults): an attached controller and the
        # next absolute cycle carrying a scheduled fault.
        self._faults = None
        self._next_fault = _NEVER

    # -- registration ------------------------------------------------------

    def add_signal(self, signal: Signal) -> Signal:
        """Track ``signal`` so commits and resets include it.

        Registration binds the signal's event observer to this simulator and
        marks it dirty, so the first settle pass sees every signal as a
        potential input change (mirroring the reference kernel, which always
        runs every combinational process on the first cycle).
        """
        self._signals.append(signal)
        signal.bind(self)
        self._dirty.add(signal)
        if signal._next is not None:
            # A next value scheduled before registration (observer not yet
            # bound) must still be committed on the next cycle.
            self._scheduled.add(signal)
        return signal

    def add_signals(self, signals: Iterable[Signal]) -> None:
        for sig in signals:
            self.add_signal(sig)

    def signal(self, name: str, width: int = 1, reset: int = 0) -> Signal:
        """Create and register a new signal."""
        return self.add_signal(Signal(name, width=width, reset=reset))

    def add_clocked(
        self, process: Process, sensitive_to: Optional[Sequence[Signal]] = None
    ) -> Process:
        """Register a process executed once per rising clock edge.

        ``sensitive_to`` optionally declares the complete set of signals the
        process reads.  This kernel (and the reference kernel) runs every
        clocked process on every cycle regardless; the declaration is the
        opt-in for the compiled kernel's wait-state elision (see
        :class:`repro.rtl.compile.CompiledSimulator`), under which the
        process must return a truthy value from any invocation after which
        re-running it with unchanged declared inputs would *not* be a no-op.
        """
        self._clocked.append(process)
        self._clocked_decls.append(
            (process, tuple(sensitive_to) if sensitive_to is not None else None)
        )
        return process

    def add_comb(
        self,
        process: Process,
        sensitive_to: Optional[Sequence[Signal]] = None,
        drives: Optional[Sequence[Signal]] = None,
    ) -> Process:
        """Register a combinational process run during the settle phase.

        ``sensitive_to`` lists the signals the process reads; the settle
        phase re-runs it only when one of them changed.  When omitted, the
        process falls back to *run always* semantics (re-run on every settle
        pass), which is correct for any pure process at the cost of extra
        activations.  ``drives`` lists the signals the process may drive;
        this kernel ignores it, but the compiled kernel requires it to
        levelize the combinational network at compile time.
        """
        self._comb_index.setdefault(process, len(self._comb))
        self._comb.append(process)
        self._comb_decls.append(
            (
                process,
                tuple(sensitive_to) if sensitive_to is not None else None,
                tuple(drives) if drives is not None else None,
            )
        )
        if sensitive_to is None:
            self._always_comb.append(process)
        else:
            for sig in sensitive_to:
                self._sensitive.setdefault(sig, []).append(process)
        return process

    def add_monitor(self, process: Process) -> Process:
        """Register a monitor run after every cycle (never drives signals)."""
        self._monitors.append(process)
        return process

    def wake_after(self, process: Process, cycles: int) -> None:
        """Request a timed wake for an elidable clocked process (no-op here).

        A gated process sitting in a *pure countdown* — a state whose next
        ``cycles - 1`` re-runs would provably do nothing but decrement a
        counter, regardless of input changes — may call this and then report
        quiescence.  Kernels with ``timed_wakes`` (the compiled kernel) skip
        the process until the target cycle or an earlier declared-input
        change; this kernel runs every clocked process every cycle anyway, so
        the request is discarded.  Processes must derive their countdown from
        the simulator cycle (not from run counts), so being run *more* often
        than requested is always safe.

        ``cycles`` is clamped to at least 1 on every kernel: a zero (or
        negative) request means "wake on the *next* cycle", never "re-run
        within the current cycle".  A zero-cycle target would name the cycle
        currently executing, which the wake queue may already have drained —
        the request could be missed or double-delivered depending on where
        the pop runs inside the fused loop, so it is defined away.
        """

    @property
    def signals(self) -> List[Signal]:
        """The registered signals, in registration order."""
        return list(self._signals)

    def register_module(self, module) -> None:
        """Register a :class:`repro.rtl.module.Module` and its children."""
        module.attach(self)

    # -- signal event hooks (called by bound Signals) ----------------------

    def _signal_scheduled(self, signal: Signal) -> None:
        self._scheduled.add(signal)

    def _signal_changed(self, signal: Signal) -> None:
        self._dirty.add(signal)

    # -- fault injection -----------------------------------------------------

    def inject_faults(self, controller) -> None:
        """Attach a :class:`repro.faults.inject.FaultController` (or detach
        with ``None``).  The controller is rebased to the current cycle, so
        its relative fault cycles count from the moment of attachment; run
        harnesses (e.g. ``SpliceInterpolator.run_scenario``) rebase again at
        each scenario start.
        """
        self._faults = controller
        if controller is None:
            self._next_fault = _NEVER
        else:
            controller.rebase(self, self.cycle)

    def _fire_faults(self) -> None:
        """Apply the fault ops due at the current cycle (post-settle).

        After the overrides land, every signal is marked dirty so the *next*
        cycle's settle re-runs the whole combinational network: a forced
        value on a comb-driven wire reverts after exactly one cycle, which
        is also what the reference kernel (settle-everything-every-cycle)
        does — the differential contract under injection depends on it.
        """
        self._faults.fire(self)
        self._dirty.update(self._signals)

    # -- execution -----------------------------------------------------------

    def reset(self) -> None:
        """Reset all registered signals, the cycle counter, and the stats.

        Reset→settle contract: after every signal returns to its reset value
        (clearing any pending ``next``), one settle phase re-derives all
        combinational outputs *before* ``reset()`` returns, so monitors and
        trace recorders observe a fully consistent design on the first
        ``step()`` after reset.  Monitors are **not** invoked during reset —
        traces begin with the first post-reset cycle.  When no combinational
        processes exist the settle is a no-op and the reset values stand as
        committed; this is safe because with no processes there is nothing
        whose outputs could be stale.  ``SimulatorStats`` is cleared last, so
        the reset-time settle is not counted against the run.
        """
        for sig in self._signals:
            sig.reset()
        self._scheduled.clear()
        self._dirty.clear()
        self._dirty.update(self._signals)
        self.settle()
        self.cycle = 0
        if self._faults is not None:
            self._faults.rebase(self, 0)
        self.stats.reset()

    def settle(self) -> int:
        """Run triggered combinational processes until signals stop changing.

        Returns the number of settle passes used (0 when nothing was dirty).
        """
        dirty = self._dirty
        if not dirty:
            return 0
        comb = self._comb
        if not comb:
            dirty.clear()
            return 0
        stats = self.stats
        stats.settle_calls += 1
        sensitive = self._sensitive
        always = self._always_comb
        comb_index = self._comb_index
        iterations = 0
        while dirty:
            if iterations >= self.max_settle_iterations:
                raise SimulationError(
                    "combinational logic failed to settle within "
                    f"{self.max_settle_iterations} iterations (possible combinational loop)"
                )
            iterations += 1
            triggered = set(always)
            for sig in dirty:
                procs = sensitive.get(sig)
                if procs:
                    triggered.update(procs)
            dirty.clear()
            if not triggered:
                break
            if len(triggered) == len(comb):
                to_run: Sequence[Process] = comb
            else:
                # Preserve registration order for the triggered subset by
                # sorting it on the precomputed registration index —
                # O(t log t) in the triggered count rather than a filter
                # over every registered process.
                to_run = sorted(triggered, key=comb_index.__getitem__)
            for proc in to_run:
                proc()
            stats.comb_activations += len(to_run)
        stats.settle_iterations += iterations
        return iterations

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation ``cycles`` clock cycles.

        Cycles on which the commit phase changes no signal value skip the
        settle phase entirely (counted in ``stats.fast_path_cycles``).
        """
        clocked = self._clocked
        scheduled = self._scheduled
        dirty = self._dirty
        stats = self.stats
        for _ in range(cycles):
            for proc in clocked:
                proc()
            stats.clocked_activations += len(clocked)
            if scheduled:
                # Snapshot before committing: a pulsed signal's commit
                # re-schedules its auto-clear into the live set.
                pending = list(scheduled)
                scheduled.clear()
                for sig in pending:
                    sig.commit()
            if dirty:
                self.settle()
            else:
                stats.fast_path_cycles += 1
            if self._next_fault <= self.cycle:
                self._fire_faults()
            self.cycle += 1
            stats.cycles += 1
            for mon in self._monitors:
                mon()

    def run_until(self, condition: Callable[[], bool], timeout: int = 100_000) -> int:
        """Step until ``condition()`` is true; return the number of cycles taken.

        The condition is evaluated *before* each step: a condition that is
        already true when ``run_until`` is called returns 0 without stepping,
        even with ``timeout=0``.  A false condition with ``timeout=0`` raises
        immediately.  Raises :class:`SimulationError` when ``timeout`` cycles
        elapse with the condition still false.
        """
        start = self.cycle
        while not condition():
            if self.cycle - start >= timeout:
                raise SimulationError(f"run_until timed out after {timeout} cycles")
            self.step()
        return self.cycle - start

    def wait_until(self, condition: WaitCondition, timeout: int = 100_000) -> int:
        """Step until the declarative ``condition`` holds; return cycles taken.

        Semantically identical to ``run_until`` with an equivalent lambda —
        the condition is evaluated before each step, an already-true condition
        returns 0, and ``timeout`` elapsed cycles raise
        :class:`SimulationError` — but expressed on a signal so kernels can
        evaluate it without a per-cycle Python callback.  This kernel checks
        the signal slot directly in a tight loop; the compiled kernel
        overrides this with a wait lowered into its generated step loop.
        """
        sig = condition.signal
        target = condition.value
        start = self.cycle
        step = self.step
        if condition.op == "==":
            while sig._value != target:
                if self.cycle - start >= timeout:
                    raise SimulationError(f"run_until timed out after {timeout} cycles")
                step()
        else:
            while sig._value < target:
                if self.cycle - start >= timeout:
                    raise SimulationError(f"run_until timed out after {timeout} cycles")
                step()
        return self.cycle - start


class ReferenceSimulator(Simulator):
    """The original snapshot-based kernel, kept as the equivalence oracle.

    Every settle pass runs *every* combinational process and detects change
    by snapshotting the full signal vector before and after each process —
    O(signals × processes) per pass.  ``step()`` always settles, never taking
    the fast path.  The settle/step algorithms are the seed implementation,
    so the differential harness can prove the event-driven *scheduler*
    (sensitivity lists, dirty tracking, fast path) cycle-exact against them.
    Note the :class:`~repro.rtl.signal.Signal` layer itself is shared by both
    kernels — defects there are oracle-blind and are covered instead by the
    signal unit tests in ``tests/test_rtl.py``.
    """

    # Dirty/scheduled bookkeeping is unused by this kernel; keep the signal
    # hooks as no-ops so its per-cycle cost matches the seed implementation.
    def _signal_scheduled(self, signal: Signal) -> None:
        pass

    def _signal_changed(self, signal: Signal) -> None:
        pass

    def settle(self) -> int:
        self._dirty.clear()
        if not self._comb:
            return 0
        stats = self.stats
        stats.settle_calls += 1
        for iteration in range(1, self.max_settle_iterations + 1):
            changed = False
            for proc in self._comb:
                before = _snapshot(self._signals)
                proc()
                stats.comb_activations += 1
                if _snapshot(self._signals) != before:
                    changed = True
            if not changed:
                stats.settle_iterations += iteration
                return iteration
        raise SimulationError(
            "combinational logic failed to settle within "
            f"{self.max_settle_iterations} iterations (possible combinational loop)"
        )

    def step(self, cycles: int = 1) -> None:
        stats = self.stats
        for _ in range(cycles):
            for proc in self._clocked:
                proc()
            stats.clocked_activations += len(self._clocked)
            for sig in self._signals:
                sig.commit()
            self._scheduled.clear()
            self.settle()
            if self._next_fault <= self.cycle:
                self._fire_faults()
            self.cycle += 1
            stats.cycles += 1
            for mon in self._monitors:
                mon()


def _snapshot(signals: List[Signal]) -> tuple:
    return tuple(sig.value for sig in signals)
