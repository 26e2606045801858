"""FSM IR unit tests: static diagnostics, form equivalence, golden traces.

Three execution forms exist for every machine — the tree-walking
interpreter (:meth:`BoundFsm.tick_interpreted`, the semantic oracle), the
standalone generated tick (:attr:`BoundFsm.tick`, the scan-kernel backend)
and the compiled-kernel lowering (inlined into the fused step loop).  The
randomized tests here prove all three produce identical signal traces and
identical machine state on machines the generator dreams up; the golden
tests pin every in-tree machine (bus masters, adapters, ICOB stubs,
arbiter, hand-coded baselines) to ``tests/golden/fsm_traces.json``, digests
recorded from the hand-written Python ticks the IR machines replaced.
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from repro.devices.baselines import build_naive_plb_system, build_optimized_fcb_system
from repro.devices.interpolator import build_splice_interpolator
from repro.devices.timer import build_timer_system
from repro.evaluation.scenarios import SCENARIOS
from repro.rtl import (
    BoundFsm,
    CompiledSimulator,
    FsmError,
    FsmSpec,
    ReferenceSimulator,
    Simulator,
    TraceRecorder,
    detect_drive_conflicts,
)
from repro.rtl.fsm import (
    Active,
    Drive,
    Exec,
    Goto,
    If,
    Pulse,
    Schedule,
    StateDispatch,
)
from repro.rtl.module import Module


def _clocked_spec(**overrides):
    base = dict(
        name="t",
        entry=(StateDispatch(),),
        states={"a": (Goto("b"),), "b": (Goto("a"),)},
        signals=(),
    )
    base.update(overrides)
    return FsmSpec(**base)


class TestDiagnostics:
    """Malformed machines are rejected at build time, construct named."""

    def test_transition_to_unknown_state_is_rejected(self):
        with pytest.raises(FsmError, match="unknown state 'missing'"):
            _clocked_spec(states={"a": (Goto("missing"),)})

    def test_unknown_initial_state_is_rejected(self):
        with pytest.raises(FsmError, match="initial state"):
            _clocked_spec(initial="nope")

    def test_unreachable_state_is_rejected(self):
        with pytest.raises(FsmError, match="unreachable state.*orphan"):
            _clocked_spec(states={"a": (Goto("a"),), "orphan": ()})

    def test_externally_entered_state_is_reachable(self):
        spec = _clocked_spec(
            states={"a": (Goto("a"),), "helper_entered": ()},
            external_states=("helper_entered",),
        )
        assert "helper_entered" in spec.states

    def test_clocked_machine_may_not_drive(self):
        with pytest.raises(FsmError, match="conflicting-drive hazard"):
            _clocked_spec(states={"a": (Drive("x", "1"),)}, signals=("x",))

    def test_comb_machine_may_not_schedule(self):
        with pytest.raises(FsmError, match="may only drive"):
            FsmSpec(
                name="c", kind="comb",
                entry=(Schedule("x", "1"),), signals=("x",),
            )

    def test_clocked_machine_needs_exactly_one_dispatch(self):
        with pytest.raises(FsmError, match="exactly one\\s+StateDispatch"):
            _clocked_spec(entry=())
        with pytest.raises(FsmError, match="exactly one\\s+StateDispatch"):
            _clocked_spec(entry=(StateDispatch(), StateDispatch()))

    def test_redispatch_outside_state_body_is_rejected(self):
        from repro.rtl.fsm import Redispatch

        with pytest.raises(FsmError, match="Redispatch outside a state body"):
            _clocked_spec(
                entry=(StateDispatch(), If("m.flag", (Redispatch(),)))
            )

    def test_binding_mismatch_is_rejected(self):
        spec = _clocked_spec(
            states={"a": (Schedule("x", "1"), Goto("a"))}, signals=("x",)
        )
        owner = Module("owner")
        with pytest.raises(FsmError, match="signal bindings mismatch"):
            BoundFsm(spec, owner, signals={})

    def test_cross_machine_drive_conflict_is_reported(self):
        sim = Simulator()
        shared = sim.signal("shared", width=8)

        def comb_machine(name):
            owner = Module(name)
            spec = FsmSpec(
                name=name, kind="comb",
                entry=(Drive("out", "1"),), signals=("out",),
            )
            return BoundFsm(spec, owner, signals={"out": shared})

        conflicts = detect_drive_conflicts([comb_machine("m1"), comb_machine("m2")])
        assert len(conflicts) == 1
        assert "'shared'" in conflicts[0]
        assert "m1" in conflicts[0] and "m2" in conflicts[0]
        assert detect_drive_conflicts([comb_machine("m3")]) == []


class _RandomMachine(Module):
    """A machine assembled from a seeded random walk over the IR op set."""

    def __init__(self, name: str, seed: int, form: str) -> None:
        super().__init__(name)
        self.inp = self.signal("IN", width=8)
        self.out = self.signal("OUT", width=8)
        self.strobe = self.signal("STROBE", width=1)
        self.r0 = 0
        self.r1 = 0
        self._state = "s0"
        spec = self._random_spec(seed)
        self.fsm = BoundFsm(
            spec, self,
            signals={"inp": self.inp, "out": self.out, "strobe": self.strobe},
        )
        tick = self.fsm.tick_interpreted if form == "interpreted" else self.fsm.tick
        # Declaring sensitivity opts the machine into compiled-kernel
        # lowering; the generated bodies always report activity, so elision
        # never fires and the comparison isolates pure op semantics.
        self.clocked(tick, sensitive_to=[self.inp])

    @staticmethod
    def _random_spec(seed: int) -> FsmSpec:
        # A tiny deterministic LCG keeps the generator dependency-free.
        state = seed * 2654435761 % (2**32) or 1

        def rand(n):
            nonlocal state
            state = (1103515245 * state + 12345) % (2**31)
            return state % n

        n_states = 2 + rand(3)
        names = [f"s{i}" for i in range(n_states)]
        states = {}
        for index, name in enumerate(names):
            body = []
            for _ in range(1 + rand(3)):
                choice = rand(5)
                if choice == 0:
                    body.append(Exec(f"m.r0 = (m.r0 + {1 + rand(7)}) & 255"))
                elif choice == 1:
                    body.append(Exec(f"m.r1 = (m.r1 ^ (m.r0 >> {rand(3)})) & 255"))
                elif choice == 2:
                    body.append(Schedule("out", f"(m.r0 + m.r1 + {rand(16)}) & 255"))
                elif choice == 3:
                    body.append(Pulse("strobe"))
                else:
                    body.append(
                        If(
                            f"inp._value & {1 << rand(4)}",
                            (Exec(f"m.r0 = (m.r0 * 3 + {rand(5)}) & 255"),),
                            orelse=(Schedule("out", "m.r1"),),
                        )
                    )
            body.append(
                If(
                    f"inp._value > {rand(200)}",
                    (Goto(names[rand(n_states)]),),
                    orelse=(Goto(names[rand(n_states)]),),
                )
            )
            body.append(Active("True"))
            states[name] = tuple(body)
        return FsmSpec(
            name=f"rand{seed}",
            entry=(
                If(
                    f"inp._value == {255}",
                    (Exec("m.r0 = 0; m.r1 = 0"),),
                ),
                StateDispatch(),
            ),
            states=states,
            # The generator does not guarantee every state is a Goto target.
            external_states=tuple(names),
            signals=("inp", "out", "strobe"),
        )


class TestRandomizedEquivalence:
    """Interpreted, standalone and lowered execution are trace-identical."""

    @pytest.mark.parametrize("seed", range(12))
    def test_three_forms_agree(self, seed):
        def run(factory, form):
            sim = factory()
            machine = _RandomMachine("rm", seed, form)
            sim.register_module(machine)
            recorder = TraceRecorder(sim, sim.signals)
            sim.reset()
            for cycle in range(80):
                machine.inp.drive((cycle * 37 + seed * 11) % 256)
                sim.step()
            return recorder.trace.samples, machine.r0, machine.r1, machine._state

        oracle = run(Simulator, "interpreted")
        standalone = run(Simulator, "standalone")
        lowered = run(CompiledSimulator, "standalone")
        assert standalone == oracle, f"standalone tick diverges from interpreter (seed {seed})"
        assert lowered == oracle, f"lowered machine diverges from interpreter (seed {seed})"

    def test_lowering_actually_happened(self):
        sim = CompiledSimulator()
        machine = _RandomMachine("rm", 1, "standalone")
        sim.register_module(machine)
        sim.reset()
        design = sim.compile()
        assert design.fused_clocked == 1
        assert len(design.fsm_fingerprints) == 1
        profile = sim.process_profile()
        assert profile[0]["kind"] == "lowered"
        assert profile[0]["label"].endswith("rand1")


# ---------------------------------------------------------------------------
# golden traces
# ---------------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).parent / "golden" / "fsm_traces.json"

GOLDEN_KERNELS = {
    "reference": ReferenceSimulator,
    "event": Simulator,
    "compiled": CompiledSimulator,
}

GOLDEN_SYSTEMS = {
    **{
        f"splice_{bus}": partial(build_splice_interpolator, f"splice_{bus}")
        for bus in ("plb", "opb", "fcb", "apb")
    },
    "naive_plb": build_naive_plb_system,
    "optimized_fcb": build_optimized_fcb_system,
}


def _violations(built):
    system = getattr(built, "system", None)
    monitor = getattr(system, "monitor", None)
    if monitor is None:
        return None
    return [(v.cycle, v.rule, v.detail) for v in monitor.violations]


def _scenario_case(system, number, factory):
    built = GOLDEN_SYSTEMS[system](simulator_factory=factory)
    simulator = getattr(built, "simulator", None) or built.system.simulator
    recorder = TraceRecorder(simulator, simulator.signals)
    scenario = next(s for s in SCENARIOS if s.number == number)
    outcome = built.run_scenario(scenario.generate_inputs())
    return recorder.trace.samples, (
        outcome["result"],
        outcome["cycles"],
        outcome["transactions"],
        _violations(built),
    )


def _timer_case(factory):
    """The Chapter 8 timer on the Figure 8.8 sequence (as in the kernel
    equivalence harness)."""
    timer = build_timer_system(simulator_factory=factory)
    simulator = timer.system.simulator
    recorder = TraceRecorder(simulator, simulator.signals)
    drivers = timer.drivers
    drivers["disable"]()
    drivers["get_clock"]()
    drivers["set_threshold"](400)
    drivers["enable"]()
    snapshot = drivers["get_snapshot"]()
    timer.system.run(450)
    status = drivers["get_status"]()
    drivers["disable"]()
    threshold = drivers["get_threshold"]()
    return recorder.trace.samples, (
        (snapshot, status, threshold),
        timer.cycles,
        None,
        _violations(timer),
    )


GOLDEN_CASES = [
    *(
        f"{system}/fig9.1-{number}/{kernel}"
        for system in GOLDEN_SYSTEMS
        for number in (1, 2, 3, 4)
        for kernel in GOLDEN_KERNELS
    ),
    *(f"timer/fig8.8/{kernel}" for kernel in GOLDEN_KERNELS),
]


def golden_digest(case: str) -> str:
    """SHA-256 of the canonical JSON of one case's full-signal trace plus
    its ``(result, cycles, transactions, monitor violations)`` outcome."""
    system, scenario, kernel = case.split("/")
    factory = GOLDEN_KERNELS[kernel]
    if system == "timer":
        samples, outcome = _timer_case(factory)
    else:
        samples, outcome = _scenario_case(system, int(scenario.split("-")[1]), factory)
    payload = json.dumps([samples, outcome], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenTraces:
    """Every in-tree machine reproduces the committed golden traces.

    ``tests/golden/fsm_traces.json`` pins, per (system x scenario x kernel),
    the digest of every signal on every cycle plus the scenario outcome and
    monitor violations.  It was recorded from the hand-written Python ticks
    the IR machines replaced, so a match proves each port cycle-exact;
    re-record it only for a deliberate behaviour change.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_golden_file_covers_every_case(self, golden):
        assert sorted(golden) == sorted(GOLDEN_CASES)

    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_case_matches_golden(self, golden, case):
        assert golden_digest(case) == golden[case]


if __name__ == "__main__":
    # Re-record the golden file: PYTHONPATH=src python tests/test_fsm_ir.py
    digests = {case: golden_digest(case) for case in GOLDEN_CASES}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
