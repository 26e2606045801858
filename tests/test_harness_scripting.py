"""Transaction scripting and compiled wait conditions.

Proves the harness-side contract of the scripted driver path:

* a :class:`TransactionScript` executed inside the bus master is
  **cycle-for-cycle identical** (full-signal traces) to issuing the same
  operations through blocking ``ProcessorModel.execute`` calls with the
  inter-operation gap stepped in Python — on every kernel and bus;
* :class:`~repro.rtl.simulator.WaitCondition` waits behave exactly like
  ``run_until`` with an equivalent lambda on every kernel (checked before
  stepping, timeout semantics, ``==`` and ``>=`` forms);
* the in-master poll loop honours the poll limit and surfaces the same
  failure the software ``WAIT_FOR_RESULTS`` loop raised;
* ``record_transactions`` bounds memory: with it off (the campaign
  default), no transaction objects are retained while the counters keep
  counting.
"""

import pytest

from repro.buses import (
    BusTransaction,
    PollOp,
    TransactionKind,
    TransactionOp,
    TransactionScript,
    create_bus,
)
from repro.core.syntax.errors import SpliceGenerationError
from repro.devices.interpolator import build_splice_interpolator
from repro.devices.registry import build_runner
from repro.rtl import (
    CompiledSimulator,
    ReferenceSimulator,
    SimulationError,
    Simulator,
    TraceRecorder,
    WaitCondition,
)
from repro.soc.cpu import ProcessorModel
from repro.soc.system import build_system

KERNELS = (
    ("reference", ReferenceSimulator),
    ("event", Simulator),
    ("compiled", CompiledSimulator),
)

SOURCES = {
    "plb": "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n",
    "fcb": "%device_name dev\n%bus_type fcb\n%bus_width 32\n",
    "apb": "%device_name dev\n%bus_type apb\n%bus_width 32\n%base_address 0x40000000\n",
}
DECL = "void write_reg(char idx, int value);\nint read_reg(char idx);\n"


def _register_file(bus, factory):
    storage = {}
    system = build_system(
        SOURCES[bus] + DECL,
        behaviors={
            "write_reg": lambda idx, value: storage.__setitem__(idx, value),
            "read_reg": lambda idx: storage.get(idx, 0),
        },
        simulator_factory=factory,
    )
    return system


def _ops_for(system):
    """A write beat sequence against the register-file device."""
    from repro.core.drivers.macro_lib import macro_library_for

    module = system.module_params
    lib = macro_library_for(system.generation.bus.name)
    ops = []
    txns = []
    for func_id, words in ((1, [3]), (1, [0xCAFE]), (2, [5])):
        for txn in lib.write_transactions(module, func_id, words):
            ops.append(TransactionOp(txn))
            txns.append(txn)
    return ops, txns


class TestScriptMatchesBlockingExecution:
    """One queued script == N blocking executes, bit for bit, every cycle."""

    @pytest.mark.parametrize("bus", sorted(SOURCES))
    @pytest.mark.parametrize("label,factory", KERNELS)
    def test_cycle_exact(self, bus, label, factory):
        scripted = _register_file(bus, factory)
        blocking = _register_file(bus, factory)
        rec_s = TraceRecorder(scripted.simulator, scripted.simulator.signals)
        rec_b = TraceRecorder(blocking.simulator, blocking.simulator.signals)

        ops_s, txns_s = _ops_for(scripted)
        ops_b, txns_b = _ops_for(blocking)

        script = scripted.processor.execute_script(ops_s)
        for op in ops_b:
            blocking.processor.execute(op.transaction)

        assert scripted.simulator.cycle == blocking.simulator.cycle
        assert script.transactions == len(ops_s)
        assert script.done and not script.poll_failed
        assert [t.done for t in txns_s] == [t.done for t in txns_b]
        # The master's WAKE toggle and script counter are harness-path
        # bookkeeping (one script submit vs. three blocking submits), not
        # bus waveforms; every protocol-visible signal must match exactly.
        internal = (".WAKE", ".SCRIPTS")

        def visible(sample):
            return {k: v for k, v in sample.items() if not k.endswith(internal)}

        for cycle, (sample_s, sample_b) in enumerate(
            zip(rec_s.trace.samples, rec_b.trace.samples)
        ):
            assert visible(sample_s) == visible(sample_b), (bus, label, cycle)
        assert len(rec_s.trace) == len(rec_b.trace)

    def test_empty_script_advances_nothing(self):
        system = _register_file("plb", Simulator)
        before = system.simulator.cycle
        script = system.processor.execute_script([])
        assert script.done and script.transactions == 0
        assert system.simulator.cycle == before

    def test_second_script_while_one_in_flight_is_rejected(self):
        system = _register_file("plb", Simulator)
        master = system.master
        master.submit_script(TransactionScript([TransactionOp(
            BusTransaction(TransactionKind.WRITE, 0x80000004, data=[1])
        )]))
        with pytest.raises(ValueError, match="already has a script"):
            master.submit_script(TransactionScript([]))

    def test_blocking_execute_while_script_in_flight_is_rejected(self):
        # Scripts have queue priority and advance the completion count, so a
        # mixed-in blocking transaction could unblock on the wrong completion.
        system = _register_file("plb", Simulator)
        system.master.submit_script(TransactionScript([TransactionOp(
            BusTransaction(TransactionKind.WRITE, 0x80000004, data=[1])
        )]))
        with pytest.raises(ValueError, match="cannot be interleaved"):
            system.processor.execute(
                BusTransaction(TransactionKind.WRITE, 0x80000008, data=[2])
            )


class TestPollOps:
    @pytest.mark.parametrize("label,factory", KERNELS)
    def test_poll_limit_failure_is_identical_across_kernels(self, label, factory):
        # APB is strictly synchronous: the driver polls CALC_DONE.  With a
        # poll limit shorter than the calculation latency the scripted poll
        # loop must fail exactly like the software loop did.
        device = build_splice_interpolator("splice_apb", simulator_factory=factory)
        driver = device.system.drivers["interpolate"]
        driver.poll_limit = 1
        with pytest.raises(SpliceGenerationError, match="did not complete within 1 status polls"):
            driver(2, [1, 2], 2, [3, 4], 1, [2])

    def test_successful_polls_are_counted(self):
        device = build_splice_interpolator("splice_apb")
        out = device.run_scenario([[1, 2], [3, 4], [2]])
        driver = device.system.drivers["interpolate"]
        assert driver.last_call.polls >= 1
        assert driver.last_call.transactions > driver.last_call.polls
        assert out["cycles"] > 0


class TestWaitCondition:
    @pytest.mark.parametrize("label,factory", KERNELS)
    def test_matches_run_until(self, label, factory):
        def build(f):
            sim = f()
            count = sim.signal("count", width=8)
            sim.add_clocked(lambda: setattr(count, "next", count.value + 1))
            sim.reset()
            return sim, count

        sim_a, count_a = build(factory)
        sim_b, count_b = build(factory)
        took = sim_a.wait_until(WaitCondition(count_a, 5))
        reference = sim_b.run_until(lambda: count_b.value == 5)
        assert took == reference
        assert sim_a.cycle == sim_b.cycle

    @pytest.mark.parametrize("label,factory", KERNELS)
    def test_already_true_returns_zero_even_with_zero_timeout(self, label, factory):
        sim = factory()
        flag = sim.signal("flag", width=1, reset=1)
        sim.reset()
        assert sim.wait_until(WaitCondition(flag, 1), timeout=0) == 0
        assert sim.cycle == 0

    @pytest.mark.parametrize("label,factory", KERNELS)
    def test_timeout_raises_after_exactly_timeout_cycles(self, label, factory):
        sim = factory()
        flag = sim.signal("flag", width=1)
        sim.add_clocked(lambda: None)
        sim.reset()
        with pytest.raises(SimulationError, match="timed out after 7 cycles"):
            sim.wait_until(WaitCondition(flag, 1), timeout=7)
        assert sim.cycle == 7

    @pytest.mark.parametrize("label,factory", KERNELS)
    def test_ge_condition(self, label, factory):
        sim = factory()
        count = sim.signal("count", width=8)
        sim.add_clocked(lambda: setattr(count, "next", count.value + 2))
        sim.reset()
        took = sim.wait_until(WaitCondition(count, 5, op=">="))
        assert count.value >= 5
        assert took == 3

    def test_bad_op_rejected(self):
        sim = Simulator()
        sig = sim.signal("s")
        with pytest.raises(ValueError, match="unsupported wait op"):
            WaitCondition(sig, 1, op="<")

    def test_value_masked_to_signal_width(self):
        sim = Simulator()
        sig = sim.signal("s", width=4)
        assert WaitCondition(sig, 0x13).value == 0x3


class TestRecordTransactions:
    def test_default_retains_transactions(self):
        system = _register_file("plb", Simulator)
        ops, txns = _ops_for(system)
        system.processor.execute_script(ops)
        assert system.processor.executed == txns
        assert system.processor.transactions_issued == len(txns)
        assert system.master.completed == txns

    def test_opt_out_keeps_counters_but_no_objects(self):
        system = build_system(
            SOURCES["plb"] + DECL,
            behaviors={"write_reg": lambda idx, value: None, "read_reg": lambda idx: 0},
            record_transactions=False,
        )
        system.drivers["write_reg"](1, 2)
        count = system.drivers["write_reg"].last_call.transactions
        assert count > 0
        assert system.processor.executed == []
        assert system.master.completed == []
        assert system.processor.transactions_issued == count
        assert system.master.transactions_completed == count

    def test_campaign_runners_do_not_record(self):
        for label in ("splice_plb", "simple_plb", "optimized_fcb"):
            runner = build_runner(label)
            processor = getattr(runner, "processor", None) or runner.system.processor
            assert processor.record_transactions is False, label
            runner.run_scenario([[1, 2], [3, 4], [2]])
            assert processor.executed == []
            assert processor.transactions_issued > 0


class TestProcessorExecuteStillBlocking:
    """The per-transaction path waits on the completion-count signal."""

    def test_execute_round_trip(self):
        sim = Simulator()
        from repro.buses import PLBMaster, PLBSlaveBundle

        plb = PLBSlaveBundle("plb", func_id_width=3)
        master = PLBMaster("master", plb, base_address=0x1000)

        class EchoSlave:
            def __init__(self, plb):
                self.plb = plb
                self.stored = {}

            def tick(self):
                plb = self.plb
                plb.wr_ack.next = 0
                plb.rd_ack.next = 0
                if plb.wr_req.value and plb.wr_ce.value:
                    self.stored[plb.selected_slot(True)] = plb.data_to_slave.value
                    plb.wr_ack.next = 1
                elif plb.rd_req.value and plb.rd_ce.value:
                    plb.data_from_slave.next = self.stored.get(plb.selected_slot(False), 0)
                    plb.rd_ack.next = 1

        slave = EchoSlave(plb)
        sim.register_module(master)
        sim.add_signals(plb.signals())
        sim.add_clocked(slave.tick)
        sim.reset()
        processor = ProcessorModel(sim, master)
        write = processor.execute(BusTransaction(TransactionKind.WRITE, 0x1008, data=[0xBEEF]))
        read = processor.execute(BusTransaction(TransactionKind.READ, 0x1008))
        assert write.done and read.result == 0xBEEF
        assert processor.transactions_issued == 2
        assert master.completion_count.value == 2
