"""Tests for the wire format, macro libraries, C generation, and bus models."""

import pytest
from hypothesis import given, strategies as st

from repro.buses import (
    BusTransaction,
    FCBMaster,
    FCBSlaveBundle,
    PLBMaster,
    PLBSlaveBundle,
    SystemMemory,
    TransactionKind,
    create_bus,
)
from repro.core.drivers.cgen import generate_driver_sources
from repro.core.drivers.macro_lib import (
    APBMacroLibrary,
    FCBMacroLibrary,
    OPBMacroLibrary,
    PLBMacroLibrary,
    macro_library_for,
)
from repro.core.drivers.wire_format import beat_count, deserialize_io, serialize_io
from repro.core.params import IOParams, build_params
from repro.core.syntax.errors import SpliceGenerationError
from repro.core.syntax.parser import parse_spec
from repro.core.syntax.validation import validate_spec
from repro.rtl import Simulator


def _module(spec_text):
    spec = parse_spec(spec_text)
    bus = validate_spec(spec)
    return build_params(spec, bus)


TIMER_MODULE = _module(
    "%device_name hw_timer\n%bus_type plb\n%bus_width 32\n%base_address 0x80004000\n"
    "%user_type llong, unsigned long long, 64\n"
    "void set_threshold(llong thold);\nllong get_threshold();\n"
)


class TestWireFormat:
    def test_scalar_split_round_trip(self):
        io = IOParams("x", "llong", 64, 1)
        words = serialize_io(io, 0x1122334455667788, 32, 1)
        assert words == [0x55667788, 0x11223344]
        assert deserialize_io(io, words, 32, 1) == 0x1122334455667788

    def test_packed_round_trip(self):
        io = IOParams("x", "char*", 8, 8, is_pointer=True, is_packed=True)
        values = [1, 2, 3, 4, 5, 6, 7, 8]
        words = serialize_io(io, values, 32, 8)
        assert len(words) == 2
        assert deserialize_io(io, words, 32, 8) == values

    def test_packed_partial_beat(self):
        io = IOParams("x", "char*", 8, 5, is_pointer=True, is_packed=True)
        values = [9, 8, 7, 6, 5]
        words = serialize_io(io, values, 32, 5)
        assert len(words) == 2
        assert deserialize_io(io, words, 32, 5) == values

    def test_array_of_wide_elements(self):
        io = IOParams("x", "double*", 64, 3, is_pointer=True)
        values = [0xAABBCCDDEEFF0011, 0x1, 0xFFFFFFFFFFFFFFFF]
        words = serialize_io(io, values, 32, 3)
        assert len(words) == 6
        assert deserialize_io(io, words, 32, 3) == values

    def test_too_few_elements_rejected(self):
        io = IOParams("x", "int*", 32, 4, is_pointer=True)
        with pytest.raises(ValueError):
            serialize_io(io, [1, 2], 32, 4)

    def test_beat_count_matches_serialization(self):
        io = IOParams("x", "short*", 16, 6, is_pointer=True, is_packed=True)
        assert beat_count(io, 32, 6) == len(serialize_io(io, [1] * 6, 32, 6))

    @given(
        values=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=16),
    )
    def test_int_array_round_trip_property(self, values):
        io = IOParams("x", "int*", 32, len(values), is_pointer=True)
        words = serialize_io(io, values, 32, len(values))
        assert deserialize_io(io, words, 32, len(values)) == values

    @given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_scalar_round_trip_property(self, value):
        io = IOParams("x", "llong", 64, 1)
        assert deserialize_io(io, serialize_io(io, value, 32, 1), 32, 1) == value


class TestMacroLibraries:
    def test_library_lookup(self):
        assert isinstance(macro_library_for("plb"), PLBMacroLibrary)
        assert isinstance(macro_library_for("fcb"), FCBMacroLibrary)
        with pytest.raises(SpliceGenerationError):
            macro_library_for("wishbone")

    def test_plb_set_address_is_memory_mapped(self):
        lib = PLBMacroLibrary()
        assert lib.set_address(TIMER_MODULE, 2) == 0x80004000 + 8

    def test_fcb_set_address_is_function_id(self):
        lib = FCBMacroLibrary()
        assert lib.set_address(TIMER_MODULE, 2) == 2

    def test_plb_expands_bursts_into_singles(self):
        lib = PLBMacroLibrary()
        txns = lib.write_transactions(TIMER_MODULE, 1, [1, 2, 3, 4], use_burst=True)
        assert all(t.kind is TransactionKind.WRITE for t in txns)
        assert len(txns) == 4

    def test_fcb_uses_real_bursts(self):
        lib = FCBMacroLibrary()
        txns = lib.write_transactions(TIMER_MODULE, 1, list(range(6)), use_burst=True)
        assert txns[0].kind is TransactionKind.BURST_WRITE and len(txns[0].data) == 4
        assert len(txns) == 2

    def test_dma_only_on_supporting_bus(self):
        with pytest.raises(SpliceGenerationError):
            OPBMacroLibrary().write_transactions(TIMER_MODULE, 1, [1], use_dma=True)
        txn = PLBMacroLibrary().write_transactions(TIMER_MODULE, 1, [1, 2], use_dma=True)[0]
        assert txn.kind is TransactionKind.DMA_WRITE

    def test_apb_requires_polling_and_c_macros_reflect_it(self):
        lib = APBMacroLibrary()
        assert lib.requires_polling
        macros = lib.c_macro_definitions()
        assert "CALC_DONE" in macros["WAIT_FOR_RESULTS(id)"]

    def test_c_macros_cover_required_set(self):
        macros = PLBMacroLibrary().c_macro_definitions()
        for required in ("WRITE_SINGLE", "WRITE_DOUBLE", "WRITE_QUAD", "READ_SINGLE",
                         "SET_ADDRESS", "WAIT_FOR_RESULTS"):
            assert any(key.startswith(required) for key in macros)


class TestCGen:
    def test_driver_c_structure(self):
        sources = generate_driver_sources(TIMER_MODULE)
        driver = sources["hw_timer_driver.c"]
        assert "#define SET_THRESHOLD_ID" in driver
        assert "WAIT_FOR_RESULTS" in driver
        assert "WRITE_DOUBLE" in driver or "WRITE_SINGLE" in driver
        header = sources["hw_timer_driver.h"]
        assert "set_threshold" in header and "get_threshold" in header

    def test_multi_instance_driver_takes_inst_index(self):
        module = _module(
            "%device_name multi\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"
            "int f(int x):4;\n"
        )
        driver = generate_driver_sources(module)["multi_driver.c"]
        assert "int inst_index" in driver
        assert "F_ID + inst_index" in driver

    def test_splice_lib_carries_base_address(self):
        lib_h = generate_driver_sources(TIMER_MODULE)["splice_lib.h"]
        assert "0x80004000" in lib_h.upper() or "0X80004000" in lib_h.upper()


class TestBusTransactions:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            BusTransaction(TransactionKind.WRITE, 0)

    def test_latency_is_none_until_complete(self):
        txn = BusTransaction(TransactionKind.READ, 0)
        assert txn.latency is None
        with pytest.raises(ValueError):
            _ = txn.result


class TestMemory:
    def test_read_write_blocks(self):
        memory = SystemMemory()
        memory.write_block(0x100, [1, 2, 3])
        assert memory.read_block(0x100, 3) == [1, 2, 3]
        assert memory.read_word(0x200) == 0

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            SystemMemory().read_word(0x101)


class _EchoSlave:
    """A minimal PLB slave that acks immediately and echoes address as data."""

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
            plb.data_from_slave.next = self.stored.get(plb.selected_slot(False), 0xDEAD)
            plb.rd_ack.next = 1


class TestPLBMaster:
    def _system(self):
        sim = Simulator()
        plb = PLBSlaveBundle("plb", func_id_width=3)
        master = PLBMaster("master", plb, base_address=0x1000)
        slave = _EchoSlave(plb)
        sim.register_module(master)
        sim.add_signals(plb.signals())
        sim.add_clocked(slave.tick)
        sim.reset()
        return sim, master, slave

    def test_write_then_read_round_trip(self):
        sim, master, slave = self._system()
        write = master.submit(BusTransaction(TransactionKind.WRITE, 0x1008, data=[0xCAFE]))
        sim.run_until(lambda: write.done)
        assert slave.stored[2] == 0xCAFE
        read = master.submit(BusTransaction(TransactionKind.READ, 0x1008))
        sim.run_until(lambda: read.done)
        assert read.result == 0xCAFE
        assert read.latency > 0

    def test_out_of_range_address_rejected(self):
        sim, master, _ = self._system()
        master.submit(BusTransaction(TransactionKind.WRITE, 0x9000, data=[1]))
        with pytest.raises(ValueError):
            sim.step(10)

    def test_dma_write_pays_setup_cost(self):
        sim, master, slave = self._system()
        single = master.submit(BusTransaction(TransactionKind.WRITE, 0x1000, data=[1]))
        sim.run_until(lambda: single.done)
        single_latency = single.latency
        dma = master.submit(BusTransaction(TransactionKind.DMA_WRITE, 0x1000, data=[1]))
        sim.run_until(lambda: dma.done)
        assert dma.latency > single_latency  # setup transactions dominate one word

    def test_utilization_tracks_busy_cycles(self):
        sim, master, _ = self._system()
        txn = master.submit(BusTransaction(TransactionKind.WRITE, 0x1000, data=[1]))
        sim.run_until(lambda: txn.done)
        sim.step(20)
        assert 0.0 < master.utilization() < 1.0


class TestCreateBus:
    def test_known_buses(self):
        for name in ("plb", "opb", "fcb", "apb"):
            bundle, master = create_bus(name, data_width=32, func_id_width=3, base_address=0x0)
            assert bundle.data_width == 32
            assert master.slave is bundle

    def test_unknown_bus_rejected(self):
        with pytest.raises(KeyError):
            create_bus("wishbone", data_width=32, func_id_width=3)
