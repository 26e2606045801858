"""Tests for the shared parameter structure and the hardware generators."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.buses.registry import create_bus
from repro.core.capabilities import capabilities_for
from repro.core.engine import Splice
from repro.core.generation.arbiter import build_arbiter_ir
from repro.core.generation.interface import build_interface_ir, generic_interface_ir
from repro.core.generation.ir import EntityKind
from repro.core.generation.macros import standard_registry, build_context
from repro.core.generation.stubs import build_stub_ir, stub_states
from repro.core.generation.template import MacroRegistry, TemplateEngine, MacroContext
from repro.core.generation.vhdl import render_entity_vhdl
from repro.core.generation.verilog import render_entity_verilog
from repro.core.params import STATUS_FUNC_ID, build_params
from repro.core.syntax.errors import SpliceGenerationError
from repro.core.syntax.parser import parse_spec
from repro.core.syntax.validation import validate_spec
from repro.devices import interpolator

TIMER_SPEC = """\
%device_name hw_timer
%bus_type plb
%bus_width 32
%base_address 0x80004000
%user_type llong, unsigned long long, 64
%user_type ulong, unsigned long, 32
void disable();
void enable();
void set_threshold(llong thold);
llong get_threshold();
llong get_snapshot();
ulong get_clock();
ulong get_status();
"""


def _params(spec_text):
    spec = parse_spec(spec_text)
    bus = validate_spec(spec)
    return build_params(spec, bus), bus


class TestParams:
    def test_function_ids_start_after_status_register(self):
        params, _ = _params(TIMER_SPEC)
        assert params.funcs[0].func_id == STATUS_FUNC_ID + 1
        assert params.nmbr_funcs == 7

    def test_multi_instance_ids_are_consecutive(self):
        params, _ = _params(
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"
            "void f(int x):3;\nint g(int y);\n"
        )
        assert params.func("f").instance_ids() == [1, 2, 3]
        assert params.func("g").func_id == 4
        assert params.total_instances == 4

    def test_func_id_width_covers_all_instances(self):
        params, _ = _params(TIMER_SPEC)
        assert (1 << params.func_id_width) > max(f.func_id for f in params.funcs)

    def test_splitting_flag_for_wide_types(self):
        params, _ = _params(TIMER_SPEC)
        assert params.func("set_threshold").splitting_f
        assert not params.func("get_clock").splitting_f

    def test_address_of_slots(self):
        params, _ = _params(TIMER_SPEC)
        assert params.address_of(0) == 0x80004000
        assert params.address_of(3) == 0x80004000 + 3 * 4

    def test_io_beats_split_and_packed(self):
        params, _ = _params(
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"
            "void f(double*:4 xs, char*:8+ cs);\n"
        )
        func = params.func("f")
        assert func.input("xs").beats(32) == 8   # 4 doubles split into 8 words
        assert func.input("cs").beats(32) == 2   # 8 chars packed 4 per word

    def test_func_by_id_and_unknown_lookups(self):
        params, _ = _params(TIMER_SPEC)
        assert params.func_by_id(3).func_name == "set_threshold"
        with pytest.raises(KeyError):
            params.func("missing")
        with pytest.raises(KeyError):
            params.func_by_id(99)


class TestTemplateEngine:
    def test_unknown_macro_rejected(self):
        engine = TemplateEngine(MacroRegistry())
        with pytest.raises(SpliceGenerationError):
            engine.expand("%NOT_A_MACRO%", MacroContext(None))

    def test_standard_macros_expand(self):
        params, _ = _params(TIMER_SPEC)
        engine = TemplateEngine(standard_registry())
        out = engine.expand("%COMP_NAME% %BUS_WIDTH% %BASE_ADDR%", build_context(params))
        assert "hw_timer" in out and "32" in out and "80004000" in out.upper()

    def test_per_function_macros_require_function_context(self):
        params, _ = _params(TIMER_SPEC)
        engine = TemplateEngine(standard_registry())
        with pytest.raises(SpliceGenerationError):
            engine.expand("%MY_FUNC_ID%", build_context(params))
        out = engine.expand("%MY_FUNC_ID%", build_context(params).with_func(params.funcs[2]))
        assert out == "3"

    def test_duplicate_macro_registration_rejected(self):
        registry = MacroRegistry()
        registry.register("X", lambda ctx: "1")
        with pytest.raises(SpliceGenerationError):
            registry.register("X", lambda ctx: "2")
        registry.register("X", lambda ctx: "2", replace=True)


class TestGenerators:
    def test_stub_states_match_declaration_shape(self):
        params, _ = _params(TIMER_SPEC)
        assert stub_states(params.func("set_threshold")) == ["IN_thold", "CALC", "OUT_STATUS"]
        assert stub_states(params.func("get_status")) == ["TRIGGER", "CALC", "OUT_RESULT"]

    def test_stub_ir_contains_sis_ports_and_fsm(self):
        params, _ = _params(TIMER_SPEC)
        stub = build_stub_ir(params.func("get_snapshot"), params)
        names = {p.name for p in stub.ports}
        assert {"DATA_IN", "DATA_OUT", "IO_DONE", "CALC_DONE", "FUNC_ID"} <= names
        assert stub.kind is EntityKind.USER_LOGIC
        assert stub.fsms and stub.fsms[0].states[0].startswith(("IN_", "TRIGGER"))

    def test_arbiter_ir_has_port_set_per_instance(self):
        params, _ = _params(
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"
            "void f(int x):2;\nint g(int y);\n"
        )
        arbiter = build_arbiter_ir(params)
        data_out_ports = [
            p for p in arbiter.ports
            if p.name.endswith("_DATA_OUT") and not p.name.startswith("SIS_")
        ]
        assert len(data_out_ports) == 3  # two instances of f, one g

    def test_interface_ir_dma_adds_overhead(self):
        plain, bus = _params(TIMER_SPEC)
        dma_spec = TIMER_SPEC.replace("%base_address 0x80004000", "%base_address 0x80004000\n%dma_support true")
        dma_params, _ = _params(dma_spec)
        plain_ir = build_interface_ir(plain, bus)
        dma_ir = build_interface_ir(dma_params, bus)
        assert dma_ir.overhead_luts > plain_ir.overhead_luts
        assert len(dma_ir.fsms) > len(plain_ir.fsms)

    def test_unknown_bus_interface_rejected(self):
        params, bus = _params(TIMER_SPEC)
        from repro.core.capabilities import BusCapabilities

        with pytest.raises(SpliceGenerationError):
            build_interface_ir(params, BusCapabilities(name="wishbone"))

    def test_text_backends_render_every_entity(self):
        params, bus = _params(TIMER_SPEC)
        for entity in (build_interface_ir(params, bus), build_arbiter_ir(params),
                       build_stub_ir(params.funcs[0], params)):
            vhdl = render_entity_vhdl(entity)
            verilog = render_entity_verilog(entity)
            assert entity.name in vhdl and "entity" in vhdl
            assert entity.name in verilog and "module" in verilog


class TestEngine:
    def test_generate_produces_figure_8_3_file_listing(self):
        result = Splice().generate(TIMER_SPEC)
        listing = result.hardware_file_listing()
        assert "plb_interface.vhd" in listing
        assert "user_hw_timer.vhd" in listing
        assert "func_set_threshold.vhd" in listing
        assert len([f for f in listing if f.startswith("func_")]) == 7

    def test_generated_text_has_no_unexpanded_macros(self):
        result = Splice().generate(TIMER_SPEC)
        for name in result.hardware_file_listing():
            assert "%COMP_NAME%" not in result.hardware_files[name]
            assert "%GEN_DATE%" not in result.hardware_files[name]

    def test_driver_sources_match_figure_8_7(self):
        result = Splice().generate(TIMER_SPEC)
        assert set(result.software_file_listing()) == {
            "splice_lib.h", "hw_timer_driver.h", "hw_timer_driver.c",
        }
        driver_c = result.driver_sources["hw_timer_driver.c"]
        assert "SET_ADDRESS" in driver_c and "WAIT_FOR_RESULTS" in driver_c
        assert "set_threshold" in driver_c

    def test_verilog_target_generates_verilog(self):
        spec = TIMER_SPEC.replace("%bus_width 32", "%bus_width 32\n%target_hdl verilog")
        result = Splice().generate(spec)
        assert any(name.endswith(".v") for name in result.hardware_file_listing())
        interface = result.hardware_files["plb_interface.v"]
        assert "module" in interface

    def test_write_to_creates_device_subdirectory(self, tmp_path):
        result = Splice().generate(TIMER_SPEC)
        written = result.write_to(tmp_path)
        assert (tmp_path / "hw_timer" / "plb_interface.vhd").exists()
        assert len(written) == len(result.hardware_files) + len(result.driver_sources)

    def test_capabilities_lookup(self):
        engine = Splice()
        assert "plb" in engine.supported_buses
        assert engine.capabilities_for("fcb").memory_mapped is False
        assert capabilities_for("apb").strictly_synchronous


# ---------------------------------------------------------------------------
# golden generated output
# ---------------------------------------------------------------------------

GENERATED_GOLDEN_PATH = Path(__file__).parent / "golden" / "generated.json"

GOLDEN_BUSES = ("plb", "opb", "fcb", "apb")


def generated_golden() -> dict:
    """Everything the generators and bus models derive from a bus's signal set.

    * ``files``: SHA-256 of every generated hardware and driver file of each
      ``INTERPOLATOR_SPEC_*`` device;
    * ``ports``: ``(name, width, direction)`` of every adapter port both IR
      builders produce, for the timer spec (seven functions, so the chip
      enables and ``CALC_DONE`` are wider than one bit) on each bus;
    * ``signals``: ``(name, width)`` of every slave-bundle signal
      ``create_bus`` builds on each bus.
    """
    files = {}
    for name in sorted(n for n in dir(interpolator) if n.startswith("INTERPOLATOR_SPEC_")):
        result = Splice().generate(getattr(interpolator, name))
        files[name] = {
            file: hashlib.sha256(text.encode()).hexdigest()
            for file, text in sorted({**result.hardware_files, **result.driver_sources}.items())
        }
    ports = {}
    signals = {}
    for bus_name in GOLDEN_BUSES:
        module, bus = _params(TIMER_SPEC.replace("%bus_type plb", f"%bus_type {bus_name}"))
        for builder in (build_interface_ir, generic_interface_ir):
            ports[f"{builder.__name__}/{bus_name}"] = [
                [port.name, port.width, port.direction.value]
                for port in builder(module, bus).ports
            ]
        bundle, _master = create_bus(bus_name, data_width=32, func_id_width=3)
        signals[bus_name] = [[signal.name, signal.width] for signal in bundle.signals()]
    return {"files": files, "ports": ports, "signals": signals}


def test_generated_output_matches_golden():
    """``tests/golden/generated.json`` pins generated files, adapter IR ports
    and bus signal sets; re-record it only for a deliberate output change."""
    assert generated_golden() == json.loads(GENERATED_GOLDEN_PATH.read_text())


if __name__ == "__main__":
    # Re-record the golden file: PYTHONPATH=src python tests/test_params_and_generation.py
    GENERATED_GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GENERATED_GOLDEN_PATH.write_text(json.dumps(generated_golden(), indent=1, sort_keys=True) + "\n")
