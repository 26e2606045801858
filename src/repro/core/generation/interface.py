"""Native bus interface (adapter) generation — Section 5.1.

For every supported bus this module holds

* an annotated HDL *template* containing ``%SYMBOL%`` markers, and
* :func:`build_interface_ir`, which derives the structural IR of the adapter
  (ports, handshake registers, decode comparators, DMA engine overhead) used
  for resource estimation and text rendering.

The adapter's native ports are read from the bus's slave-bundle
``DESCRIPTION`` table (:mod:`repro.buses`) and its SIS ports from
:class:`~repro.sis.signals.SISBundle`, so each signal set is declared once.

The adapters translate the native slave protocol into the SIS following the
signal correspondences of Figures 4.7 and 4.8.
"""

from __future__ import annotations

from typing import Dict

from repro.buses.base import M_TO_S
from repro.buses.registry import BUS_SLAVE_BUNDLES
from repro.core.capabilities import BusCapabilities
from repro.core.generation.ir import EntityIR, EntityKind, PortDirection
from repro.core.params import ModuleParams
from repro.core.syntax.errors import SpliceGenerationError
from repro.sis.signals import SISBundle

#: Annotated VHDL templates, one per built-in bus adapter (abridged but
#: structurally faithful: entity declaration, handshake process, SIS hookup).
ADAPTER_TEMPLATES: Dict[str, str] = {
    "plb": """\
-- %COMP_NAME% : PLB to SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address  : %BASE_ADDR%
-- Bus width     : %BUS_WIDTH% bits, FUNC_ID width %FUNC_ID_WIDTH% bits
-- DMA enabled   : %DMA_ENABLED%
entity %COMP_NAME%_plb_interface is
  port (
    CLK, RST        : in  std_logic;
    PLB_RD_REQ      : in  std_logic;
    PLB_WR_REQ      : in  std_logic;
    PLB_BE          : in  std_logic_vector(%BUS_WIDTH%/8 - 1 downto 0);
    PLB_RD_CE       : in  std_logic_vector(2**%FUNC_ID_WIDTH% - 1 downto 0);
    PLB_WR_CE       : in  std_logic_vector(2**%FUNC_ID_WIDTH% - 1 downto 0);
    PLB_DATA_IN     : in  std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    PLB_DATA_OUT    : out std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    PLB_RD_ACK      : out std_logic;
    PLB_WR_ACK      : out std_logic;
    SIS_DATA_IN     : out std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    SIS_DATA_IN_VALID : out std_logic;
    SIS_IO_ENABLE   : out std_logic;
    SIS_FUNC_ID     : out std_logic_vector(%FUNC_ID_WIDTH% - 1 downto 0);
    SIS_DATA_OUT    : in  std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    SIS_DATA_OUT_VALID : in std_logic;
    SIS_IO_DONE     : in  std_logic;
    SIS_CALC_DONE   : in  std_logic_vector(2**%FUNC_ID_WIDTH% - 2 downto 0)
  );
end entity;
architecture splice of %COMP_NAME%_plb_interface is
begin
  -- One-hot chip enables are re-encoded onto SIS_FUNC_ID; WR/RD requests are
  -- forwarded as IO_ENABLE strobes and held until the user logic answers
  -- with IO_DONE (Figures 4.7 and 4.8).
  %PLB_HANDSHAKE%
  %DMA_SUPPORT%
end architecture;
""",
    "opb": """\
-- %COMP_NAME% : OPB to SIS native interface adapter (simple read/write only)
-- Generated by Splice on %GEN_DATE%
entity %COMP_NAME%_opb_interface is
  port (
    CLK, RST        : in  std_logic;
    OPB_RD_REQ, OPB_WR_REQ : in std_logic;
    OPB_RD_CE, OPB_WR_CE   : in std_logic_vector(2**%FUNC_ID_WIDTH% - 1 downto 0);
    OPB_DATA_IN     : in  std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    OPB_DATA_OUT    : out std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    OPB_RD_ACK, OPB_WR_ACK : out std_logic;
    SIS_FUNC_ID     : out std_logic_vector(%FUNC_ID_WIDTH% - 1 downto 0)
  );
end entity;
architecture splice of %COMP_NAME%_opb_interface is
begin
  %OPB_HANDSHAKE%
end architecture;
""",
    "fcb": """\
-- %COMP_NAME% : FCB to SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
entity %COMP_NAME%_fcb_interface is
  port (
    CLK, RST       : in  std_logic;
    FCB_REQ        : in  std_logic;
    FCB_IS_WRITE   : in  std_logic;
    FCB_FUNC_SEL   : in  std_logic_vector(%FUNC_ID_WIDTH% - 1 downto 0);
    FCB_BURST_LEN  : in  std_logic_vector(2 downto 0);
    FCB_DATA_IN    : in  std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    FCB_DATA_VALID : in  std_logic;
    FCB_DATA_OUT   : out std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    FCB_ACK        : out std_logic;
    FCB_RESP_VALID : out std_logic;
    SIS_FUNC_ID    : out std_logic_vector(%FUNC_ID_WIDTH% - 1 downto 0)
  );
end entity;
architecture splice of %COMP_NAME%_fcb_interface is
begin
  -- Double- and quad-word bursts are unrolled into consecutive SIS writes.
  %FCB_HANDSHAKE%
end architecture;
""",
    "apb": """\
-- %COMP_NAME% : APB to SIS native interface adapter (strictly synchronous)
-- Generated by Splice on %GEN_DATE%
entity %COMP_NAME%_apb_interface is
  port (
    CLK, RST    : in  std_logic;
    APB_PSEL, APB_PENABLE, APB_PWRITE : in std_logic;
    APB_PADDR   : in  std_logic_vector(31 downto 0);
    APB_PWDATA  : in  std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    APB_PRDATA  : out std_logic_vector(%BUS_WIDTH% - 1 downto 0);
    SIS_FUNC_ID : out std_logic_vector(%FUNC_ID_WIDTH% - 1 downto 0)
  );
end entity;
architecture splice of %COMP_NAME%_apb_interface is
begin
  -- Writes complete in the access cycle; reads are served from the
  -- combinational DATA_OUT mux, with CALC_DONE readable at slot zero.
  %APB_HANDSHAKE%
end architecture;
""",
}

#: Bus-specific markers referenced by the templates above, with the text the
#: built-in marker loaders substitute for them.
BUS_SPECIFIC_MARKERS: Dict[str, Dict[str, str]] = {
    "plb": {
        "PLB_HANDSHAKE": (
            "plb_handshake : process (CLK) begin\n"
            "  -- forward WR/RD requests to the SIS and ack on IO_DONE\n"
            "end process;"
        ),
        "DMA_SUPPORT": "-- DMA engine instantiated here when DMA support is enabled",
    },
    "opb": {
        "OPB_HANDSHAKE": (
            "opb_handshake : process (CLK) begin\n"
            "  -- simple single-word read/write handshaking only\n"
            "end process;"
        ),
    },
    "fcb": {
        "FCB_HANDSHAKE": (
            "fcb_handshake : process (CLK) begin\n"
            "  -- per-beat DATA_VALID/ACK handshake, burst unrolling\n"
            "end process;"
        ),
    },
    "apb": {
        "APB_HANDSHAKE": (
            "apb_handshake : process (CLK) begin\n"
            "  -- strictly synchronous: capture on PENABLE, serve reads combinationally\n"
            "end process;"
        ),
    },
}


def adapter_entity_name(module: ModuleParams, bus_name: str) -> str:
    return f"{module.mod_name}_{bus_name}_interface"


def _add_ports(entity: EntityIR, module: ModuleParams, bundle=None) -> None:
    """Add CLK, RST, the native ports of ``bundle`` (``<BUS>_<NATIVE>`` in
    table order; master-to-slave signals are adapter inputs), then the
    SIS-side ports (Figure 4.2) sized as :class:`SISBundle` sizes them: the
    adapter drives the broadcast signals and reads the return signals."""
    entity.add_port("CLK", 1, PortDirection.IN)
    entity.add_port("RST", 1, PortDirection.IN)
    for native, width, direction in bundle.ports() if bundle is not None else ():
        entity.add_port(
            f"{bundle.name.upper()}_{native}", width,
            PortDirection.IN if direction == M_TO_S else PortDirection.OUT,
        )
    sis = SISBundle(module.data_width, module.func_id_width)
    for direction, signals in (
        (PortDirection.OUT, sis.broadcast_signals()),
        (PortDirection.IN, sis.return_signals()),
    ):
        for signal in signals:
            if signal is not sis.rst:
                entity.add_port(f"SIS_{signal.name.rpartition('.')[2]}", signal.width, direction)


def build_interface_ir(module: ModuleParams, bus: BusCapabilities) -> EntityIR:
    """Build the structural IR of the native interface adapter."""
    bus_name = bus.name.lower()
    bundle_class = BUS_SLAVE_BUNDLES.get(bus_name)
    if bundle_class is None:
        raise SpliceGenerationError(
            f"no built-in adapter for bus {bus_name!r}; register one through the extension API"
        )

    entity = EntityIR(
        name=adapter_entity_name(module, bus_name),
        kind=EntityKind.BUS_INTERFACE,
        description=f"{bus_name.upper()} to SIS native interface adapter for {module.mod_name}",
        attributes={"bus": bus_name, "dma": module.dma_support_f, "burst": module.ld_burst_f},
    )

    num_slots = 1 << module.func_id_width
    _add_ports(entity, module, bundle_class(bus_name, module.data_width, module.func_id_width))

    # Handshake state: captured data word, captured function id, FSM.
    entity.add_register("data_capture", module.data_width, "latched write data presented on SIS_DATA_IN")
    entity.add_register("func_id_reg", module.func_id_width, "latched target function identifier")
    entity.add_register("resp_capture", module.data_width, "latched read response toward the native bus")
    entity.add_fsm(
        "adapter_fsm",
        ["IDLE", "WRITE_WAIT", "READ_WAIT", "ACK"],
        "native handshake to SIS handshake translation",
    )

    if bus.memory_mapped:
        entity.add_comparator("address_decode", num_slots, "one-hot chip-enable to FUNC_ID re-encode")
    else:
        entity.add_register("burst_count", 3, "remaining beats of a native burst")
        entity.add_comparator("burst_done", 3, "burst completion compare")

    if bus.strictly_synchronous:
        entity.add_mux("read_mux", num_slots, module.data_width, "combinational read data selection")

    if module.dma_support_f:
        # The DMA engine is substantial: address/length counters, a second
        # FSM, bus-side burst logic (Section 9.3.2 measures 57-69% extra).
        entity.add_register("dma_src_addr", 32, "DMA source address")
        entity.add_register("dma_dst_addr", 32, "DMA destination address")
        entity.add_counter("dma_length", 16, "remaining DMA payload words")
        entity.add_counter("dma_beat", 16, "streamed beat counter")
        entity.add_fsm(
            "dma_fsm",
            ["DMA_IDLE", "DMA_SETUP", "DMA_REQ", "DMA_STREAM", "DMA_DRAIN", "DMA_DONE"],
            "DMA control engine",
        )
        entity.add_mux("dma_data_mux", 2, module.data_width, "select DMA or CPU data path")
        entity.overhead_luts += 260

    if module.ld_burst_f or module.st_burst_f:
        entity.add_counter("burst_tracker", 4, "burst beat tracking")
        entity.overhead_luts += 30

    return entity


def generic_interface_ir(module: ModuleParams, bus: BusCapabilities) -> EntityIR:
    """Fallback adapter IR for buses registered through the extension API.

    External libraries may supply their own ``interface_builder``; when they
    do not, this generic description (SIS ports, handshake registers, a
    four-state FSM, an address/select decode) stands in so resource
    estimation and structural rendering still work.
    """
    entity = EntityIR(
        name=adapter_entity_name(module, bus.name.lower()),
        kind=EntityKind.BUS_INTERFACE,
        description=f"{bus.name.upper()} to SIS native interface adapter for {module.mod_name} (generic)",
        attributes={"bus": bus.name.lower(), "dma": module.dma_support_f, "generic": True},
    )
    num_slots = 1 << module.func_id_width
    _add_ports(entity, module)
    entity.add_register("data_capture", module.data_width, "latched write data")
    entity.add_register("func_id_reg", module.func_id_width, "latched target function identifier")
    entity.add_fsm("adapter_fsm", ["IDLE", "WRITE_WAIT", "READ_WAIT", "ACK"], "handshake translation")
    entity.add_comparator("address_decode", num_slots, "slot decode")
    if module.dma_support_f:
        entity.overhead_luts += 260
    return entity


def adapter_template(bus_name: str) -> str:
    """The annotated HDL template for ``bus_name``."""
    try:
        return ADAPTER_TEMPLATES[bus_name.lower()]
    except KeyError:
        raise SpliceGenerationError(f"no adapter template for bus {bus_name!r}") from None


def bus_markers(bus_name: str) -> Dict[str, str]:
    """Bus-specific marker replacements supplied by the built-in marker loaders."""
    return dict(BUS_SPECIFIC_MARKERS.get(bus_name.lower(), {}))
