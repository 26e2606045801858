"""Registry mapping bus names onto slave bundles and master models.

The Splice engine and the SoC builder look buses up by the same name used in
the ``%bus_type`` directive.  Only the four built-in buses have simulation
models; an extension-API plugin (Chapter 7) adds generation support for a
new bus, not a model here.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.buses.apb import APBMaster, APBSlaveBundle
from repro.buses.base import BusMaster, SlaveBundle
from repro.buses.fcb import FCBMaster, FCBSlaveBundle
from repro.buses.opb import OPBMaster, OPBSlaveBundle
from repro.buses.plb import PLBMaster, PLBSlaveBundle

#: Factories building the slave-side signal bundle for each bus.
BUS_SLAVE_BUNDLES: Dict[str, Callable[..., SlaveBundle]] = {
    "plb": PLBSlaveBundle,
    "opb": OPBSlaveBundle,
    "fcb": FCBSlaveBundle,
    "apb": APBSlaveBundle,
}

#: Factories building the master model for each bus.
BUS_MASTERS: Dict[str, Callable[..., BusMaster]] = {
    "plb": PLBMaster,
    "opb": OPBMaster,
    "fcb": FCBMaster,
    "apb": APBMaster,
}


def create_bus(
    name: str,
    *,
    data_width: int,
    func_id_width: int,
    base_address: int = 0,
    prefix: str = "bus",
) -> Tuple[SlaveBundle, BusMaster]:
    """Instantiate the slave bundle and master model for ``name``.

    Every bundle is sized from the bus data width and the peripheral's
    function-identifier width, so the chip enables / select lines can
    address every function slot.
    """
    key = name.lower()
    if key not in BUS_SLAVE_BUNDLES:
        known = ", ".join(sorted(BUS_SLAVE_BUNDLES))
        raise KeyError(f"unknown bus {name!r} (known: {known})")

    bundle = BUS_SLAVE_BUNDLES[key](f"{prefix}.{key}", data_width, func_id_width)
    master = BUS_MASTERS[key](f"{prefix}.{key}_master", bundle, base_address=base_address)
    return bundle, master
