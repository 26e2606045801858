"""Bus adapter plugins — the extension API of Chapter 7.

A plugin supplies everything Splice needs to target a bus it has never seen:

* ``capabilities`` — the :class:`~repro.core.capabilities.BusCapabilities`
  sheet used by validation (the *parameter checking routine* of §7.1.2 is
  expressed declaratively through it, plus an optional ``parameter_checker``
  hook for bus-specific rules),
* ``marker_loader`` — extra ``%SYMBOL%`` replacements for the adapter
  template (§7.1.2),
* ``template`` — the annotated HDL adapter template itself,
* ``interface_builder`` — a callable producing the adapter's structural IR,
* ``macro_library`` — the software macro set of §7.1.3.

A plugin extends generation only: the simulated SoC (:mod:`repro.soc`) runs
the four built-in buses, whose models live in :mod:`repro.buses`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.capabilities import BusCapabilities
from repro.core.drivers.macro_lib import SoftwareMacroLibrary
from repro.core.params import ModuleParams
from repro.core.syntax.errors import SplicePluginError

ParameterChecker = Callable[[ModuleParams, BusCapabilities], None]
InterfaceBuilder = Callable[[ModuleParams, BusCapabilities], object]


@dataclass
class BusAdapterPlugin:
    """Everything required to add one bus interface to Splice."""

    name: str
    capabilities: BusCapabilities
    macro_library: SoftwareMacroLibrary
    template: str = ""
    markers: Dict[str, str] = field(default_factory=dict)
    interface_builder: Optional[InterfaceBuilder] = None
    parameter_checker: Optional[ParameterChecker] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SplicePluginError(f"plugin bus name {self.name!r} must be a valid identifier")
        if self.capabilities.name.lower() != self.name.lower():
            raise SplicePluginError(
                f"plugin name {self.name!r} does not match its capability sheet "
                f"({self.capabilities.name!r})"
            )

    @property
    def library_file_name(self) -> str:
        """The ``lib<x>_interface.so`` name this plugin would ship as (§7.2)."""
        return f"lib{self.name.lower()}_interface.so"

    def check_parameters(self, module: ModuleParams) -> None:
        """Run the plugin's bus-specific parameter checking routine, if any."""
        if self.parameter_checker is not None:
            self.parameter_checker(module, self.capabilities)


class PluginRegistry:
    """Plugins indexed by the name used in ``%bus_type`` directives."""

    def __init__(self) -> None:
        self._plugins: Dict[str, BusAdapterPlugin] = {}

    def register(self, plugin: BusAdapterPlugin, *, replace: bool = False) -> BusAdapterPlugin:
        key = plugin.name.lower()
        if key in self._plugins and not replace:
            raise SplicePluginError(f"a plugin for bus {key!r} is already registered")
        self._plugins[key] = plugin
        return plugin

    def get(self, name: str) -> Optional[BusAdapterPlugin]:
        return self._plugins.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._plugins

    def names(self):
        return sorted(self._plugins)

    def capabilities(self) -> Dict[str, BusCapabilities]:
        return {name: plugin.capabilities for name, plugin in self._plugins.items()}


def load_plugin(module_like) -> BusAdapterPlugin:
    """Build a plugin from a module-like object exposing ``SPLICE_PLUGIN``.

    This mirrors loading ``lib<x>_interface.so`` at run time: the object (a
    Python module, class or namespace) must expose a ``SPLICE_PLUGIN``
    attribute holding a :class:`BusAdapterPlugin`.
    """
    plugin = getattr(module_like, "SPLICE_PLUGIN", None)
    if plugin is None:
        raise SplicePluginError(
            "external bus library does not expose a SPLICE_PLUGIN attribute"
        )
    if not isinstance(plugin, BusAdapterPlugin):
        raise SplicePluginError("SPLICE_PLUGIN must be a BusAdapterPlugin instance")
    return plugin
