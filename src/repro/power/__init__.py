"""Power models: per-block estimates and system budgets for both generations."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PowerBudget": "repro.power.budget",
    "gen1_power_budget": "repro.power.budget",
    "gen2_power_budget": "repro.power.budget",
    "BlockPower": "repro.power.models",
    "DigitalBackEndPowerModel": "repro.power.models",
    "DigitalBlockPower": "repro.power.models",
    "GATE_ENERGY_018UM_J": "repro.power.models",
    "RFFrontEndPowerModel": "repro.power.models",
    "adc_block_power": "repro.power.models",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
