"""Channel models: AWGN, multipath (802.15.3a S-V), interference, path loss."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AWGNChannel": "repro.channel.awgn",
    "awgn": "repro.channel.awgn",
    "noise_std_for_ebn0": "repro.channel.awgn",
    "noise_std_for_snr": "repro.channel.awgn",
    "ModulatedInterferer": "repro.channel.interference",
    "MultiToneInterferer": "repro.channel.interference",
    "ToneInterferer": "repro.channel.interference",
    "interferer_amplitude_for_sir": "repro.channel.interference",
    "MultipathChannel": "repro.channel.multipath",
    "exponential_decay_channel": "repro.channel.multipath",
    "two_ray_channel": "repro.channel.multipath",
    "LinkBudget": "repro.channel.pathloss",
    "free_space_path_loss_db": "repro.channel.pathloss",
    "log_distance_path_loss_db": "repro.channel.pathloss",
    "max_transmit_power_dbm": "repro.channel.pathloss",
    "thermal_noise_power_dbm": "repro.channel.pathloss",
    "CHANNEL_MODELS": "repro.channel.saleh_valenzuela",
    "CM1": "repro.channel.saleh_valenzuela",
    "CM2": "repro.channel.saleh_valenzuela",
    "CM3": "repro.channel.saleh_valenzuela",
    "CM4": "repro.channel.saleh_valenzuela",
    "SalehValenzuelaChannelGenerator": "repro.channel.saleh_valenzuela",
    "SalehValenzuelaParameters": "repro.channel.saleh_valenzuela",
    "generate_channel": "repro.channel.saleh_valenzuela",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
