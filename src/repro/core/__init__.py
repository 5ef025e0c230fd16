"""Core transceivers: configs, TX/RX chains, link simulation, adaptation."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdaptationController": "repro.core.adaptation",
    "ChannelConditions": "repro.core.adaptation",
    "OperatingMode": "repro.core.adaptation",
    "Gen1Config": "repro.core.config",
    "Gen2Config": "repro.core.config",
    "ChannelQualityMap": "repro.core.hopping",
    "ChannelSelector": "repro.core.hopping",
    "HoppingLinkPlanner": "repro.core.hopping",
    "AcquisitionStatistics": "repro.core.link",
    "LinkSimulator": "repro.core.link",
    "BERCurve": "repro.core.metrics",
    "BERPoint": "repro.core.metrics",
    "PacketResult": "repro.core.metrics",
    "count_payload_errors": "repro.core.metrics",
    "qfunc": "repro.core.metrics",
    "theoretical_bpsk_ber": "repro.core.metrics",
    "theoretical_ook_ber": "repro.core.metrics",
    "theoretical_ppm_ber": "repro.core.metrics",
    "Gen1Receiver": "repro.core.receiver",
    "Gen2Receiver": "repro.core.receiver",
    "ReceiveResult": "repro.core.receiver",
    "Gen1Transceiver": "repro.core.transceiver",
    "Gen2Transceiver": "repro.core.transceiver",
    "PacketSimulation": "repro.core.transceiver",
    "Gen1Transmitter": "repro.core.transmitter",
    "Gen2Transmitter": "repro.core.transmitter",
    "TransmitOutput": "repro.core.transmitter",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
