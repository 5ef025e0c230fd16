"""PHY layer: preambles, CRC, scrambler, convolutional coding, packet framing."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ConvolutionalCode": "repro.phy.coding",
    "K3_RATE_HALF": "repro.phy.coding",
    "K7_RATE_HALF": "repro.phy.coding",
    "ViterbiDecoder": "repro.phy.coding",
    "CRC": "repro.phy.crc",
    "CRC16_CCITT": "repro.phy.crc",
    "CRC32": "repro.phy.crc",
    "append_crc": "repro.phy.crc",
    "check_crc": "repro.phy.crc",
    "HEADER_LENGTH_BITS": "repro.phy.packet",
    "Packet": "repro.phy.packet",
    "PacketBuilder": "repro.phy.packet",
    "PacketConfig": "repro.phy.packet",
    "PacketParser": "repro.phy.packet",
    "ParseResult": "repro.phy.packet",
    "PreambleConfig": "repro.phy.preamble",
    "barker_sequence": "repro.phy.preamble",
    "bits_to_bipolar": "repro.phy.preamble",
    "build_preamble_symbols": "repro.phy.preamble",
    "gold_code": "repro.phy.preamble",
    "lfsr_sequence": "repro.phy.preamble",
    "m_sequence": "repro.phy.preamble",
    "Scrambler": "repro.phy.scrambler",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
