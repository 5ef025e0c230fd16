"""BENCH-BACKENDS — Array backends comparison.

The ROADMAP's "Fast sweeps" question: the batch kernel runs on a
pluggable :class:`repro.sim.backends.ArrayBackend`.  This benchmark
times the same grid on every backend available on this machine (NumPy
always; JAX when installed) and checks the accelerators stay within
binomial tolerance of the NumPy reference.

It prints a table; the assert is deliberately conservative (generous
statistical tolerance) because this file runs inside the tier-1 suite on
loaded single-core CI boxes.
"""

import time

import numpy as np
import pytest

from repro.sim import SweepEngine, available_backends, sweep_grid

from bench_utils import (append_bench_record, format_ber, print_header,
                         print_table)

EBN0_GRID_DB = (2.0, 6.0, 10.0)
NUM_PACKETS = 24
PAYLOAD_BITS = 48


def _run_grid(array_backend: str):
    engine = SweepEngine(generation="gen2", seed=23,
                         array_backend=array_backend)
    grid = sweep_grid(EBN0_GRID_DB, scenarios=("awgn", "cm1"))
    start = time.perf_counter()
    result = engine.run(grid, num_packets=NUM_PACKETS,
                        payload_bits_per_packet=PAYLOAD_BITS)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.mark.benchmark(group="bench-backends")
def test_bench_array_backends(benchmark):
    backends = available_backends()
    results = benchmark.pedantic(
        lambda: {name: _run_grid(name) for name in backends},
        rounds=1, iterations=1)

    print_header("BENCH-BACKENDS",
                 "one grid, every array backend available on this machine")
    reference, reference_s = results["numpy"]
    rows = []
    for name in backends:
        result, elapsed = results[name]
        mid = result.entries[1]
        rows.append([name, f"{elapsed * 1e3:8.1f} ms",
                     f"{reference_s / max(elapsed, 1e-9):5.2f}x",
                     format_ber(mid[1].ber)])
    print_table(["backend", "grid time", "vs numpy",
                 f"BER @ {EBN0_GRID_DB[1]:.0f} dB (awgn)"], rows)
    for name in backends:
        _, elapsed = results[name]
        append_bench_record(f"bench-backends/{name}", elapsed,
                            speedup=reference_s / max(elapsed, 1e-9),
                            backend=name)

    assert "numpy" in backends
    for name in backends:
        if name == "numpy":
            continue
        result, _ = results[name]
        for (point, expected), (_, got) in zip(reference.entries,
                                               result.entries):
            pooled = (expected.bit_errors + got.bit_errors) / (
                expected.total_bits + got.total_bits)
            sigma = np.sqrt(max(pooled * (1 - pooled), 1e-9)
                            / expected.total_bits)
            tolerance = 4.0 * sigma + 2.0 / expected.total_bits
            assert abs(got.ber - expected.ber) <= tolerance, (
                f"{name} diverges from numpy at {point}")

