"""Import discipline: commands that do not simulate never load the
simulator.

``scipy.signal`` pulls in ``scipy.stats``, ``scipy.interpolate`` and
``scipy.optimize`` and dominated ``python -m repro`` start-up, so every
scipy import sits at its call site; likewise the package ``__init__``s
are lazy and the engine imports its simulation-only modules (the batch
kernels, the receiver stack, the process pool) where it calls them.  These are module sets, not timings.  Each check runs in
a fresh interpreter, because the test process itself has long since
loaded everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
HEAVY = ("scipy.signal", "scipy.special", "scipy.stats",
         "repro.sim.batch", "repro.sim.batch_rx",
         "repro.core.transceiver", "repro.dsp", "repro.serve",
         "concurrent.futures.process", "multiprocessing.shared_memory")
#: Most ``repro`` modules ``import repro`` or ``import repro.runs.cli``
#: may load.
CLI_MODULE_BUDGET = 38
SWEEP = ["sweep", "--scenario", "awgn", "--mod", "bpsk", "--ebn0", "4:8:2",
         "--packets", "8", "--payload-bits", "32", "--chunk-packets", "4",
         "--store-format", "sqlite"]


def loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; which heavy modules it loaded
    (plus ``"repro_modules"``: how many ``repro`` modules)."""
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        loaded = {{name: name in sys.modules for name in {HEAVY!r}}}
        loaded["repro_modules"] = sum(
            1 for name in sys.modules
            if name == "repro" or name.startswith("repro."))
        print(json.dumps(loaded))
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["repro", "repro.runs.cli"])
def test_import_loads_no_scipy_signal_special_or_stats(module):
    loaded = loaded_after(f"import {module}")
    assert loaded.pop("repro_modules") <= CLI_MODULE_BUDGET
    assert loaded == dict.fromkeys(HEAVY, False)


def test_cached_commands_load_no_scipy_signal_special_or_stats(tmp_path):
    from repro.runs.cli import main

    build = SWEEP + ["--out", str(tmp_path), "--name", "tiny"]
    with open(os.devnull, "w") as sink:
        assert main(build + ["--telemetry"], out=sink) == 0
    run_dir = str(tmp_path / "tiny")
    commands = [build, ["show", "--run", run_dir], ["report", run_dir],
                ["query", run_dir, "--export", "q", "--export-dir",
                 str(tmp_path / "export")],
                ["merge", "--run", run_dir]]
    loaded = loaded_after(f"""
        import io
        from repro.runs.cli import main
        for argv in {commands!r}:
            out = io.StringIO()
            assert main(argv, out=out) == 0, (argv, out.getvalue())
            if argv[0] == "sweep":
                assert "all points served from cache" in out.getvalue()
        """)
    loaded.pop("repro_modules")
    assert loaded == dict.fromkeys(HEAVY, False)


def test_pool_fan_out_loads_scipy_signal_before_forking():
    # The workers fork from the parent, so whatever the chunk body needs
    # is imported once there rather than once per worker.
    loaded = loaded_after("""
        from repro.sim import SweepEngine, SweepPoint
        engine = SweepEngine(seed=3, backend="fullstack")
        engine.measure_points([(SweepPoint(ebn0_db=4.0), 8, 0)],
                              payload_bits_per_packet=32, max_workers=2,
                              chunk_packets=4)
        """)
    assert loaded["scipy.signal"]
    assert loaded["repro.sim.batch_rx"]
    assert loaded["repro.core.transceiver"]
