"""One benchmark invocation, run in a fresh interpreter.

    python3 child.py RECORD TRACE INVOCATION_ID -- <sled-oam arguments>...
    python3 child.py RECORD speedup INVOCATION_ID -- <sled-oam arguments>...

The first form imports the CLI and loads the workload config (the set-up a
user pays on every run), then calls ``sled_oam.cli.main`` with the arguments,
as the ``sled-oam`` console script does.  With TRACE 0 a short calibration
kernel is timed just before and just after that call; with TRACE 1 the calls
into each module are wrapped first instead.  The ``speedup`` form times ``rate_surfaces`` on the
config's grid with one and with two worker threads instead.  Either form
writes a JSON record to RECORD; the caller reads nothing else.
"""

from __future__ import annotations

import json
import sys
import time


def _config_args(argv):
    config, overrides = None, []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--config":
            config = value
        elif flag == "--set":
            overrides.append(value)
    return config, overrides


def _thread_speedup(config) -> dict:
    from sled_oam import spectral

    times = {}
    for workers in (1, 2):
        start = time.perf_counter()
        try:
            spectral.rate_surfaces(config.grid, config.junction, workers=workers)
        except TypeError:
            return {"speedup": 1.0, "threads": False}  # no threaded path left
        times[workers] = time.perf_counter() - start
    return {"speedup": times[1] / times[2], "t1_s": times[1], "t2_s": times[2], "threads": True}


def _calibrate() -> float:
    """Seconds for a fixed mix of numpy kernels and interpreter work.

    The mix resembles the program's (complex kernels on 4096-node arrays,
    float formatting, JSON encoding) and allocates little, so it leaves the
    peak memory alone.  A machine that runs slower for a while slows both
    alike, and their ratio stays put.
    """
    import numpy as np

    x = np.linspace(0.0, 60.0, 4096)
    start = time.perf_counter()
    acc = 0j
    for d in np.linspace(-6.0, 6.0, 51):
        k = 1.0 / (d - x + 0.01j) - np.exp(-x) / (d + x + 0.01j)
        acc += np.trapezoid(k * k.conj(), x)
    size = 0
    for i in range(20000):
        size += len(f'<rect x="{(i * 0.37) ** 0.5:.2f}" y="{acc.real % 7:.2f}" fill="#{i % 256:02x}"/>')
    for i in range(100):
        size += len(json.dumps([i * 0.1 + j for j in range(250)]))
    return time.perf_counter() - start


def main(argv) -> int:
    record_path, mode, invocation = argv[1:4]
    cli_argv = argv[5:]
    import sled_oam.cli as cli
    from sled_oam.config import load_config
    from sled_oam.errors import SledOamError

    try:
        config = load_config(*_config_args(cli_argv))
    except SledOamError:
        config = None  # cli.main reports it with its own exit code
    record = {"ready_monotonic": time.monotonic(), "spans": []}
    if mode == "speedup":
        record.update(_thread_speedup(config))
        rc = 0
    else:
        entry = cli.main
        if mode == "1":
            from tracing import Tracer  # this script's directory leads sys.path

            tracer = Tracer(invocation)
            tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
            record["spans"] = tracer.spans
        before = _calibrate() if mode == "0" else None
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            rc = entry(cli_argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu
        if before is not None:
            record["calib_s"] = [before, _calibrate()]
    record["rc"] = rc
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
