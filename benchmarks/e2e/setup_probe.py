"""Set-up time of one workload, measured in a fresh interpreter.

``run.py`` starts this file several times per run and reports the
median.  Set-up is everything between a started interpreter and a
cluster that is ready to take its first transaction: importing
``repro.api`` (through the workload's driver) and building the cluster
(on ``live_*``: sockets bound and the first checkpoints written).
Generating the benchmark's own inputs is not part of it.  Work a later
change moves out of the timed segments and into import or construction
shows here.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import workloads  # noqa: E402  (needs nothing from src/: not timed)


def main(name: str, seed: int) -> None:
    started = perf_counter()
    if name in workloads.SIM_SPECS:
        import sim_driver

        imported = perf_counter()
        spec = workloads.SIM_SPECS[name]
        sim_driver.build(spec, workloads.sim_items(spec), seed)
        ready = perf_counter()
    else:
        # asyncio is imported after the clock starts: the program needs
        # it, so a fresh interpreter pays for it as part of set-up.
        import asyncio
        import shutil
        import tempfile

        import live_driver

        imported = perf_counter()
        live = workloads.LIVE_SPECS[name]
        data_dir = None
        if live.durable:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            data_dir = tempfile.mkdtemp(prefix="probe-", dir=out_dir)

        async def start() -> float:
            cluster = await live_driver.start_cluster(
                live, workloads.live_accounts(live), seed, data_dir
            )
            at = perf_counter()
            await cluster.stop()
            return at

        try:
            ready = asyncio.run(start())
        finally:
            if data_dir:
                shutil.rmtree(data_dir, ignore_errors=True)
    print(json.dumps({
        "setup_s": ready - started,
        "import_s": imported - started,
        "build_s": ready - imported,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
