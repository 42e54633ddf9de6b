"""Set-up probe: a fresh process that imports ``lmbd`` and makes one
warm-up call of the given workload's kind, then prints ``ready``.

    PYTHONPATH=src python3 bench/probe.py <workload>

The harness times it from spawn to the ``ready`` line (``setup_s``).
"""

import contextlib
import io
import os
import sys


def warm_up(workload: str) -> None:
    if workload == "cli":
        from lmbd.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(["pmf", "--n", "10", "--psi", "0.3", "--omega", "0.8", "--out", os.devnull])
        return
    import lmbd

    if workload == "query":
        lmbd.pmf(lmbd.ModelParams(n=10, psi=0.3, omega=0.8))
    else:
        lmbd.delta_grid(lmbd.GridSpec.linspace(5, 11, 11))


if __name__ == "__main__":
    warm_up(sys.argv[1])
    print("ready", flush=True)
