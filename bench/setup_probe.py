"""Set-up time of a fresh interpreter: import, load_config, build_model.

Usage: python3 setup_probe.py CONFIG OUT_DIR

Prints two numbers: the seconds from before ``import properflow`` until
``cli.build_model`` returns, and the seconds of one CPU calibration kernel
run made afterwards (after one warm-up run).  Interpreter start-up is not included.
"""

import sys
import time


def main(config: str, out_dir: str) -> tuple[float, float]:
    t0 = time.perf_counter()
    import properflow  # noqa: F401
    from properflow import cli

    cli.build_model(cli.load_config(config, out_dir))
    setup = time.perf_counter() - t0

    import calibrate

    calibrate.cpu_kernel()
    return setup, calibrate.cpu_seconds()


if __name__ == "__main__":
    print(*(repr(x) for x in main(sys.argv[1], sys.argv[2])))
