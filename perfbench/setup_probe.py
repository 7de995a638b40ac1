"""One cold set-up: import xifrac, parse a config, run driver.initialize.

Run in a fresh interpreter by ``run.py``; prints its phase times as JSON.
Usage: python3 perfbench/setup_probe.py CONFIG [KEY=VALUE ...]
"""

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    from xifrac import driver
    from xifrac.config import parse_config
    t1 = time.perf_counter()
    path, *pairs = sys.argv[1:]
    with open(path) as fh:
        text = fh.read()
    config = parse_config(text, dict(p.split("=", 1) for p in pairs))
    t2 = time.perf_counter()
    driver.initialize(config)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                      "init_s": t3 - t2}))


if __name__ == "__main__":
    main()
