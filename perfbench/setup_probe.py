"""Set-up probe, run in a fresh interpreter: import, schema load, config parse.

Usage: python3 setup_probe.py CONFIG.json   (with the package on PYTHONPATH)

Prints the ``time.perf_counter`` readings (system-wide on Linux) at
interpreter start, after the imports, and when the first seed could start.
"""

import time

t_up = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from marketsel import cli  # noqa: E402 - imports the package too

t_imported = time.perf_counter()
with open(sys.argv[1]) as fh:
    cli.parse_config_dict(json.load(fh))
t_ready = time.perf_counter()
print(json.dumps({"up": t_up, "imported": t_imported, "ready": t_ready}))
