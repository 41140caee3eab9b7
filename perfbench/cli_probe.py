"""Child process of the traced run: times the import and one CLI call.

Usage: python3 perfbench/cli_probe.py <su2nlft CLI arguments...>

Prints one JSON object: ``import_s`` (importing ``su2nlft.cli``, which
imports the whole package), ``main_s`` (one ``main()`` call), the exit
code and the captured standard output of the call.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
from su2nlft.cli import main  # noqa: E402

t1 = time.perf_counter()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[1:])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "main_s": t2 - t1, "exit": code,
                  "stdout": buf.getvalue()}))
