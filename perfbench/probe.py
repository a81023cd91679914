"""Set-up probe: a fresh interpreter that imports esfi.cli and runs one
operation, given as JSON on the command line.  It imports nothing else, so
its wall time is interpreter start-up, the import and the operation.

    PYTHONPATH=src python3 perfbench/probe.py '{"argv": ["constants"]}'
    PYTHONPATH=src python3 perfbench/probe.py '{"invert": [1e3, 1.0, null, "ll"]}'
"""

import contextlib
import io
import json
import sys

payload = json.loads(sys.argv[1])

import esfi.cli  # noqa: E402

if "argv" in payload:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        esfi.cli.main(payload["argv"])
else:
    target, Z, I, method = payload["invert"]
    esfi.invert_rate(target, esfi.make_atom(Z, I), method=method)
