"""Installs the gaa span tracer at interpreter start when GAATRACE_DIR is set.

Putting this directory first on PYTHONPATH traces every Python process of a
pass, pool workers included, whatever start method the pool uses.
"""

import os
import sys

if os.environ.get("GAATRACE_DIR"):
    import gaatrace

    try:
        gaatrace.install(os.environ["GAATRACE_DIR"])
    except gaatrace.TraceSetupError as exc:
        # site.py would print an exception from here and carry on untraced
        sys.stderr.write(f"gaatrace: {exc}\n")
        sys.stderr.flush()
        os._exit(3)
