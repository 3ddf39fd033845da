"""Child process for the benchmark's start-up measurements.

``python3 startup.py setup`` imports ``repro.cli`` and loads the flow kernel,
then prints one JSON line and exits; the parent times the spawn up to that
line.  ``python3 startup.py imports`` prints the incremental import time of
each subpackage in dependency order, then the kernel load time.

Importing any ``repro.X`` runs ``repro/__init__.py``, which imports every
subpackage at once.  The ``imports`` mode therefore registers a bare package
object for ``repro`` first, so that each subpackage pays only for what it
pulls in itself, and runs the real ``__init__`` as part of the ``cli`` step.
"""

import importlib
import importlib.util
import json
import sys
import time

LAYERS = ("model", "offline", "online", "verify", "runner", "serve", "cli")


def _kernel() -> dict:
    from repro.offline import kernel
    from repro.offline.flow import resolve_backend

    info = kernel.build_info()  # loads the kernel, or records why it cannot
    return {"backend": resolve_backend("auto"), "cache_hit": info.get("cache_hit")}


def setup() -> dict:
    import repro.cli  # noqa: F401

    return _kernel()


def imports() -> dict:
    spec = importlib.util.find_spec("repro")
    package = importlib.util.module_from_spec(spec)
    sys.modules["repro"] = package
    out = {}
    for layer in LAYERS:
        t0 = time.perf_counter()
        if layer == "cli":
            spec.loader.exec_module(package)
        importlib.import_module("repro." + layer)
        out[layer] = time.perf_counter() - t0
    t0 = time.perf_counter()
    out.update(_kernel())
    out["kernel_load"] = time.perf_counter() - t0
    return out


if __name__ == "__main__":
    mode = sys.argv[1]
    result = {"setup": setup, "imports": imports}[mode]()
    print(json.dumps(result), flush=True)
