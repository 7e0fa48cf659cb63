"""Traced server launcher: wrap the layer boundaries, then run ``repro``.

Usage: ``python perfbench/launcher.py SPANS_FILE serve [serve options]``

Installs the benchmark's span wrappers around the public functions of
every layer, calls the ``repro`` command-line entry point with the
remaining arguments, and writes the recorded spans to ``SPANS_FILE``
when that entry point returns (after a SIGTERM drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.spans import Tracer, install_layers
    from repro.cli import main as repro_main

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_layers(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.stop()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
