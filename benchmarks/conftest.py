"""Benchmark-suite configuration: make the shared _report helper and
perfbench's service harness importable."""

import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "perfbench")]
