"""docs/generate_api.py renders the same API.md on every run.

Its output is committed, so anything run-dependent in it (a memory
address in a constant's ``repr``) would rewrite lines of docs/API.md on
every regeneration even when no API changed.
"""

import importlib.util
import pathlib

GENERATOR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "generate_api.py"


def test_render_is_deterministic():
    spec = importlib.util.spec_from_file_location("generate_api", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    first = generator.render()
    assert " at 0x" not in first
    assert "'crash': repro.chaos.registry._act_crash" in first  # by qualified name
    assert first == generator.render()
