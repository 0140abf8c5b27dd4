"""Each entry point loads only the subsystem it runs.

Every row starts a fresh interpreter with ``PYTHONPATH=src``, imports one
entry module and checks what landed in ``sys.modules`` against a deny-list.
The rows hold because the package root and the ``sdnsim``, ``resilience``,
``ml``, ``observability`` and ``recovery`` packages import nothing
themselves (other subsystems import their modules one at a time), and
networkx is imported only where a path is routed.  A row that fails names
the modules it found; ``python -X importtime -c 'import <entry>'`` shows
which import pulled each one in.

The examples are imported here too: their ``__main__`` guards keep them
from running, so this catches an example that names a moved definition.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The paper's §II-C study stack, which no command-line subsystem needs.
STUDY = (
    "repro.corpus",
    "repro.pipeline",
    "repro.textmining",
    "repro.embeddings",
    "repro.analysis",
)
#: Every package but the table renderer the command line prints with.
PACKAGES = tuple(
    f"repro.{path.parent.name}"
    for path in sorted((SRC / "repro").glob("*/__init__.py"))
    if path.parent.name != "reporting"
)

ROWS = {
    "cli": (
        ("repro.__main__",),
        ("numpy", "networkx", "scipy", *PACKAGES),
    ),
    "fuzz": (
        ("repro.fuzzing.campaign",),
        ("networkx", "repro.sdnsim.topology", *STUDY, "repro.stream",
         "repro.staticanalysis"),
    ),
    "ingest": (
        ("repro.stream.ingest",),
        ("networkx", "repro.adversary", "repro.fuzzing", "repro.sdnsim.cluster",
         "repro.sdnsim.topology", *STUDY),
    ),
    "lint": (
        ("repro.staticanalysis", "repro.staticanalysis.dataflow.engine"),
        ("numpy", "networkx", "repro.sdnsim", "repro.ml",
         "repro.resilience.supervisor", "repro.smells"),
    ),
    "kill-target": (
        ("repro.recovery._child",),
        ("numpy", "networkx"),
    ),
}

_LOAD = (
    "import importlib, json, sys\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)


def modules_loaded_by(entries: tuple[str, ...]) -> set[str]:
    """Every module in ``sys.modules`` after a fresh interpreter imports
    ``entries``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _LOAD, *entries],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stdout))


def denied(loaded: set[str], deny: tuple[str, ...]) -> list[str]:
    """The denied packages or modules of ``loaded`` (a package counts
    when any module under it is loaded)."""
    return sorted(
        name for name in deny
        if any(module == name or module.startswith(name + ".") for module in loaded)
    )


def test_denied_counts_a_package_by_any_module_under_it():
    loaded = {"numpy", "repro", "repro.sdnsim", "repro.sdnsim.clock", "repro.mlx"}
    deny = ("numpy", "networkx", "repro.sdnsim.clock", "repro.ml", "repro.sdnsim.topology")
    assert denied(loaded, deny) == ["numpy", "repro.sdnsim.clock"]


@pytest.mark.parametrize("row", sorted(ROWS))
def test_entry_point_loads_only_its_subsystem(row):
    entries, deny = ROWS[row]
    loaded = modules_loaded_by(entries)
    assert set(entries) <= loaded
    assert not denied(loaded, deny), (
        f"importing {', '.join(entries)} loaded {denied(loaded, deny)}"
    )


@pytest.mark.parametrize(
    "path", sorted((ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
