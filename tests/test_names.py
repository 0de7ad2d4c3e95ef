"""Names that code outside the package relies on.

perfbench's tracer wraps each function it lists in TRACED, and a name it
cannot find only shows as `"correct": false` in a `--trace 1` run. The
README's library tour lists each module's public names.
"""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    missing = []
    for mod_name, attrs in _tracer().TRACED.items():
        module = importlib.import_module(mod_name)
        for attr in attrs:
            # as Tracer.install looks it up: "Class.method" on the class itself
            owner, _, field = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            if not callable(vars(holder).get(field)):
                missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_readme_library_tour_names_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(lacunary\.\w+)` \| (.*) \|$", tour, re.MULTILINE)
    assert len(rows) == 7
    missing = [f"{mod_name}.{name}" for mod_name, cell in rows
               for name in re.findall(r"`(\w+)`", cell)
               if not hasattr(importlib.import_module(mod_name), name)]
    assert missing == []
