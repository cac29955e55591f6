"""The package's public surface."""

import ast
import re
from pathlib import Path

import nvmwear

ROOT = Path(__file__).resolve().parent.parent

# the pipeline the README and demos drive; internals come from their modules
PUBLIC_API = {
    "SimConfig", "replay", "paired_run", "Trace", "WriteEvent",
    "SpUpdateEvent", "make_layout", "gen_workload", "achieved_endurance",
    "WriteSampler", "MemoryLayout", "Segment", "load_trace", "save_trace",
    "SimulationError",
}


def imported_names(source: str):
    """Names a Python source imports with `from nvmwear import ...`."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "nvmwear"
            for alias in node.names}


def test_every_exported_name_resolves():
    missing = [name for name in nvmwear.__all__
               if not hasattr(nvmwear, name)]
    assert missing == []
    assert len(set(nvmwear.__all__)) == len(nvmwear.__all__)


def test_exports_exactly_the_public_api():
    assert set(nvmwear.__all__) == PUBLIC_API
    init = Path(nvmwear.__file__).read_text(encoding="utf-8")
    assert {name for node in ast.parse(init).body
            if isinstance(node, ast.ImportFrom)
            for name in (a.asname or a.name for a in node.names)} == PUBLIC_API


def test_readme_and_demos_import_only_exported_names():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(sources) >= 5  # four demos and the README's API example
    used = set().union(*(imported_names(src) for src in sources))
    assert used and used <= set(nvmwear.__all__)


def imports_of(source: str):
    """Modules and `module.name`s a source imports, relative ones resolved."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "nvmwear." * (node.level > 0) + (node.module or "")
            yield module.rstrip(".")
            yield from (module.rstrip(".") + "." + a.name for a in node.names)


def test_only_the_spec_imports_the_spec():
    # the engine must share no code with the model it is checked against
    for form in ("from .spec import X", "from . import spec",
                 "import nvmwear.spec"):
        assert "nvmwear.spec" in imports_of(form)
    modules = sorted(Path(nvmwear.__file__).parent.glob("*.py"))
    assert "spec.py" in [p.name for p in modules]
    assert [p.name for p in modules if "nvmwear.spec"
            in imports_of(p.read_text(encoding="utf-8"))] == []
