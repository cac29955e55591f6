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


def imports_of(source: str, top_level: bool = False):
    """Modules and `module.name`s a source imports, relative ones resolved;
    with `top_level`, only by statements at module level."""
    tree = ast.parse(source)
    for node in tree.body if top_level else ast.walk(tree):
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


def test_modules_share_no_private_name_and_the_model_loads_alone():
    # a name two modules share is public in the module that defines it
    assert "nvmwear.trace._join" in imports_of("from .trace import _join")
    modules = sorted(Path(nvmwear.__file__).parent.glob("*.py"))
    private = [(p.name, name) for p in modules
               for name in imports_of(p.read_text(encoding="utf-8"))
               if name.startswith("nvmwear.")
               and name.rsplit(".", 1)[1].startswith("_")]
    assert private == []
    # the trace model imports its text format and generators, if at all,
    # inside a function, so loading it loads neither
    inner = "def f():\n    from .tracefile import emit_trace\n"
    assert "nvmwear.tracefile" in imports_of(inner)
    assert list(imports_of(inner, top_level=True)) == []
    source = (Path(nvmwear.__file__).parent / "trace.py").read_text(
        encoding="utf-8")
    assert {"nvmwear.tracefile", "nvmwear.workloads"}.isdisjoint(
        imports_of(source, top_level=True))
