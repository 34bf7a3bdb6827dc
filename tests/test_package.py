"""The package's public names are its modules' ``__all__`` lists, each
name in one list. The names themselves are not pinned here: that would
be a second list to keep in step."""
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import trafficlab as tl

MODULES = [importlib.import_module(f"trafficlab.{info.name}") for info in pkgutil.iter_modules(tl.__path__)]
PUBLIC = [module for module in MODULES if hasattr(module, "__all__")]


def test_every_module_but_the_cli_states_its_public_names():
    assert [module.__name__ for module in MODULES if module not in PUBLIC] == ["trafficlab.cli"]


def test_the_package_list_is_the_version_and_each_module_list():
    listed = ["__version__"] + [name for module in PUBLIC for name in module.__all__]
    assert Counter(tl.__all__) == Counter(listed)


def test_no_name_is_in_two_lists():
    counts = Counter(name for module in PUBLIC for name in module.__all__)
    assert "__version__" not in counts
    assert [name for name, n in counts.items() if n > 1] == []


def test_each_name_is_its_modules_object():
    for module in PUBLIC:
        for name in module.__all__:
            assert getattr(tl, name) is getattr(module, name), (module.__name__, name)


def test_a_star_import_binds_exactly_the_list():
    namespace: dict = {}
    exec("from trafficlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tl.__all__)


def test_the_readme_python_example_runs():
    # a name the example uses and the package no longer has fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
