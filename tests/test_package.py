"""The package's public names are its modules' ``__all__`` lists, each
name in one list. The names themselves are not pinned here: that would
be a second list to keep in step."""
import ast
import importlib
import pkgutil
import re
import shlex
from collections import Counter
from pathlib import Path

import trafficlab as tl
from trafficlab import cli

ROOT = Path(__file__).resolve().parents[1]
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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_the_readme_command_lines_parse():
    # a subcommand or flag the CLI no longer has fails here; a command
    # runs on after a backslash at a line end
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [match[1] for match in map(re.compile(r"(?:^|&& )trafficlab (.*)").search, lines) if match]
    assert len(commands) >= 13
    parser, refused = cli.build_parser(), []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            refused.append(command)
    assert refused == []


def test_every_public_name_is_used_by_the_package_or_its_scripts():
    # no public API that only the tests use: each listed name is read by
    # a name or an attribute somewhere in src/trafficlab or scripts,
    # outside the top-level def or class that defines it
    used = set()
    for path in [*(ROOT / "src" / "trafficlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != owner:
                    used.add(name)
    assert [name for module in PUBLIC for name in module.__all__ if name not in used] == []
