"""Source-level guards over the `nhmetro` package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import nhmetro

MODULES = sorted(Path(nhmetro.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently vanishes; checks raise typed errors instead.
    found = [f"{path.name}:{node.lineno}"
             for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(MODULES) > 1
    assert found == []


def test_cli_import_leaves_numpy_random_unloaded():
    # estimate._seed_words_type defers numpy.random to the first trial: loading
    # it at import would add about 10 ms to the start of every command
    env = dict(os.environ, PYTHONPATH=str(Path(nhmetro.__file__).parents[1]))
    code = "import sys, nhmetro.cli; print('numpy.random' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"


GENERAL_EIGENSOLVERS = {"eig", "eigvals"}


def test_no_general_eigensolver():
    # Every 2x2 quantity has a closed form; a general eigensolver brings back
    # eigenvector conditioning and a defectiveness threshold. The Hermitian
    # eigh and eigvalsh stay allowed.
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in GENERAL_EIGENSOLVERS
                    and isinstance(node.value, (ast.Attribute, ast.Name))
                    and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"):
                found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                    and GENERAL_EIGENSOLVERS & {alias.name for alias in node.names}):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports():
    # The package has no linter: an import whose name the module never reads
    # is dead code. Lines marked `# noqa: F401` are kept on purpose.
    unused = []
    for path in MODULES:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                if "# noqa: F401" in lines[node.end_lineno - 1]:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported = set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used | exported]
    assert unused == []


CONFIG_READERS = {"_field", "_number", "_complex", "_angle", "_count", "_grid"}


def test_config_converts_values_only_in_its_readers():
    # Outside input reaches float(), complex() and int() only through the
    # value readers, which turn every malformed value into a ConfigError.
    path = Path(nhmetro.__file__).parent / "config.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    conversions = {"float", "complex", "int"}
    found = []
    for function in tree.body:
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in conversions):
                found.append((getattr(function, "name", None), node.lineno))
    assert found, "config.py converts no values"
    assert [f for f in found if f[0] not in CONFIG_READERS] == []


def _cli_users(names):
    """{name: the top-level statements of cli.py that name it}, each
    statement known by its function name or by its assignment's target."""
    path = Path(nhmetro.__file__).parent / "cli.py"
    users = {name: set() for name in names}
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        label = (statement.targets[0].id if isinstance(statement, ast.Assign)
                 else getattr(statement, "name", None))
        for node in ast.walk(statement):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in users:
                users[name].add(label)
    return users


# Who in cli.py may name `open` and `_csv_rows`: one function opens the
# output file, and only the shared table writer and the per-point stream of
# `estimate` write through it.
TABLE_WRITERS = {"open": {"_csv_rows"}, "_csv_rows": {"_write_table", "cmd_estimate"}}

# Who in cli.py may name EXIT_PARTIAL: the shared table writer turns a failed
# row into the exit code of every stacked command; besides its definition,
# only the note rule of `optimal`, the per-point stream of `estimate` and
# `main`'s closing log line read it.
EXIT_RULES = {"EXIT_PARTIAL": {"EXIT_PARTIAL", "_write_table", "cmd_optimal", "cmd_estimate",
                               "main"}}


def test_every_table_goes_through_one_writer():
    # A command with a private table writer would have its own row format
    # and its own failed-row rule.
    assert _cli_users(TABLE_WRITERS) == TABLE_WRITERS


def test_every_stacked_command_exits_through_the_table_writer():
    # A stacked command with its own failed-row exit rule could disagree
    # with the rows `_write_table` wrote.
    assert _cli_users(EXIT_RULES) == EXIT_RULES


REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIRS = ("src", "tests", "perfbench")


def _identifiers(node):
    """Names a statement uses: variables, attributes, imported names, and
    strings that spell an identifier or a dotted path (monkeypatch targets,
    the benchmark's traced-function tables)."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.update(child.name.split("."))
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and all(part.isidentifier() for part in child.value.split("."))):
            found.update(child.value.split("."))
    return found


def _unread_public_names(directories):
    """(location, name) of each public module-level name of the package that
    nothing under `directories` reads outside its own definition; dunder
    names are exempt."""
    uses = Counter()
    for directory in directories:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for statement in ast.parse(path.read_text(), filename=str(path)).body:
                uses.update(_identifiers(statement))
    unread = []
    for path in MODULES:
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = {statement.name}
            elif isinstance(statement, ast.Assign):
                names = {target.id for target in statement.targets
                         if isinstance(target, ast.Name)}
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                names = {statement.target.id}
            else:
                continue
            own = _identifiers(statement)
            unread += [(f"{path.name}:{statement.lineno}", name) for name in sorted(names)
                       if not name.startswith("_") and uses[name] - (name in own) == 0]
    return unread


def test_every_public_name_is_used():
    # A public module-level name that nothing reads is dead code.
    assert _unread_public_names(REFERENCE_DIRS) == []


# Names the library offers although only the tests call them, with the reason.
LIBRARY_API = {
    "SIGMA_X": "Pauli matrix; the README lists the Pauli matrices in linalg",
    "SIGMA_Z": "Pauli matrix; the README lists the Pauli matrices in linalg",
    "sld_operator": "the exact symmetric logarithmic derivative the README documents",
}


def test_no_public_name_is_read_only_by_tests():
    # Code that only the tests read belongs in tests/reference.py.
    unread = _unread_public_names(("src", "perfbench"))
    assert [(where, name) for where, name in unread if name not in LIBRARY_API] == []


def _top_level_function(module, name):
    path = Path(nhmetro.__file__).parent / f"{module}.py"
    return next(node for node in ast.parse(path.read_text(), filename=str(path)).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_propagator_is_loop_free_closed_form_code():
    # exp(-itH) is cos, sin and exp over the whole array of t: a loop over
    # t, an iterative kernel or an eigensolver would undo the closed form
    propagator = _top_level_function("linalg", "propagator")
    loops = [type(node).__name__ for node in ast.walk(propagator)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    names = _identifiers(propagator)
    assert loops == []
    assert {name for name in names
            if name in {"mat_exp", "_taylor", "expm"} or name.startswith("eig")} == set()


def test_dilate_checks_against_the_closed_form_propagator():
    # the direct route of `dilate` is the propagator, not `evolve`'s mat_exp
    names = _identifiers(_top_level_function("cli", "cmd_dilate"))
    assert "evolve" not in names and "propagator" in names
