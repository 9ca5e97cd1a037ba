"""Each library module uses only the public names of the others, every
public function and class has a reader, every export is read or documented,
each relation has one function, freegroup writes generator images by
one side-twist rule and a letter's vertex index by one rule, no module
caches a reader with ``cached_property``, values are built only by their
constructors or ``Value._trusted``, importing the CLI loads no
``dataclasses`` or what it pulls in, and no source line is longer than
99 characters."""

import ast
import os
import re
import subprocess
import sys

from freesplit import partitions
from freesplit.blowup import GraphOfGroups

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "freesplit")
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PRIVATE_REACH = re.compile(r"\b(partitions|blowup|complexes|freegroup|verify|cli|values)\._\w*")


def test_no_module_uses_another_modules_private_name():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "complexes.py" in modules
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as handle:
            source = handle.read()
        match = PRIVATE_REACH.search(source)
        assert match is None, "%s uses %s" % (name, match.group(0))


def test_no_source_line_exceeds_99_characters():
    # Every text file under src/freesplit/, the schemas included.
    long_lines = []
    for root, dirs, files in os.walk(SRC):
        dirs[:] = [name for name in dirs if name != "__pycache__"]
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                long_lines += ["%s:%d" % (os.path.relpath(path, SRC), number)
                               for number, line in enumerate(handle, 1)
                               if len(line.rstrip("\n")) > 99]
    assert long_lines == []


def _trees(directory):
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


def _reads(tree):
    """Every name the code reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_and_class_has_a_reader():
    # A reader is code elsewhere in src/, the package exports, or the benchmark.
    modules = _trees(SRC)
    init = modules.pop("__init__.py")
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    read = set().union(*map(_reads, modules.values()), *map(_reads, _trees(BENCH).values()))
    unread = [
        "%s:%s" % (name, node.name)
        for name, tree in modules.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | exported
    ]
    assert unread == []


def test_the_class_bindings_are_the_relations_themselves():
    assert partitions.classes_compatible is partitions.compatible
    assert partitions.classes_rose_compatible is partitions.rose_compatible
    assert partitions.classes_cagey is partitions.is_cagey


def test_no_module_but_partitions_reads_a_class_binding():
    # The library calls each relation by its one name; the classes_* names
    # are kept for the benchmark alone.
    reads = [
        "%s:%s" % (name, read)
        for name, tree in _trees(SRC).items() if name != "partitions.py"
        for read in sorted(_reads(tree) | {node.name for node in ast.walk(tree)
                                           if isinstance(node, ast.alias)})
        if read.startswith("classes_")
    ]
    assert reads == []


def _library_use_names():
    """The names in backticks in README's ``## Library use`` section."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def test_every_export_is_read_or_documented():
    # An export needs a reader elsewhere in src/ or in the benchmark, or a
    # stated reason in README's library-use section; tests do not count.
    modules = _trees(SRC)
    init = modules.pop("__init__.py")
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    read = set().union(*map(_reads, modules.values()), *map(_reads, _trees(BENCH).values()))
    documented = _library_use_names()
    assert [name for name in exported if name not in read | documented] == []


def test_every_public_method_has_a_reader():
    # A method, property or classmethod of a public class needs an attribute
    # read elsewhere in src/ or in the benchmark, or a name in README's
    # library-use section; tests do not count.
    modules = _trees(SRC)
    read = {node.attr for tree in [*modules.values(), *_trees(BENCH).values()]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= _library_use_names()
    unread = [
        "%s:%s.%s" % (name, cls.name, method.name)
        for name, tree in modules.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and method.name not in read
    ]
    assert unread == []


def test_only_graph_of_groups_shape_counts_loops_and_bundles():
    # Every quotient shape is keyed by GraphOfGroups.shape(): no other reader
    # of loops or bundles exists, and no module outside blowup.py unpacks an
    # edge's two ends to count them itself.
    assert hasattr(GraphOfGroups, "shape")
    assert not hasattr(GraphOfGroups, "loops") and not hasattr(GraphOfGroups, "bundles")
    reads = [
        "%s:%d" % (name, node.iter.lineno if isinstance(node, ast.comprehension) else node.lineno)
        for name, tree in _trees(SRC).items() if name != "blowup.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("loops", "bundles"))
        or (isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Attribute) and node.iter.attr == "edges"
            and isinstance(node.target, ast.Tuple)
            and any(isinstance(elt, ast.Tuple) for elt in node.target.elts))
    ]
    assert reads == []


def test_verify_leaves_the_crossing_pair_walk_to_partitions():
    # The boundary-types verifier reads crossing_pair_orbits: it reads no
    # B_N table and no full mask, builds no corner set and complements no mask.
    tree = _trees(SRC)["verify.py"]
    assert "crossing_pair_orbits" in _reads(tree)
    assert not _reads(tree) & {"signed_permutation_tables", "full_mask", "corner_masks",
                               "frozenset"}
    assert not any(isinstance(node, ast.Invert) for node in ast.walk(tree))


def _calls(function):
    """The names a function calls, bare or as an attribute."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(function) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_freegroup_writes_generator_images_by_one_rule():
    # twist and whitehead_automorphism are side twists, and the descent
    # builds its letter table from the run helpers that side_twist calls.
    functions = {node.name: node for node in _trees(SRC)["freegroup.py"].body
                 if isinstance(node, ast.FunctionDef)}
    assert "_wh_image" not in functions
    for caller in ("twist", "whitehead_automorphism"):
        assert "side_twist" in _calls(functions[caller]), caller
    helpers = _calls(functions["side_twist"]) & {name for name in functions if name[0] == "_"}
    descent = _calls(functions["_descend"])
    assert helpers and helpers <= descent and "_letter_table" in descent


def _doubles(node):
    """Whether node is 2 * x or -2 * x for an x other than a constant or ``rank``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for two, x in ((node.left, node.right), (node.right, node.left)):
        if isinstance(two, ast.UnaryOp) and isinstance(two.op, ast.USub):
            two = two.operand
        if (isinstance(two, ast.Constant) and two.value == 2
                and not isinstance(x, ast.Constant)
                and not (isinstance(x, ast.Name) and x.id == "rank")):
            return True
    return False


def test_freegroup_writes_the_letter_to_vertex_rule_once():
    # A vertex index is 2l - 2 or -2l - 1, a doubled letter plus an offset:
    # only _bit computes one, and canonical_cycle and the descent's vertex
    # table read _bit.
    functions = [node for node in ast.walk(_trees(SRC)["freegroup.py"])
                 if isinstance(node, ast.FunctionDef)]
    offsetting = [function.name for function in functions
                  if any(isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                         and _doubles(node.left) for node in ast.walk(function))]
    assert offsetting == ["_bit"]
    readers = {function.name for function in functions if "_bit" in _reads(function)}
    assert {"canonical_cycle", "_vertex_index"} <= readers


def test_no_module_imports_dataclasses():
    imports = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees(SRC).items() for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert imports == []


def test_no_module_imports_cached_property():
    # A value keeps what it derives in slots set by its constructor.
    uses = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees(SRC).items() for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom)
            and any(alias.name == "cached_property" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
    ]
    assert uses == []


def _object_reads(tree, attr):
    """(line, enclosing function name) of every read of ``object.<attr>``."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_values_are_built_only_by_constructors_or_value_trusted():
    # Outside values.py nothing allocates a bare instance, and a slot is
    # stored only inside an __init__, never after a constructor returns.
    bare, late = [], []
    for name, tree in _trees(SRC).items():
        if name != "values.py":
            bare += ["%s:%d" % (name, line) for line, _ in _object_reads(tree, "__new__")]
            late += ["%s:%d" % (name, line) for line, function
                     in _object_reads(tree, "__setattr__") if function != "__init__"]
    assert bare == [] and late == []


def test_importing_the_cli_loads_no_dataclasses_machinery():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = "import sys, freesplit.cli; print(sorted(set(%r) & set(sys.modules)))" % (heavy,)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(SRC, os.pardir), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
