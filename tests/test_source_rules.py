"""Rules over the package source, checked by parsing it with ``ast``."""

import ast
from pathlib import Path

import bevprobe

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bevprobe"


class _JsonDecodes(ast.NodeVisitor):
    """Collects (function, line) for each ``json.load``/``json.loads`` call."""

    def __init__(self):
        self.function = "<module>"
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_ImportFrom(self, node):
        if node.module == "json" and {a.name for a in node.names} & {"load", "loads"}:
            self.found.append(("<import>", node.lineno))

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
                and isinstance(f.value, ast.Name) and f.value.id == "json"):
            self.found.append((self.function, node.lineno))
        self.generic_visit(node)


def test_outside_json_has_one_decoder():
    # Each reader once caught its own subset of decoder errors, so a bad
    # document could exit 2, 3 or with a traceback depending on the reader.
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _JsonDecodes()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        for function, line in visitor.found:
            calls[f"{path.name}:{line}"] = function
    assert list(calls.values()) == ["decode_json"], calls
    assert next(iter(calls)).startswith("errors.py:")


GRID_ORIGINS = {"origin_x", "origin_y"}
GRID_CALLS = {"read_grid_tensor", "draw_gaussian_peak"}


def grid_rule_uses(tree):
    """Each grid origin read, and each call of the grid-file reader or the
    Gaussian splat, by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in GRID_ORIGINS:
            yield node.attr
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in GRID_CALLS:
                yield name


def test_grid_rules_live_in_bev_grid():
    # Cell placement in the world, the grid-file format and the splat have
    # one home, so a copy in hip or sim cannot drift from it.
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in grid_rule_uses(ast.parse(path.read_text(encoding="utf-8"))):
            uses.setdefault(path.name, set()).add(name)
    assert uses == {"bev_grid.py": GRID_ORIGINS | GRID_CALLS}, uses


HEADING_TRIG = {(module, f) for module in ("math", "np", "numpy") for f in ("cos", "sin")}


def heading_trig_uses(tree):
    """Each ``math.cos``/``math.sin``/``np.cos``/``np.sin`` reference, and
    each import of those names from ``math`` or ``numpy``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in HEADING_TRIG):
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module, alias.name) in HEADING_TRIG:
                    yield f"{node.module}.{alias.name}"


def test_heading_trigonometry_lives_in_geometry():
    # A box's corners and the footprint the mask rasterizes must agree bit
    # for bit, so every heading's cosine and sine come from one module.
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in heading_trig_uses(ast.parse(path.read_text(encoding="utf-8"))):
            uses.setdefault(path.name, set()).add(name)
    assert set(uses) <= {"geometry.py"}, uses


def test_public_names_are_the_names_init_imports():
    # __all__ and the imports of __init__.py list the public names twice;
    # a name added to one and not the other would drift out of the API.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(bevprobe.__all__) == sorted(imported)


BOX_RULE_MESSAGES = ("box footprint must be positive", "score must lie in [0, 1]")


def test_box_rules_live_in_bev_box():
    # BoxColumns lets its first bad row's BevBox raise. A second copy of a
    # rule's message means a second copy of the rule, free to drift.
    for message in BOX_RULE_MESSAGES:
        homes = [
            path.name
            for path in sorted(PACKAGE.glob("*.py"))
            for _ in range(path.read_text(encoding="utf-8").count(message))
        ]
        assert homes == ["geometry.py"], (message, homes)


def test_record_rules_live_in_errors():
    # One reader reads outside record lists into columns; a second copy of
    # its 64-bit rule would be a second reader, free to drift from it.
    homes = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "64-bit integer" in path.read_text(encoding="utf-8")
    }
    assert homes == {"errors.py"}, homes
