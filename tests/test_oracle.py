"""The references in `oracle.py` stay independent of the code they check:
a rule they shared with it would pass on both sides however wrong."""

from __future__ import annotations

import ast
from pathlib import Path

import oracle

# what `oracle.py` may import from netchart: the model classes, the
# errors, `check_id`, `detect_format`, and the helpers that read and print
# documents, which its docstring names
SHARED = {
    "AndState", "Basic", "HyperEdge", "OrState", "PetriNet", "StateChart",
    "DuplicateIdError", "MembershipError", "ModelError", "ParseError", "PreconditionError",
    "TreeError", "ValidationError", "check_id", "detect_format", "FORMATS",
    "_attrs", "_chart_document_from_xml", "_json_document", "_json_object", "_json_records",
    "_json_strings", "_reject_text", "_resolve_endpoints", "_string", "_string_list",
    "_xml_attr", "_xml_root",
}
# the rules the references restate, which they must not import
RESTATED = {"validate_chart", "check_net", "child_faults", "edge_faults", "_invalid_chart"}


def test_the_oracle_imports_no_rule_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import netchart...` would reach every name through attributes
            assert not any(alias.name.split(".")[0] == "netchart" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "netchart":
            imported.update(alias.name for alias in node.names)
    assert imported <= SHARED, sorted(imported - SHARED)
    assert not SHARED & RESTATED
    for name in imported:
        if name.startswith("_"):
            assert f"`{name}`" in oracle.__doc__, name


def test_the_oracle_reaches_no_private_attribute():
    """A private helper reached through an object, such as a method of the
    net, escapes the import check above: `net._helper(...)` would share
    the rule the reference restates."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    reached = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert reached == []
