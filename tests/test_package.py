"""Package-wide guards on the source of ``affinevis``."""

import ast
import collections
import pathlib

import affinevis

SOURCES = sorted(
    p for p in pathlib.Path(affinevis.__file__).parent.glob("*.py") if p.name != "__init__.py"
)

# public definitions no package code reads yet, each with the consumer it is
# kept for; an entry goes once its consumer reads it
UNREAD_ALLOWED = {
    "assouad_estimate": "perfbench's mix workload, until the two-scale estimator replaces it",
    "magnify": "the proof-chain battery of a hard scenario (ROADMAP item 3)",
    "visible_envelope": "the proof-chain battery of a hard scenario (ROADMAP item 3)",
    "EnvelopeFn.max_violation": "the proof-chain battery of a hard scenario (ROADMAP item 3)",
    "IFS.invariant_ball": "the cylinder stopping rule and a scale-free gap_tol (ROADMAP items 4 and 5)",
}


def names_read(node: ast.AST) -> collections.Counter:
    """How often each name is read in ``node``, as a bare name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level function and class
    and each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs[:2]) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def unread_definitions() -> set[str]:
    """Public definitions whose name the package reads nowhere outside their own body."""
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    reads = sum((names_read(t) for t in trees), collections.Counter())
    return {
        qualname
        for tree in trees
        for qualname, node in public_definitions(tree)
        if reads[node.name] == names_read(node)[node.name]
    }


class TestNoUncalledCode:
    def test_every_public_definition_is_read(self):
        # the re-exports in __init__ do not count as a reader
        assert unread_definitions() - UNREAD_ALLOWED.keys() == set()

    def test_allowlist_holds_only_unread_definitions(self):
        # an entry whose consumer has started reading it goes from the list
        assert UNREAD_ALLOWED.keys() - unread_definitions() == set()
