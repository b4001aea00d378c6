"""Every module-level message tag in ``src/repro`` names its own tag.

Two subsystems whose ranks share a communicator must not share a tag
value: a wildcard receive in one would match the other's messages.  The
scan reads the source with ``ast`` (no imports), so it also covers
modules that never run together today.
"""

import ast
import operator
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: ``TAG_HALO``, ``_TAG_BARRIER``, ``CTRL_TAG``: a tag constant's name.
TAG_NAME = re.compile(r"_?TAG_[A-Z0-9_]+|[A-Z]+_TAG")

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _value(node: ast.AST, env: dict[str, int]) -> int | None:
    """The integer a constant expression over earlier module ints
    evaluates to, else ``None``."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        left, right = _value(node.left, env), _value(node.right, env)
        if left is not None and right is not None:
            return _OPS[type(node.op)](left, right)
    return None


def module_tags(path: Path) -> dict[str, int]:
    """``name -> value`` of the module's tag constants (the wildcard
    ``ANY_TAG`` is negative and not a tag)."""
    env: dict[str, int] = {}
    tags: dict[str, int] = {}
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        v = _value(value, env)
        if v is None:
            continue
        env[target.id] = v
        if TAG_NAME.fullmatch(target.id) and v >= 0:
            tags[target.id] = v
    return tags


def all_tags() -> dict[int, list[str]]:
    owners: dict[int, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for name, value in module_tags(path).items():
            owners.setdefault(value, []).append(f"{rel}:{name}")
    return owners


def test_every_module_level_tag_is_distinct():
    owners = all_tags()
    names = {name for names in owners.values() for name in names}
    # The scan sees every kind of tag constant, so it cannot pass empty.
    for known in (
        "connectivity/dcf.py:TAG_SEARCH", "offbody/driver.py:TAG_OB_REQ",
        "solver/parallel2d.py:TAG_PIPE_FWD",
        "machine/simmpi.py:_TAG_HEARTBEAT", "backend/mp.py:CTRL_TAG",
    ):
        assert known in names
    shared = {v: names for v, names in owners.items() if len(names) > 1}
    assert not shared, f"tag values used by more than one constant: {shared}"
