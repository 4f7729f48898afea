"""No dead API: every top-level function and class of ``src/ultrahom/``, and
every method of such a class other than a dunder, is referenced by name
from the package itself or from the benchmark scripts (``perfbench/*.py``).

References from tests do not count, so a function only its own unit test
calls fails here.  The scan is by name, not by binding: a name used for
anything anywhere counts as a reference.  The benchmark's tracer names
its targets as dotted strings in ``SPANS`` and ``COUNTS``; those count
too.  What is kept on purpose without a caller is in ``ALLOWED``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ultrahom"
BENCH = ROOT / "perfbench"

ALLOWED = {
    "brute_force_word_eval": "reference implementation that word evaluation is tested against",
    "GraphSession.fresh_in_component": "reference for the lowest-eligible-vertex policy of IsoBuilder/FreshWindow",
    "GraphSession.check_witness_contract": "reference check that each witness is adjacent to exactly U",
    "ComponentView.find": "reference for IsoBuilder.component",
    "GraphSession.transcript_text": "write half of the text format replay_text reads",
    "read_certs": "read half of the JSON-lines format write_certs writes",
    "FrozenOracle.finite_pairs": "reached through getattr(f, 'finite_pairs') in words.py",
}


def _referenced() -> set[str]:
    names: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif path.name == "tracer.py" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS")
                    for t in node.targets):
                for const in ast.walk(node.value):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        names.update(const.value.split("."))
    return names


def _defined() -> dict[str, str]:
    """Qualified name (``f`` or ``Class.method``) -> the bare name a caller uses."""
    out: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not (
                            m.name.startswith("__") and m.name.endswith("__")):
                        out[f"{node.name}.{m.name}"] = m.name
    return out


def test_every_definition_has_a_caller_outside_tests():
    referenced = _referenced()
    dead = sorted(q for q, name in _defined().items()
                  if name not in referenced and q not in ALLOWED)
    assert not dead, f"referenced only from tests, if at all: {dead}"


def test_allowlist_entries_exist_and_have_no_caller():
    defined = _defined()
    referenced = _referenced()
    assert set(ALLOWED) <= set(defined), sorted(set(ALLOWED) - set(defined))
    stale = sorted(q for q in ALLOWED if defined[q] in referenced)
    assert not stale, f"now referenced, drop from ALLOWED: {stale}"
