"""No dead API: every top-level function and class of ``src/ultrahom/``, and
every method of such a class other than a dunder, has a caller in the
package itself or in the benchmark scripts (``perfbench/*.py``).

References from tests do not count, so a function only its own unit test
calls fails here.  A top-level definition ``f`` of module ``m`` counts as
called only through a binding that reaches it:

- a use of the name ``f`` inside ``m`` itself;
- ``from .m import f`` (or ``from ultrahom.m import f``) in a module that
  then uses the name it bound;
- ``x.f`` where ``x`` names the imported module ``ultrahom.m``;
- a ``("metric", "m", "f")`` or ``("metric", "m", "f.method")`` target in
  the benchmark tracer's ``SPANS`` or ``COUNTS``.

So a local variable or an attribute that merely shares the name is not a
caller.  Methods are matched by name, and only through an attribute
(``x.name``, on any x) or a tracer target: a local variable that shares
the name is not a caller.  What is kept on purpose without a caller is in
``ALLOWED``.
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
    "ComponentView.find": "reference for _MapReads.component, which landing_orbit reads",
    "GraphSession.transcript_text": "write half of the text format replay_text reads",
    "read_certs": "read half of the JSON-lines format write_certs writes",
    "FrozenOracle.finite_pairs": "reached through getattr(f, 'finite_pairs') in words.py",
}


def _sources() -> tuple[dict[str, ast.Module], dict[str, ast.Module]]:
    """Parsed package modules and benchmark scripts, keyed by module name."""
    def parse(paths):
        return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(paths)}
    return parse(PACKAGE.glob("*.py")), parse(BENCH.glob("*.py"))


def _modules(package, bench):
    """(module name, tree, whether it is a package module) for every scanned file."""
    for in_package, modules in ((True, package), (False, bench)):
        for module, tree in modules.items():
            yield module, tree, in_package


def _package_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The ultrahom module an import reads from: '' for the package itself, None if elsewhere."""
    if in_package and node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "ultrahom":
        return ""
    if node.level == 0 and node.module and node.module.startswith("ultrahom."):
        return node.module.split(".", 1)[1]
    return None


def _tracer_targets(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) of every literal target in SPANS and COUNTS."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in node.targets):
            for tup in ast.walk(node.value):
                if isinstance(tup, ast.Tuple) and len(tup.elts) == 3 and all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in tup.elts):
                    _, module, attr = (e.value for e in tup.elts)
                    out.add((module, attr))
    return out


def _bound(package, bench) -> set[tuple[str, str]]:
    """(module, name) of every top-level definition some binding reaches."""
    out: set[tuple[str, str]] = set()
    for module, tree, in_package in _modules(package, bench):
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if in_package:
            out.update((module, name) for name in used)
        aliases: dict[str, str] = {}  # local name -> the ultrahom module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _package_module(node, in_package)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "":
                    aliases[local] = alias.name
                elif local in used:
                    out.add((source, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                out.add((aliases[node.value.id], node.attr))
        if module == "tracer" and not in_package:
            out.update((m, attr.split(".")[0]) for m, attr in _tracer_targets(tree))
    return out


def _attributes(package, bench) -> set[str]:
    """Every name used anywhere as an attribute, or as a method of a tracer target."""
    names: set[str] = set()
    for module, tree, in_package in _modules(package, bench):
        names.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        if module == "tracer" and not in_package:
            names.update(attr.split(".")[-1] for _, attr in _tracer_targets(tree))
    return names


def _definitions(package) -> list[tuple[str, str]]:
    """(module, qualified name) of each top-level function or class and each non-dunder method."""
    out = []
    for module, tree in package.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((module, f"{node.name}.{m.name}") for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def _uncalled(package, bench) -> list[str]:
    bound, names = _bound(package, bench), _attributes(package, bench)
    return sorted(qual for module, qual in _definitions(package)
                  if not ((qual.rsplit(".", 1)[1] in names) if "." in qual
                          else (module, qual) in bound))


def test_every_definition_has_a_caller_outside_tests():
    dead = [q for q in _uncalled(*_sources()) if q not in ALLOWED]
    assert not dead, f"referenced only from tests, if at all: {dead}"


def test_allowlist_entries_exist_and_have_no_caller():
    package, bench = _sources()
    defined = {qual for _, qual in _definitions(package)}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    stale = sorted(set(ALLOWED) - set(_uncalled(package, bench)))
    assert not stale, f"now referenced, drop from ALLOWED: {stale}"


def test_only_a_binding_that_reaches_a_definition_counts():
    package, bench = _sources()
    planted = ast.parse("def planted(x):\n    return x\n"
                        "class _Planted:\n    def planted_method(self):\n        return 0\n"
                        "_g = _Planted\n").body
    words = ast.parse(ast.unparse(package["words"]))
    words.body += planted

    def scan(caller: str, tracer: str = "") -> list[str]:
        return _uncalled(dict(package, words=words, nkomega=ast.parse(
            ast.unparse(package["nkomega"]) + "\n" + caller)),
            dict(bench, tracer=ast.parse(ast.unparse(bench["tracer"]) + "\n" + tracer)))

    # the name as a local variable, an attribute of something else, or an unused import
    for caller in ("def _f(planted):\n    return planted\n",
                   "def _f(ctx):\n    return ctx.planted\n",
                   "from .words import planted\n",
                   "from .partial_iso import planted\n_f = planted\n"):
        assert "planted" in scan(caller), caller
    # a binding that reaches words.planted
    for caller in ("from .words import planted\n_f = planted\n",
                   "from .words import planted as _p\n_f = _p\n",
                   "from . import words\n_f = words.planted\n"):
        assert "planted" not in scan(caller), caller
    # a method: a local variable, a parameter or a string that shares its name is no
    # caller; an attribute access on any object, or a tracer target, is
    for caller in ("def _f(x):\n    planted_method = x\n    return planted_method\n",
                   "def _f(planted_method):\n    return planted_method\n",
                   "_f = 'planted_method'\n"):
        assert "_Planted.planted_method" in scan(caller), caller
    assert "_Planted.planted_method" not in scan("def _f(x):\n    return x.planted_method()\n")
    assert "_Planted.planted_method" not in scan(
        "", "COUNTS = [('m', 'words', '_Planted.planted_method')]\n")
    words.body += ast.parse("_f = planted\n").body
    assert "planted" not in _uncalled(dict(package, words=words), bench)
