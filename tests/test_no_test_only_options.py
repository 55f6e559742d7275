"""Every settable option in ``src/`` is set somewhere outside the tests.

An option is a field of a ``src/`` dataclass whose name ends in ``Config``,
or a parameter with a default of a ``src/`` function, method or constructor.
It counts as set when some call in ``src/``, ``benchmarks/``, ``examples/``
or ``perfbench/`` passes it something other than its default literal, by
keyword or by position:

- a call whose callee name (the bare name, or the attribute after the last
  dot) is the function, the method, or the class of the constructor;
- for a ``Config`` field, also a ``replace(...)`` call with its keyword;
- a call that splats ``**kwargs`` sets every option it could reach by
  keyword, and one that splats ``*args`` every option at or after the
  splat's position.

Names are matched without types, so two methods of the same name share
their call sites.  An option that only tests set has one value in every
real run: turn it into that constant.  ``ALLOWED`` lists the options kept
on purpose, one reason each; an entry that no longer exists, or that is now
set outside the tests, fails the test too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

ALLOWED: Dict[str, str] = {
    # Kept on purpose.
    "service/server.py:PlanService.__init__(warm_start)":
        "the tests' reference cold path",
    "core/estimator.py:RuntimeEstimator.__init__(cross_check)":
        "the correctness cross-check",
    "core/brute_force.py:brute_force_search":
        "exhaustive optimality oracle; ROADMAP item 12 replaces it",
    "sched/scheduler.py:ClusterScheduler.__init__(registry)":
        "tests pass a private metrics registry to isolate their counts",
    "service/server.py:PlanService.__init__(registry)":
        "tests pass a private metrics registry to isolate their counts",
    # Entry points whose options README documents for users.
    "core/api.py:auto": "README documents repro.auto",
    "core/api.py:run_iteration_trace": "README documents it as user-facing API",
    "core/api.py:schedule_jobs": "README documents it as user-facing API",
    "core/api.py:capacity_whatif(report_path)":
        "README documents capacity_whatif on repro.core.api",
    "sched/scheduler.py:schedule_trace(provenance_path)":
        "README documents provenance_path=",
    "obs/log.py:configure_logging":
        "applications call it; README documents the REPRO_LOG_* defaults",
    "obs/report.py:main(argv)": "CLI entry point; python -m passes sys.argv",
    # Oracles and fixture generators (see benchmarks/reachability_allowed.txt).
    "core/plan.py:symmetric_plan": "golden fixture generators build plans with it",
    "service/fingerprint.py:canonical_request": "fingerprint key oracle",
    "experiments/runner.py:run_scheduler_comparison": "golden schedule generator",
    # API surface that users or extensions set.
    "algorithms/grpo.py:build_grpo_graph(group_size)":
        "GRPO's samples per prompt, an algorithm hyperparameter",
    "algorithms/registry.py:register_algorithm(overwrite)":
        "extension point; re-registering a name needs it",
    "cluster/hardware.py:make_cluster":
        "hardware description the cost model reads",
    "core/api.py:ExperimentConfig(estimator)":
        "a lazily filled estimator slot, not a setting",
    "model/config.py:ModelConfig":
        "architecture fields; the presets share LLaMA's values",
    "obs/metrics.py:MetricsRegistry.gauge(labels)":
        "instrument API, as counter(labels)",
    "obs/metrics.py:MetricsRegistry.histogram":
        "instrument API: bucket and quantile choice",
}
"""Keys are ``"<path under src/repro>:<qualname>"``, covering every option
of the definition, or ``"<path under src/repro>:<qualname>(<option>)"``."""

_SOURCES = ("benchmarks", "examples", "perfbench")


@functools.lru_cache(maxsize=1)
def _fingerprinted() -> Set[Tuple[str, str]]:
    """``(class, field)`` of the config fields the plan-cache fingerprints hash.

    Dropping one would change every cache key, so the guard skips them; the
    other fields of those classes are checked like any option.
    """
    from repro.core import PruneConfig, SearchConfig
    from repro.service.fingerprint import _prune_dict, _search_dict

    return {("SearchConfig", name) for name in _search_dict(SearchConfig())} | {
        ("PruneConfig", name) for name in _prune_dict(PruneConfig())
    }


def _files() -> List[Path]:
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for folder in _SOURCES:
        files += sorted((ROOT / folder).rglob("*.py"))
    return files


def _name(expr: ast.expr) -> str:
    """The bare name, or the attribute after the last dot; else ``""``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _decorators(node: "ast.ClassDef | ast.FunctionDef") -> List[str]:
    return [_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]


def _options(tree: ast.AST, where: str):
    """``(key, callee names, option name, position or None, default)`` of
    every option.

    ``position`` counts the call's positional arguments (``self`` and ``cls``
    excluded); ``None`` marks a keyword-only parameter.  ``default`` is the
    default's expression (``None`` for a field without one).
    """
    found = []

    def visit(node: ast.AST, prefix: str, owner: "ast.ClassDef | None") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = prefix + child.name
                if child.name.endswith("Config") and "dataclass" in _decorators(child):
                    fields = [
                        (stmt.target.id, stmt.value)
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    ]
                    hashed = _fingerprinted()
                    for position, (name, default) in enumerate(fields):
                        if (child.name, name) not in hashed:
                            found.append((f"{where}:{qualname}({name})",
                                          (child.name, "replace"), name, position, default))
                visit(child, qualname + ".", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and "staticmethod" not in _decorators(child)
                skip = 1 if bound else 0
                callees = (owner.name,) if child.name == "__init__" and owner else (child.name,)
                first_default = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional):
                    if index >= first_default and index >= skip:
                        found.append((f"{where}:{qualname}({arg.arg})", callees, arg.arg,
                                      index - skip, args.defaults[index - first_default]))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{where}:{qualname}({arg.arg})",
                                      callees, arg.arg, None, default))
                visit(child, qualname + ".", None)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return found


def _passes(call: ast.Call):
    """``(callee, positional args, keywords)`` that ``call`` passes on.

    A call whose first argument is a function reference, as in
    ``clock.measure(fn, *args, **kwargs)``, ``partial(fn, ...)`` or
    ``executor.submit(fn, ...)``, also passes the rest of its arguments
    to that function.
    """
    name = _name(call.func)
    # replace()'s first argument is the object, not a field.
    yield name, call.args[1:] if name == "replace" else call.args, call.keywords
    if call.args and _name(call.args[0]):
        yield _name(call.args[0]), call.args[1:], call.keywords


_NOT_LITERAL = object()


def _literal(expr: "ast.expr | None") -> object:
    """The value of a literal expression, else ``_NOT_LITERAL``."""
    try:
        return ast.literal_eval(expr)
    except ValueError:
        return _NOT_LITERAL


def _sets(passed: List[ast.expr], default: "ast.expr | None") -> bool:
    """Whether some passed value differs from the option's default literal."""
    value = _literal(default)
    return any(
        value is _NOT_LITERAL or _literal(expr) is _NOT_LITERAL or _literal(expr) != value
        for expr in passed
    )


@functools.lru_cache(maxsize=1)
def _unset() -> Tuple[Set[str], Set[str]]:
    """Options no call outside the tests sets, and every option."""
    src = ROOT / "src" / "repro"
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in _files()]
    options = []
    for path, tree in trees:
        if path.is_relative_to(src):
            options += _options(tree, path.relative_to(src).as_posix())
    # Per callee name: the values passed by keyword and by position, whether
    # some call splats **kwargs, and the first *args splat position.
    keywords: Dict[str, Dict[str, List[ast.expr]]] = defaultdict(lambda: defaultdict(list))
    positions: Dict[str, Dict[int, List[ast.expr]]] = defaultdict(lambda: defaultdict(list))
    splat_kwargs: Set[str] = set()
    splat_args: Dict[str, int] = {}
    for _path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for name, args, passed in _passes(node):
                for index, arg in enumerate(args):
                    if isinstance(arg, ast.Starred):
                        splat_args[name] = min(splat_args.get(name, index), index)
                        break
                    positions[name][index].append(arg)
                for keyword in passed:
                    if keyword.arg is None:
                        splat_kwargs.add(name)
                    else:
                        keywords[name][keyword.arg].append(keyword.value)
    unset = set()
    for key, callees, option, position, default in options:
        if not any(
            _sets(keywords[callee][option], default)
            or callee in splat_kwargs
            or (position is not None
                and (_sets(positions[callee][position], default)
                     or position >= splat_args.get(callee, position + 1)))
            for callee in callees
        ):
            unset.add(key)
    return unset, {key for key, *_ in options}


def _allowed(key: str) -> bool:
    return key in ALLOWED or key.split("(", 1)[0] in ALLOWED


def test_every_option_is_set_outside_the_tests():
    unset, _ = _unset()
    fixed = sorted(key for key in unset if not _allowed(key))
    assert not fixed, "only tests set these src/ options:\n" + "\n".join(fixed)


def test_allowlist_is_not_stale():
    unset, defined = _unset()
    covers = {entry: {key for key in defined if key == entry or key.startswith(entry + "(")}
              for entry in ALLOWED}
    missing = sorted(entry for entry, keys in covers.items() if not keys)
    used = sorted(entry for entry, keys in covers.items() if keys and not keys & unset)
    assert not missing, f"allowlisted but no longer defined: {missing}"
    assert not used, f"allowlisted but now set outside the tests: {used}"


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    unset, defined = _unset()
    print(f"settable values: {len(defined)}")
    print(f"unset outside the tests: {len(unset)}")
    print(f"ALLOWED entries: {len(ALLOWED)}")
