"""A fit is stated once — and this test keeps it that way.

``MLEstimator.fit`` and the fit service both go plan → legs → merge
through :mod:`repro.mle.estimator`; they agree bit for bit because there
is one place the optimizer is called, one place a ``FitResult`` is
assembled and one place the orchestrator starts a process. Walk
``src/repro`` and fail when any of the three forks again (a second
optimizer belongs *inside* ``run_leg``, not beside it).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent


def _call_sites(name: str, root: Path = SRC) -> List[Tuple[str, str]]:
    """``(file relative to src/repro, enclosing def)`` of every call of
    ``name`` — as a bare name or an attribute — under ``root``."""
    sites = []
    for path in sorted([root] if root.is_file() else root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, call in _calls(tree, "<module>"):
            func = call.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                sites.append((path.relative_to(SRC).as_posix(), scope))
    return sites


def _calls(node: ast.AST, scope: str) -> Iterator[Tuple[str, ast.Call]]:
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, inner)


def test_one_optimizer_call_one_result_assembly_one_spawn_site():
    outside_optim = [s for s in _call_sites("nelder_mead") if not s[0].startswith("optim/")]
    assert outside_optim == [("mle/estimator.py", "MLEstimator.run_leg")]
    assert _call_sites("FitResult") == [("mle/estimator.py", "MLEstimator.merge_legs")]
    assert _call_sites("Process", SRC / "fitting" / "orchestrator.py") == [
        ("fitting/orchestrator.py", "FitOrchestrator._launch_locked")
    ]
