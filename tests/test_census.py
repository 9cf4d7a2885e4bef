"""Census of the package source: every parameter of a ``def`` in
``src/spnpflow`` is read by its function's body."""

import ast
from pathlib import Path

import spnpflow

SRC = Path(spnpflow.__file__).resolve().parent

# (module, function, parameter) that no body reads but that stay, because
# the benchmark calls or traces these signatures; each goes with ROADMAP
# item 1, the benchmark revision
UNREAD_ALLOWED = {
    # bench/workloads.py calls exact_solution_sec41(params)
    ("manufactured", "exact_solution_sec41", "params"),
    # bench/workloads.py calls source_terms(exact, params)
    ("manufactured", "source_terms", "exact"),
    # bench/workloads.py calls build_source_pack(exact, sources)
    ("manufactured", "build_source_pack", "exact"),
    # bench/spans.py traces model.conc_values(..., mesh)
    ("model", "conc_values", "mesh"),
}


def _functions(node, prefix=""):
    """(qualified name, node) of every ``def`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def _unread_parameters():
    """(module, function, parameter) of every parameter that its
    function's body never reads.  A lambda is left out: its caller fixes
    its signature, as ``Stepper``'s ``mass_schedule(t)`` does."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _functions(tree):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unread |= {(path.stem, name, p) for p in params
                       if p not in read and p not in ("self", "cls")}
    return unread


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert unread - UNREAD_ALLOWED == set()
    # an allowed entry whose parameter is gone or now read leaves the list
    assert UNREAD_ALLOWED <= unread
