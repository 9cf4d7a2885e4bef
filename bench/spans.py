"""Per-layer tracing of spnpflow from outside the package.

``Tracer.install`` replaces each layer's public entry points (and
``scipy.sparse.linalg.splu``) with wrappers that record one span per call:
name, start, end, parent span and run id.  Spans stay in memory and are
written out when the benchmark ends.  ``uninstall`` puts the originals back,
so untraced solves run the unmodified code.

An entry point the package no longer has is reported as absent, and every
metric built only from absent entry points is absent too, never zero.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  The span name's prefix is its layer.
ENTRY_POINTS = (
    ("spnpflow.mesh", "build_rect_mesh", "mesh.build_rect_mesh"),
    ("spnpflow.mesh", "dof_map", "mesh.dof_map"),
    ("spnpflow.fem", "assemble", "fem.assemble"),
    ("spnpflow.fem", "assemble_vector", "fem.assemble_vector"),
    ("spnpflow.fem", "eval_values", "fem.eval_values"),
    ("spnpflow.fem", "eval_grads", "fem.eval_grads"),
    ("spnpflow.fem", "apply_dirichlet", "fem.apply_dirichlet"),
    ("spnpflow.sparse", "solve_iterative", "sparse.solve_iterative"),
    ("spnpflow.sparse", "Factorization.solve", "sparse.solve"),
    ("spnpflow.sparse", "SparseMatrix.from_coo", "sparse.from_coo"),
    ("spnpflow.sparse", "SparseMatrix.to_scipy", "sparse.to_scipy"),
    ("scipy.sparse.linalg", "splu", "sparse.splu"),
    ("spnpflow.model", "conc_values", "model.conc_values"),
    ("spnpflow.model", "energy_spnp", "model.energy_spnp"),
    ("spnpflow.model", "discrete_energy", "model.discrete_energy"),
    # called from the scheme; wrapped so their time is not scheme self time
    ("spnpflow.model", "chemical_potential_bar",
     "model.chemical_potential_bar"),
    ("spnpflow.model", "carreau_viscosity", "model.carreau_viscosity"),
    ("spnpflow.model", "shear_rate_sq", "model.shear_rate_sq"),
    ("spnpflow.model", "species_mass", "model.species_mass"),
    ("spnpflow.model", "min_concentration", "model.min_concentration"),
    ("spnpflow.scheme", "Stepper.make_workspace", "scheme.workspace"),
    ("spnpflow.scheme", "Stepper.step_sigma", "scheme.transport"),
    ("spnpflow.scheme", "Stepper.renormalize_concentration",
     "scheme.renormalize"),
    ("spnpflow.scheme", "Stepper.solve_potential", "scheme.potential"),
    ("spnpflow.scheme", "Stepper.solve_velocity_split", "scheme.momentum"),
    ("spnpflow.scheme", "Stepper.compute_xi", "scheme.xi"),
    ("spnpflow.scheme", "Stepper.update_r_v_u", "scheme.recombine"),
    ("spnpflow.scheme", "Stepper.pressure_poisson", "scheme.pressure"),
    ("spnpflow.scheme", "Stepper.correct", "scheme.correct"),
    ("spnpflow.scheme", "Stepper._log_identities", "scheme.checks"),
    ("spnpflow.scheme", "Stepper._run_checks", "scheme.checks"),
    ("spnpflow.scheme", "Stepper._record", "scheme.checks"),
    ("spnpflow.io_cli", "write_diagnostics_csv", "io_cli.csv"),
)
SOURCE_FIELDS = ("f_u", "f_c", "f_sigma", "f_v", "dfv_dt")
SOURCE_SPAN = "manufactured.source"

# the named stages of one step; with scheme.checks they should cover it
STAGES = ("scheme.workspace", "scheme.transport", "scheme.renormalize",
          "scheme.potential", "scheme.momentum", "scheme.xi",
          "scheme.recombine", "scheme.pressure", "scheme.correct",
          "scheme.checks")
STEP_SPAN = "scheme.step"
SETUP_SPAN = "bench.setup"
SELF_LAYERS = ("scheme", "fem", "sparse", "model")

# metric -> span names; "_ms"/"_calls" are per traced step
STEP_TIMES = {
    **{f"{s}_ms": (s,) for s in STAGES},
    "sparse.factorize_ms": ("sparse.splu",),
    "sparse.solve_ms": ("sparse.solve", "sparse.solve_iterative"),
    "sparse.from_coo_ms": ("sparse.from_coo",),
    "fem.assemble_ms": ("fem.assemble",),
    "fem.assemble_vector_ms": ("fem.assemble_vector",),
    "fem.eval_ms": ("fem.eval_values", "fem.eval_grads"),
    "fem.apply_dirichlet_ms": ("fem.apply_dirichlet",),
    "model.conc_values_ms": ("model.conc_values",),
    "model.energy_ms": ("model.energy_spnp", "model.discrete_energy"),
    "manufactured.source_ms": (SOURCE_SPAN,),
}
STEP_CALLS = {
    "sparse.factorize_calls": ("sparse.splu",),
    "sparse.solve_calls": ("sparse.solve", "sparse.solve_iterative"),
    "sparse.to_scipy_calls": ("sparse.to_scipy",),
    "fem.assemble_calls": ("fem.assemble",),
    "fem.assemble_vector_calls": ("fem.assemble_vector",),
    "fem.eval_calls": ("fem.eval_values", "fem.eval_grads"),
    "model.conc_values_calls": ("model.conc_values",),
    "model.energy_calls": ("model.energy_spnp", "model.discrete_energy"),
    "manufactured.source_calls": (SOURCE_SPAN,),
}
# per traced solve (setup or output), ms
SOLVE_TIMES = {
    "mesh.build_ms": ((SETUP_SPAN,), ("mesh.build_rect_mesh", "mesh.dof_map")),
    "sparse.setup_factorize_ms": ((SETUP_SPAN,), ("sparse.splu",)),
    "io_cli.csv_ms": ((), ("io_cli.csv",)),
}


def _resolve(module, attr):
    """(owner, name, raw attribute) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = next((c.__dict__[name] for c in owner.__mro__
                    if name in c.__dict__), None)
    else:
        raw = getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Span log plus the patches that feed it."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, run id, info]
        self._stack = []
        self.run_id = None
        self._undo = []
        # a span name is absent when none of its entry points exists
        self.missing = [f"{mod}.{attr}" for mod, attr, _ in ENTRY_POINTS
                        if _resolve(mod, attr) is None]
        present = {span for mod, attr, span in ENTRY_POINTS
                   if f"{mod}.{attr}" not in self.missing}
        self.absent = sorted({span for _, _, span in ENTRY_POINTS} - present)

    # --- recording ----------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, info=None):
        """``fn`` recording a span per call; ``info(result)`` is kept."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][5] = info(result)
            return result
        return traced

    # --- patching -----------------------------------------------------

    def install(self):
        """Wrap every entry point that exists; see ``absent`` for the rest."""
        for module, attr, span in ENTRY_POINTS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, name, raw = found
            info = _INFO.get(span)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__, info))
                else:
                    new = self.wrap(span, raw, info)
                self._set(owner, name, new)
                continue
            new = self.wrap(span, raw, info)
            # the package also binds some of these by name in other modules
            for mod in list(sys.modules.values()):
                if mod is owner or (getattr(mod, "__name__", "")
                                    .startswith("spnpflow")
                                    and getattr(mod, name, None) is raw):
                    self._set(mod, name, new)

    def _set(self, owner, name, new):
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, old, had in reversed(self._undo):
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._undo.clear()

    def wrap_sources(self, pack):
        """Copy of a SourcePack whose callables record spans."""
        if pack is None:
            return None
        changes = {}
        for f in SOURCE_FIELDS:
            v = getattr(pack, f, None)
            if isinstance(v, list):
                changes[f] = [self.wrap(SOURCE_SPAN, g) for g in v]
            elif v is not None:
                changes[f] = self.wrap(SOURCE_SPAN, v)
        return dataclasses.replace(pack, **changes)

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "info": info}) + "\n")


def _lu_info(lu):
    # SuperLU's own count of the nonzeros stored in L and U
    return {"n": int(lu.shape[0]), "nnz": int(lu.nnz)}


def _iterations(result):
    return {"iterations": int(result[1].iterations)}


_INFO = {"sparse.splu": _lu_info, "sparse.solve_iterative": _iterations}


def layer_metrics(spans, absent):
    """Aggregate spans into per-layer metrics.

    Returns (metrics, missing): ``metrics`` maps name -> (value, unit,
    samples); ``missing`` maps each absent metric to why it is absent.
    Inclusive times count a span only when no ancestor has a name from the
    same metric, so nested calls are not counted twice.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    parent = [s[3] for s in spans]
    children_time = np.zeros(n)
    # names of each span's ancestors, and its nearest step and setup span
    # (a parent is always recorded before its children)
    anc = [frozenset()] * n
    step_of = [-1] * n
    setup_of = [-1] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children_time[p] += dur[i]
            anc[i] = anc[p] | {names[p]}
            step_of[i] = p if names[p] == STEP_SPAN else step_of[p]
            setup_of[i] = p if names[p] == SETUP_SPAN else setup_of[p]
    steps = [i for i in range(n) if names[i] == STEP_SPAN]
    solves = [i for i in range(n) if names[i] == SETUP_SPAN]
    n_steps, n_solves = max(len(steps), 1), max(len(solves), 1)

    def outermost(i, group):
        return anc[i].isdisjoint(group)

    metrics, missing = {}, {}

    def put(name, value, unit, samples, needs):
        if set(needs) <= absent:
            missing[name] = "no entry point " + ", ".join(sorted(set(needs)))
        else:
            metrics[name] = (float(value), unit, samples)

    for name, group in STEP_TIMES.items():
        total = sum(dur[i] for i in range(n) if names[i] in group
                    and step_of[i] >= 0 and outermost(i, group))
        put(name, 1e3 * total / n_steps, "ms", len(steps), group)
    for name, group in STEP_CALLS.items():
        count = sum(1 for i in range(n)
                    if names[i] in group and step_of[i] >= 0)
        put(name, count / n_steps, "count", len(steps), group)
    for name, (within, group) in SOLVE_TIMES.items():
        total = sum(dur[i] for i in range(n) if names[i] in group
                    and (not within or setup_of[i] >= 0)
                    and outermost(i, group))
        put(name, 1e3 * total / n_solves, "ms", len(solves), group)
    for layer in SELF_LAYERS:
        total = sum(dur[i] - children_time[i] for i in range(n)
                    if names[i].split(".")[0] == layer
                    and (step_of[i] >= 0 or names[i] == STEP_SPAN))
        put(f"{layer}.self_ms", 1e3 * total / n_steps, "ms", len(steps),
            [s for _, _, s in ENTRY_POINTS if s.startswith(layer + ".")])

    lu = [(spans[i][5], step_of[i] >= 0) for i in range(n)
          if names[i] == "sparse.splu" and spans[i][5]]
    in_steps = [info["nnz"] for info, inside in lu if inside]
    put("sparse.lu_nnz_step", sum(in_steps) / n_steps, "count", len(steps),
        ("sparse.splu",))
    put("sparse.lu_nnz_max", max((info["nnz"] for info, _ in lu), default=0),
        "count", len(lu), ("sparse.splu",))
    its = [spans[i][5]["iterations"] for i in range(n)
           if names[i] == "sparse.solve_iterative" and step_of[i] >= 0]
    if its:
        metrics["sparse.iterations"] = (sum(its) / n_steps, "count",
                                        len(steps))
    else:
        missing["sparse.iterations"] = "no solve_iterative call in a step"

    # stage spans (outermost within the step) over the step spans
    covered = sum(dur[i] for i in range(n) if names[i] in STAGES
                  and step_of[i] >= 0 and outermost(i, STAGES))
    step_total = sum(dur[i] for i in steps)
    put("trace.stage_coverage", covered / step_total if step_total else 0.0,
        "ratio", len(steps), STAGES)
    return metrics, missing


def lu_nnz_by_size(spans):
    """Mean L+U nonzeros per factorisation, keyed by matrix size."""
    by_n = {}
    for s in spans:
        if s[0] == "sparse.splu" and s[5]:
            by_n.setdefault(s[5]["n"], []).append(s[5]["nnz"])
    return {n: (float(np.mean(v)), len(v)) for n, v in sorted(by_n.items())}
