"""Spans and work counts around the public functions of ``oscillab``.

The wrappers are installed from outside the package: each wrapped function
is replaced on every ``oscillab`` module that holds the same object (for
example ``whitney.distance_transform`` and ``carleson.cells_in_ball``), and
the two wrapped methods are replaced on their classes. Private helpers
(``_rk4``, ``_edt_1d_sq``, ``_subdivide``, ``_cubic_interp_periodic``) stay
unwrapped, so their cost is part of their caller's self time.

Nothing in the package runs on another thread or waits on a queue, so no
span has waiting time; none is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict


# (module, attribute, span name, counter). A counter gets the tracer, the
# call's arguments and its result, and adds work counts.
def _count_cells(tr, args, kwargs, result):
    grid, ball = args[0], args[1]
    tr.counts["domain.cells_in_ball.cells"] += len(result)
    tr.ball_keys.add((grid, ball.center, ball.radius))


def _count_edt(tr, args, kwargs, result):
    grid = args[0].grid  # periodic masks are tiled 3x per axis
    tr.counts["domain.distance_transform.cells"] += grid.size * (3**grid.d if grid.box.periodic else 1)


def _count_interp(tr, args, kwargs, result):
    tr.counts["domain.interpolate.points"] += len(result)


def _count_family(tr, args, kwargs, result):
    tr.counts["domain.ball_family.balls"] += len(result)


def _count_seminorm(tr, args, kwargs, result):
    f = args[0]
    family = args[2] if len(args) > 2 else kwargs["family"]
    tr.counts["oscillation.seminorm.balls"] += len(family)
    tr.counts["oscillation.seminorm.cells"] += tr.family_cells(f.grid, family)


def _count_carleson(tr, args, kwargs, result):
    family = args[1] if len(args) > 1 else kwargs["family"]
    tr.counts["carleson.carleson_norm.balls"] += len(family)


def _count_whitney(tr, args, kwargs, result):
    tr.counts["whitney.whitney_decompose.balls"] += len(result.balls)


def _count_field(tr, args, kwargs, result):
    points = 1 if result.ndim == 1 else len(result)
    tr.counts["maps.field.points"] += points
    if tr.in_span("transport.solve_perturbed"):
        tr.counts["transport.solve_perturbed.field_points"] += points


def _count_perturbed(tr, args, kwargs, result):
    t_end = args[2] if len(args) > 2 else kwargs["t_end"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    tr.counts["transport.solve_perturbed.steps"] += int(round(t_end / dt))


TARGETS = (
    ("domain", "cells_in_ball", "domain.cells_in_ball", _count_cells),
    ("domain", "distance_transform", "domain.distance_transform", _count_edt),
    ("domain", "interpolate", "domain.interpolate", _count_interp),
    ("domain", "ball_family", "domain.ball_family", _count_family),
    ("oscillation", "seminorm", "oscillation.seminorm", _count_seminorm),
    ("carleson", "carleson_norm", "carleson.carleson_norm", _count_carleson),
    ("carleson", "pullback", "carleson.pullback", None),
    ("whitney", "image_mask", "whitney.image_mask", None),
    ("whitney", "whitney_decompose", "whitney.whitney_decompose", _count_whitney),
    ("whitney", "check_cover_invariants", "whitney.check_cover_invariants", None),
    ("whitney", "covering_statistic", "whitney.covering_statistic", None),
    ("maps", "VectorField.__call__", "maps.field", _count_field),
    ("maps", "estimate_K", "maps.estimate_K", None),
    ("transport", "RieszOperator.half_step", "transport.riesz_half_step", None),
    ("transport", "solve_perturbed", "transport.solve_perturbed", _count_perturbed),
    ("transport", "solve_transport", "transport.solve_transport", None),
    ("fits", "fit_models", "fits.fit_models", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "write_csv", "cli.write_csv", None),
)

# (metric, unit): the per-layer metrics a traced run reports.
LAYER_METRICS = (
    ("domain.cells_in_ball.calls", "count"),
    ("domain.cells_in_ball.cells", "count"),
    ("domain.cells_in_ball.self_s", "s"),
    ("domain.cells_in_ball.distinct_ratio", "ratio"),
    ("domain.distance_transform.calls", "count"),
    ("domain.distance_transform.cells", "count"),
    ("domain.distance_transform.self_s", "s"),
    ("domain.interpolate.calls", "count"),
    ("domain.interpolate.points", "count"),
    ("domain.interpolate.self_s", "s"),
    ("domain.ball_family.balls", "count"),
    ("domain.ball_family.self_s", "s"),
    ("oscillation.seminorm.calls", "count"),
    ("oscillation.seminorm.balls", "count"),
    ("oscillation.seminorm.busy_s", "s"),
    ("oscillation.seminorm.self_s", "s"),
    ("oscillation.seminorm.cell_rate", "1/s"),
    ("carleson.carleson_norm.calls", "count"),
    ("carleson.carleson_norm.balls", "count"),
    ("carleson.carleson_norm.busy_s", "s"),
    ("carleson.carleson_norm.self_s", "s"),
    ("carleson.pullback.busy_s", "s"),
    ("whitney.whitney_decompose.calls", "count"),
    ("whitney.whitney_decompose.balls", "count"),
    ("whitney.whitney_decompose.busy_s", "s"),
    ("whitney.whitney_decompose.self_s", "s"),
    ("whitney.check_cover_invariants.busy_s", "s"),
    ("whitney.image_mask.busy_s", "s"),
    ("whitney.covering_statistic.busy_s", "s"),
    ("maps.field.calls", "count"),
    ("maps.field.points", "count"),
    ("maps.field.self_s", "s"),
    ("maps.estimate_K.busy_s", "s"),
    ("transport.solve_perturbed.busy_s", "s"),
    ("transport.solve_perturbed.self_s", "s"),
    ("transport.riesz_half_step.calls", "count"),
    ("transport.riesz_half_step.self_s", "s"),
    ("transport.solve_transport.busy_s", "s"),
    ("transport.solve_transport.self_s", "s"),
    ("transport.field_points_per_step", "count"),
    ("fits.fit_models.busy_s", "s"),
    ("cli.run_sweep.self_s", "s"),
    ("cli.write_csv.busy_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder for one traced pass.

    A span is [id, parent id, name, start, end, time covered by children].
    ``with tracer:`` installs the wrappers and removes them on exit.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.ball_keys = set()
        self._family_cells = {}
        self._restore = []
        self._cells_in_ball = None

    # -- recording ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        rec = [len(self.spans), parent, name, time.perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][5] += end - rec[3]

    def in_span(self, name: str) -> bool:
        return any(rec[2] == name for rec in self.stack)

    def family_cells(self, grid, family) -> int:
        """Cells visited by one pass over the family, counted with the
        unwrapped ``cells_in_ball`` and cached per family object."""
        hit = self._family_cells.get(id(family))
        if hit is None or hit[0] is not family:
            total = sum(len(self._cells_in_ball(grid, b)) for b in family)
            hit = self._family_cells[id(family)] = (family, total)
        return hit[1]

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                # counting is tracer work: keep it out of the caller's self time
                t0 = time.perf_counter()
                count(self, args, kwargs, result)
                if self.stack:
                    self.stack[-1][5] += time.perf_counter() - t0
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def __enter__(self):
        pkg = [m for name, m in list(sys.modules.items())
               if (name == "oscillab" or name.startswith("oscillab.")) and m is not None]
        for module, attr, name, count in TARGETS:
            owner = sys.modules[f"oscillab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, count))
                continue
            orig = getattr(owner, attr)
            if attr == "cells_in_ball":
                self._cells_in_ball = orig
            wrapped = self._wrap(orig, name, count)
            for mod in pkg:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False

    # -- results -----------------------------------------------------------
    def totals(self) -> dict:
        """name -> [calls, busy seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, start, end, child in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        return out

    def layer_metrics(self, run_s: float) -> dict:
        """Values of LAYER_METRICS for this pass (0 for a layer never called),
        except ``trace.overhead_s``, which needs the untraced passes."""
        tot = self.totals()
        c = self.counts
        values = {}
        for metric, _ in LAYER_METRICS:
            name, _, field = metric.rpartition(".")
            if name == "trace":
                continue
            calls, busy, self_s = tot.get(name, (0, 0.0, 0.0))
            timed = {"calls": calls, "busy_s": busy, "self_s": self_s}
            values[metric] = timed[field] if field in timed else c.get(metric, 0)
        cib_calls = tot.get("domain.cells_in_ball", (0,))[0]
        values["domain.cells_in_ball.distinct_ratio"] = (
            len(self.ball_keys) / cib_calls if cib_calls else 0.0
        )
        sem_busy = tot.get("oscillation.seminorm", (0, 0.0))[1]
        values["oscillation.seminorm.cell_rate"] = (
            c["oscillation.seminorm.cells"] / sem_busy if sem_busy else 0.0
        )
        steps = c["transport.solve_perturbed.steps"]
        values["transport.field_points_per_step"] = (
            c["transport.solve_perturbed.field_points"] / steps if steps else 0.0
        )
        values["trace.run_s"] = run_s
        return values

    def module_self_share(self) -> dict:
        """Share of the summed span self time per module (first name part)."""
        shares = defaultdict(float)
        for name, (_, _, self_s) in self.totals().items():
            shares[name.split(".")[0]] += self_s
        total = sum(shares.values()) or 1.0
        return {k: v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")

