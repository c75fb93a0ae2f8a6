"""In-process span tracing of bevprobe's layers, installed from outside.

``Tracer.install`` replaces each traced function with a timing wrapper on
every bevprobe module that binds it (``run_hip`` is bound in both ``sim``
and ``cli``, ``greedy_match_matrix`` in both ``assignment`` and
``metrics``), so calls are caught whichever module makes them.
``uninstall`` puts the originals back. Spans are (name, start, end,
parent index), kept in memory; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _topk_cells(args, kwargs, result):
    heatmap = args[0] if args else kwargs["heatmap"]
    return {"cells": heatmap.values.size}


def _mask_candidates(args, kwargs, result):
    cands = args[0] if args else kwargs["candidates"]
    return {"candidates": len(cands)}


def _greedy_pairs(args, kwargs, result):
    sigma = args[0] if args else kwargs["sigma"]
    return {"preds": sigma.shape[0], "pairs": len(result)}


def _file_mb(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"mb": os.path.getsize(path) / 1e6}


def _dump_records(args, kwargs, result):
    return {"records": sum(len(preds) + len(gts) for _sid, preds, gts in result)}


# (module, function, counter). A counter maps (args, kwargs, result) to
# extra per-call tallies named "<module>.<function>.<key>".
TRACED = (
    ("sim", "generate_scene", None),
    ("sim", "oracle_stage_heatmap", None),
    ("bev_grid", "draw_gaussian_peak", None),
    ("bev_grid", "radius_for_box", None),
    ("bev_grid", "load_heatmap", _file_mb),
    ("bev_grid", "write_grid_tensor", _file_mb),
    ("hip", "topk_select", _topk_cells),
    ("hip", "build_positive_mask", _mask_candidates),
    ("hip", "apply_mask", None),
    ("hip", "accumulate_mask", None),
    ("hip", "run_hip", None),
    ("assignment", "greedy_match_matrix", _greedy_pairs),
    ("assignment", "sigma_matrix", None),
    ("assignment", "classify_stage", None),
    ("metrics", "average_recall", None),
    ("metrics", "false_negative_indices", None),
    ("metrics", "merge_reports", None),
    ("cli", "load_detection_dump", _dump_records),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_probe", None),
    ("cli", "cmd_audit", None),
    ("svg", "line_chart", None),
    ("svg", "grouped_bar_chart", None),
)


class Tracer:
    """Records spans and per-call tallies for the functions in ``TRACED``.

    ``run_experiment``'s return value is kept in ``captured`` (without a
    span) so the caller can measure what its outcomes cost to ship
    between processes.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.tallies: dict[str, float] = defaultdict(int)
        self.captured: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, tallies = self.spans, self._stack, self.tallies

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tallies[f"{name}.{key}"] += value
            return result

        return traced

    def _capture(self, fn):
        captured = self.captured

        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured.append(result)
            return result

        return capturing

    def _bind(self, name: str, original, replacement) -> None:
        bound = False
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bevprobe" and not mod_name.startswith("bevprobe."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))
                    bound = True
        if not bound:
            raise RuntimeError(f"bevprobe.{name} is bound nowhere")

    def install(self) -> None:
        for mod, fn, counter in TRACED:
            original = getattr(importlib.import_module(f"bevprobe.{mod}"), fn)
            self._bind(f"{mod}.{fn}", original, self._wrap(f"{mod}.{fn}", original, counter))
        run_experiment = importlib.import_module("bevprobe.sim").run_experiment
        self._bind("sim.run_experiment", run_experiment, self._capture(run_experiment))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and call counts per span name, and the total
        duration of top-level spans."""
        child_time = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent is None:
                top += end - start
            else:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            self_s[name] += end - start - children
            calls[name] += 1
        return self_s, calls, top

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent] JSON rows."""
        with open(path, "w") as fh:
            json.dump([list(span) for span in self.spans], fh)
            fh.write("\n")
