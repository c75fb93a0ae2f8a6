#!/usr/bin/env python3
"""bevprobe benchmark: three CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sim_serial --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --record-digests

``--trace 0`` times fresh ``python -m bevprobe.cli`` processes (with
``src`` on the path) until ``--seconds`` of CLI wall time are measured and
reports the ``end_to_end`` metrics of BENCHMARK.json as medians over those
processes. ``--trace 1`` drives ``bevprobe.cli.main`` in-process,
alternating an untraced and a traced call, and reports the ``per_layer``
metrics. Either way every output is checked, and the last line of stdout
is one JSON object: correct, attempted, failed, metrics.

``--seed`` picks one of ``NUM_VARIANTS`` input variants (seed modulo
``NUM_VARIANTS``). ``digests.json`` holds the sha256 of every artifact
each variant produced on the commit that defined the benchmark, so the
outputs of every run are checked byte for byte, whatever its seed.
``--record-digests`` rewrites that table from the current sources.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every spawned CLI, so each CLI
# process runs one thread and a run measures the program, not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib.metadata
import json
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from spans import TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

NUM_VARIANTS = 16
SIM_SCENES = 16  # one CLI process takes a few seconds, so a run holds several
SETUP_SPAWNS = 3
CLI_TIMEOUT_S = 150.0
WORKLOADS = ("sim_serial", "probe_large", "audit_large")
EXEMPT = "run_info.json"


@dataclass
class Prepared:
    """One workload's generated inputs and what its outputs must be."""

    subcommand: str
    argv: list[str]
    scenes: int  # per CLI run; probe_large counts its one frame of stage heatmaps
    mcells: float  # stage-heatmap cells probed per CLI run, in millions
    digest_key: str
    check: Callable[[Path], list[str]] = lambda out: []
    expected: Callable[[Path], dict[str, float]] = lambda out: {}


def prepare_sim(variant: int, work: Path) -> Prepared:
    cfg = inputs.sim_config(variant, SIM_SCENES)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    hip_stages = cfg["hip"]["num_stages"]
    stages = hip_stages + cfg["baseline"]["num_stages"]  # stage heatmaps per scene, both arms
    budget = sum(cfg["hip"]["k_per_stage"]) + sum(cfg["baseline"]["k_per_stage"])
    thresholds = len(cfg["recall"]["thresholds"])
    scenes = SIM_SCENES
    cells = cfg["grid"]["num_classes"] * cfg["grid"]["size_y"] * cfg["grid"]["size_x"]

    def expected(out: Path) -> dict[str, float]:
        summary = json.loads((out / "summary.json").read_text())
        num_gt = summary["arms"]["hip"]["pooled"]["num_gt"]
        return {
            "sim.generate_scene.calls": scenes,
            "sim.oracle_stage_heatmap.calls": scenes * stages,
            "bev_grid.radius_for_box.calls": stages * num_gt,
            "hip.topk_select.calls": scenes * stages,
            "hip.topk_select.cells": scenes * stages * cells,
            "hip.build_positive_mask.calls": scenes * stages,
            "hip.build_positive_mask.candidates": scenes * budget,
            "hip.run_hip.calls": 2 * scenes,
            "assignment.classify_stage.calls": scenes * (hip_stages - 1),
            "assignment.greedy_match_matrix.calls": scenes * (hip_stages - 1 + 2 * thresholds),
            "metrics.average_recall.calls": 2 * scenes,
            "metrics.merge_reports.calls": 2,
            "cli.cmd_simulate.calls": 1,
            "svg.line_chart.calls": 1,
            "bev_grid.load_heatmap.calls": 0,
            "cli.load_detection_dump.calls": 0,
        }

    argv = ["simulate", "--config", str(path), "--jobs", "1"]
    return Prepared(
        subcommand="simulate",
        argv=argv,
        scenes=scenes,
        mcells=scenes * stages * cells / 1e6,
        digest_key="sim",
        expected=expected,
    )


def prepare_probe(variant: int, work: Path) -> Prepared:
    spec = inputs.probe_spec()
    heatmaps = inputs.probe_heatmaps(variant)
    paths = []
    for stage, values in enumerate(heatmaps):
        paths.append(work / f"stage{stage}.bevgrid")
        inputs.write_bevgrid(paths[-1], spec, values)
    oracle = inputs.stage0_oracle(heatmaps[0], inputs.PROBE_K)
    del heatmaps
    stages = len(paths)
    cells = stages * inputs.PROBE_CLASSES * inputs.PROBE_SIZE * inputs.PROBE_SIZE

    def check(out: Path) -> list[str]:
        got = []
        with open(out / "candidates.jsonl") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["stage"] == 0:
                    got.append((rec["x"], rec["y"], rec["class_id"], rec["score"]))
                    wx = spec["origin_x"] + rec["x"] * spec["cell_size"]
                    wy = spec["origin_y"] + rec["y"] * spec["cell_size"]
                    if (rec["world_x"], rec["world_y"]) != (wx, wy):
                        return [f"stage-0 candidate {rec} has wrong world coordinates"]
        if got != oracle:
            first = next((i for i, (a, b) in enumerate(zip(got, oracle)) if a != b), min(len(got), len(oracle)))
            return [f"stage-0 candidates differ from the full-sort oracle at rank {first} ({len(got)} vs {len(oracle)})"]
        return []

    def expected(out: Path) -> dict[str, float]:
        return {
            "bev_grid.load_heatmap.calls": stages,
            "hip.topk_select.calls": stages,
            "hip.topk_select.cells": cells,
            "hip.build_positive_mask.calls": stages,
            "hip.build_positive_mask.candidates": stages * inputs.PROBE_K,
            "hip.apply_mask.calls": stages,
            "hip.accumulate_mask.calls": stages,
            "hip.run_hip.calls": 1,
            "bev_grid.write_grid_tensor.calls": stages + 1,
            "cli.cmd_probe.calls": 1,
            "sim.generate_scene.calls": 0,
            "assignment.greedy_match_matrix.calls": 0,
            "metrics.average_recall.calls": 0,
        }

    length, width = inputs.PROBE_BOX
    argv = ["probe"]
    for p in paths:
        argv += ["--stage", str(p)]
    argv += ["--k", str(inputs.PROBE_K), "--mask-type", "box",
             "--box-length", str(length), "--box-width", str(width)]
    return Prepared(
        subcommand="probe",
        argv=argv,
        scenes=1,
        mcells=cells / 1e6,
        digest_key="probe",
        check=check,
        expected=expected,
    )


def prepare_audit(variant: int, work: Path) -> Prepared:
    dump, boxes = inputs.audit_dump(variant)
    scenes = len(dump["scenes"])
    preds = sum(len(s["predictions"]) for s in dump["scenes"])
    path = work / "dump.json"
    path.write_text(json.dumps(dump))
    del dump
    thresholds = 4  # the CLI default sweep, 0.5,1,2,4 m

    def expected(out: Path) -> dict[str, float]:
        return {
            "cli.load_detection_dump.calls": 1,
            "cli.load_detection_dump.records": boxes,
            "metrics.average_recall.calls": scenes,
            "metrics.false_negative_indices.calls": scenes,
            "metrics.merge_reports.calls": 1,
            "assignment.sigma_matrix.calls": 2 * scenes,
            "assignment.greedy_match_matrix.calls": 2 * thresholds * scenes,
            "assignment.greedy_match_matrix.preds": 2 * thresholds * preds,
            "svg.grouped_bar_chart.calls": 1,
            "cli.cmd_audit.calls": 1,
            "sim.generate_scene.calls": 0,
            "hip.topk_select.calls": 0,
        }

    argv = ["audit", "--dump", str(path)]
    return Prepared(
        subcommand="audit",
        argv=argv,
        scenes=scenes,
        mcells=0.0,
        digest_key="audit",
        expected=expected,
    )


def prepare(workload: str, variant: int, work: Path) -> Prepared:
    if workload == "sim_serial":
        return prepare_sim(variant, work)
    if workload == "probe_large":
        return prepare_probe(variant, work)
    return prepare_audit(variant, work)


def output_digests(out: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name != EXEMPT:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check_outputs(prep: Prepared, variant: int, out: Path, table: dict) -> list[str]:
    """Byte-compare every artifact with the recorded digests, then run the
    workload's own check."""
    recorded = table.get(prep.digest_key, {}).get(str(variant))
    if recorded is None:
        return [f"no recorded digests for {prep.digest_key} variant {variant}"]
    got = output_digests(out)
    errors = [f"{name}: digest differs from the recorded one" for name in sorted(recorded)
              if name in got and got[name] != recorded[name]]
    if set(got) != set(recorded):
        errors.append(f"artifact set {sorted(got)} differs from the recorded {sorted(recorded)}")
    return errors + (prep.check(out) if not errors else [])


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one CLI process; return its wall seconds, the peak RSS in MB of
    the largest process in its tree, and its exit code."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bevprobe.cli", *argv],
            stdout=fh, stderr=subprocess.STDOUT, env=cli_env(), cwd=ROOT,
        )
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB; for a waited child it is the maximum
    # over the child and all of its own waited descendants.
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def log_tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(errors="replace").splitlines()[-lines:])


def call_main(main, argv: list[str]) -> tuple[float, int]:
    gc.collect()
    start = time.perf_counter()
    try:
        rc = main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc


def median(values):
    return statistics.median(values) if values else float("nan")


def load_table() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def record(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"[{self.workload}] FAIL {what}: {e}", file=sys.stderr)


def timed_run(workload: str, variant: int, seconds: int, work: Path, table: dict) -> Result:
    """Spawn CLI processes until ``seconds`` of their wall time are measured.

    Each process takes a few seconds, so a run holds several and its
    medians shrug off the bursts of a shared host. One ``--help`` spawn
    (a set-up sample) goes before each of the first SETUP_SPAWNS work
    processes, spreading them over the run.
    """
    prep = prepare(workload, variant, work)
    res = Result(workload)
    log = work / "cli.log"

    def help_spawn() -> float:
        wall, _rss, rc = spawn([prep.subcommand, "--help"], log)
        res.record([] if rc == 0 else [f"exit code {rc}: {log_tail(log)}"], "--help")
        return wall

    setup, walls, rss = [], [], []
    while not walls or sum(walls) < seconds:
        if len(setup) < SETUP_SPAWNS:
            setup.append(help_spawn())
        out = work / f"out{len(walls)}"
        wall, peak_mb, rc = spawn(prep.argv + ["--output-dir", str(out)], log)
        walls.append(wall)
        rss.append(peak_mb)
        errors = check_outputs(prep, variant, out, table) if rc == 0 else [f"exit code {rc}: {log_tail(log)}"]
        res.record(errors, f"run {len(walls)}")
        shutil.rmtree(out, ignore_errors=True)
    while len(setup) < SETUP_SPAWNS:
        setup.append(help_spawn())
    res.metrics = {
        "scenes_per_s": median([prep.scenes / w for w in walls]),
        "setup_s": median(setup),
        "peak_rss_mb": median(rss),
    }
    res.extra = {
        "mcells_per_s": median([prep.mcells / w for w in walls]),
        "wall_s": median(walls),
        "wall_min_s": min(walls),
        "wall_max_s": max(walls),
        "samples": len(walls),
    }
    return res


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float, out: Path) -> dict[str, float]:
    self_s, calls, top = tracer.summary()
    m: dict[str, float] = {}
    for mod, fn, _counter in TRACED:
        m[f"{mod}.{fn}.self_s"] = self_s.get(f"{mod}.{fn}", 0.0)
        m[f"{mod}.{fn}.calls"] = calls.get(f"{mod}.{fn}", 0)
    for name in ("hip.topk_select.cells", "hip.build_positive_mask.candidates",
                 "assignment.greedy_match_matrix.preds", "assignment.greedy_match_matrix.pairs",
                 "bev_grid.load_heatmap.mb", "bev_grid.write_grid_tensor.mb",
                 "cli.load_detection_dump.records"):
        m[name] = tracer.tallies.get(name, 0)
    preds = m["assignment.greedy_match_matrix.preds"]
    m["assignment.greedy_match_matrix.match_ratio"] = m["assignment.greedy_match_matrix.pairs"] / preds if preds else 0.0
    m["svg.self_s"] = m["svg.line_chart.self_s"] + m["svg.grouped_bar_chart.self_s"]
    m["cli.output_mb"] = sum(p.stat().st_size for p in out.iterdir()) / 1e6
    ipc_bytes = ipc_s = 0.0
    if tracer.captured:
        outcomes = tracer.captured[0].scenes
        for outcome in outcomes:
            start = time.perf_counter()
            blob = pickle.dumps(outcome)
            pickle.loads(blob)
            ipc_s += time.perf_counter() - start
            ipc_bytes += len(blob)
        ipc_bytes /= len(outcomes)
        ipc_s /= len(outcomes)
    m["sim.ipc_bytes_per_scene"] = ipc_bytes
    m["sim.ipc_s_per_scene"] = ipc_s
    m["trace.coverage"] = top / wall
    m["trace.overhead"] = wall / untraced_wall - 1.0
    return m


def traced_run(workload: str, variant: int, seconds: int, work: Path, table: dict) -> Result:
    prep = prepare(workload, variant, work)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bevprobe.cli import main

    res = Result(workload)
    rows: list[dict[str, float]] = []
    measured = 0.0
    while not rows or measured < seconds:
        tracer = Tracer()
        walls, errors = {}, {}
        # Alternate which call goes first, so drift during a pair does not
        # bias trace.overhead one way.
        for traced in (False, True) if len(rows) % 2 == 0 else (True, False):
            out = work / ("traced" if traced else "untraced")
            if traced:
                tracer.install()
            try:
                walls[traced], rc = call_main(main, prep.argv + ["--output-dir", str(out)])
            finally:
                tracer.uninstall()
            errors[traced] = check_outputs(prep, variant, out, table) if rc == 0 else [f"exit code {rc}"]
        res.record(errors[False], "untraced run")
        if not errors[True]:
            row = layer_metrics(tracer, walls[True], walls[False], work / "traced")
            errors[True] = [f"{name} = {row.get(name)}, the input implies {want}"
                            for name, want in prep.expected(work / "traced").items() if row.get(name) != want]
            rows.append(row)
        res.record(errors[True], "traced run")
        measured += walls[True] + walls[False]
        shutil.rmtree(work / "traced", ignore_errors=True)
        shutil.rmtree(work / "untraced", ignore_errors=True)
        if not rows:
            break
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "spans" / f"{workload}.json")
    if rows:
        res.metrics = {name: median([r[name] for r in rows]) for name in rows[0]}
    return res


def env_stamp() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "bevprobe").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def report(res: Result, spec: list[dict], variant: int, seed: int) -> None:
    units = {m["name"]: m["unit"] for m in spec}
    print(f"{res.workload}  seed {seed} (variant {variant})  attempted {res.attempted}  failed {res.failed}  "
          f"error_rate {res.failed / max(res.attempted, 1):.4g}")
    for name in units:
        print(f"  {name:48s} {res.metrics.get(name, float('nan')):14.6g} {units[name]}")
    if res.extra:
        x = res.extra
        if x["mcells_per_s"]:
            print(f"  {'mcells_per_s':48s} {x['mcells_per_s']:14.6g} Mcell/s (stage-heatmap cells probed)")
        print(f"  wall per CLI process: median {x['wall_s']:.4g} s, min {x['wall_min_s']:.4g}, "
              f"max {x['wall_max_s']:.4g}, n = {x['samples']}")
    else:
        ranked = sorted(((v, k) for k, v in res.metrics.items() if k.endswith(".self_s")), reverse=True)
        print("  largest self times: " + ", ".join(f"{k[:-7]} {v:.3g} s" for v, k in ranked[:6] if v > 0))


def record_digests() -> int:
    """Run every workload variant once and store its artifact digests."""
    table: dict[str, dict[str, dict[str, str]]] = {}
    for variant in range(NUM_VARIANTS):
        for workload in WORKLOADS:
            work = WORK / f"record-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                prep = prepare(workload, variant, work)
                out = work / "out"
                _wall, _rss, rc = spawn(prep.argv + ["--output-dir", str(out)], work / "cli.log")
                if rc != 0:
                    print((work / "cli.log").read_text(), file=sys.stderr)
                    return 1
                errors = prep.check(out)
                if errors:
                    print(f"{workload} variant {variant}: {errors}", file=sys.stderr)
                    return 1
                table.setdefault(prep.digest_key, {})[str(variant)] = output_digests(out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "bevprobe" / "cli.py").is_file():
        print(f"bench: {SRC / 'bevprobe'} holds no bevprobe sources; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    variant = args.seed % NUM_VARIANTS
    table = load_table()
    stamp = env_stamp()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        work = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            run = traced_run if args.trace else timed_run
            results.append(run(workload, variant, args.seconds, work, table))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = [m["name"] for m in spec if m["name"] not in results[-1].metrics]
        if missing and results[-1].failed == 0:
            raise RuntimeError(f"the harness computed no value for {missing}")
        report(results[-1], spec, variant, args.seed)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    print("env " + json.dumps(stamp, sort_keys=True))

    def entry(res: Result, m: dict) -> dict:
        return {"value": res.metrics.get(m["name"]), "unit": m["unit"]}

    if len(results) == 1:
        metrics = {m["name"]: entry(results[0], m) for m in spec}
    else:
        metrics = {f"{r.workload}.{m['name']}": entry(r, m) for r in results for m in spec}
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
