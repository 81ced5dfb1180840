"""One benchmark process: imports the program and runs a workload on inputs
that ``inputs.py`` wrote.

Untraced mode times rounds of one cold run (empty cache) and the workload's
warm reruns, with nothing of the benchmark wrapped around the program.  It
makes at least two rounds and starts another while the slowest round so far
still fits in the time budget.  It then reads the process's peak resident
memory and makes one more cold run, outside the timings, that keeps
references to the calls the checks read.

Traced mode makes rounds of an untraced cold run, a traced cold run and a
traced warm rerun under the same rule, reports per-layer numbers from the
traced runs (median over rounds) and the tracing overhead against the
untraced cold runs, and writes the spans of the last traced runs to a file.

Usage (the launcher, run.py, sets the environment):
  python3 perfbench/worker.py --workload NAME --data DIR --seed N --seconds S
      --trace 0|1 --result FILE [--spans FILE, with --trace 1] [--smoke]
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, patched
from workloads import FEATURE_SET, SPEAKERS, workload

cli = importlib.import_module("phonotraj.cli")
_optimize = importlib.import_module("phonotraj.optimize")
_probe = importlib.import_module("phonotraj.probe")

MIN_ROUNDS = 2  # timed rounds in a run, at the least


def _span_targets(keep: bool, spans: bool = True):
    """(owner, attribute, name, options) of every wrapped function.  Owners
    are the modules whose code calls the function."""
    frames = lambda traj: traj.frames.shape[0]  # noqa: E731
    s = {"span": spans}
    return [
        (cli, "prepare_speaker", "cli.prepare_speaker", {**s, "keep": keep}),
        (cli.Cache, "get", "cli.cache_get", s),
        (cli.Cache, "put", "cli.cache_put", s),
        (cli, "grid_search", "cli.grid_search", s),
        (cli, "parse_alignment", "alignment.parse_alignment", s),
        (cli, "trim_and_filter", "alignment.trim_and_filter", s),
        (cli, "build_featural", "alignment.build_featural", s),
        (cli, "get_table", "phonology.get_table", s),
        (cli, "load_ema", "ema.load_ema", {**s, "measure": lambda r: r.channels.shape[0]}),
        (cli, "filter_and_downsample", "ema.filter_and_downsample", s),
        (cli, "fit_guided_pca", "ema.fit_guided_pca", s),
        (cli, "project", "ema.project", s),
        (cli, "align_frames", "ema.align_frames", s),
        (cli, "synthesize", "forward.synthesize", {**s, "measure": frames}),
        (cli, "synthesize_targets", "forward.synthesize_targets", {**s, "measure": frames}),
        (cli, "optimize_targets", "optimize.optimize_targets", {**s, "keep": keep}),
        (_optimize, "gradients", "optimize.gradients", s),
        (_optimize, "objective", "optimize.objective", {"span": False}),
        (cli, "train_probe", "probe.train_probe",
         {**s, "keep": keep, "measure": lambda m: m.epochs_run}),
        (_probe, "adam_step", "probe.adam_step", {"span": False}),
        (cli, "score", "probe.score", {**s, "keep": keep}),
    ]


def _capture_targets():
    """Only what the checks read, kept without spans."""
    names = ("cli.prepare_speaker", "optimize.optimize_targets", "probe.train_probe",
             "probe.score")
    return [t for t in _span_targets(keep=True, spans=False) if t[2] in names]


def _rusage_cpu() -> float:
    self_, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


class Ops:
    """Operations attempted and failed; the first failure messages are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def skip(self, n: int, why: str) -> None:
        """Count ``n`` operations that could not run because ``why`` failed."""
        self.attempted += n
        self.failed += n


class Bench:
    def __init__(self, args):
        self.w = workload(args.workload, args.smoke)
        self.out = Path(args.data) / "out"
        self.data = Path(args.data)
        self.cfg = cli.ExperimentConfig(
            dataset_root=str(self.data), speakers=SPEAKERS, feature_set=FEATURE_SET,
            method=self.w.method, optimize_timing=self.w.optimize,
            optimize_position=self.w.optimize, grid=self.w.grid,
            split_sizes=self.w.splits, seed=args.seed, out_dir=str(self.out))
        self.ops = Ops()

    def run(self):
        """One call of run_experiment: (report, wall s, cpu s), report None on failure."""
        c0, t0 = _rusage_cpu(), time.perf_counter()
        got = self.ops.run("run_experiment", cli.run_experiment, self.cfg)
        t1, c1 = time.perf_counter(), _rusage_cpu()
        return (got[0] if got else None), t1 - t0, c1 - c0

    def cold(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return self.run()

    def report_bytes(self) -> bytes:
        return (self.out / "report.csv").read_bytes()

    def warm(self, cold_csv: bytes) -> float:
        report, wall, _ = self.run()
        if report is None:
            self.ops.skip(1, "warm run")
            return wall
        manifest = checks.load_json(self.out / "manifest.json")
        self.ops.run("cache", checks.check_rerun, cold_csv, self.report_bytes(), manifest,
                     SPEAKERS)
        return wall

    def round_checks(self, report) -> None:
        """Cheap checks made on every cold run."""
        grand = self.ops.run("report.csv", checks.check_report_csv,
                             (self.out / "report.csv").read_text(), report.matrix)
        if self.w.method == "linear":
            self.ops.run("floor", checks.check_floor, grand if grand is not None else -1.0)

    def n_round_checks(self) -> int:
        return 1 + (self.w.method == "linear")

    # -- checks on captured calls -------------------------------------------

    def deep_checks(self, calls: dict, report) -> dict:
        """Checks on the captured calls of one cold run; returns the numbers
        they measure (least-squares gap, useful optimizations, EMA R^2)."""
        ops, S, method = self.ops, len(SPEAKERS), self.w.method
        prepared = {r.speaker: r for _, _, r in calls["cli.prepare_speaker"]}
        trains = calls["probe.train_probe"][-S:]
        scores = calls["probe.score"][-S:]
        optimized = {}
        for (fseg, _m, _c), _kw, res in calls.get("optimize.optimize_targets", []):
            optimized[fseg.utterance_id] = res  # the final stage's call comes last
        out = {"ls_gap": [], "useful": [], "ema_r2": []}
        for s, spk in enumerate(SPEAKERS):
            (train, dev, *_), _, model = trains[s]
            test = scores[s][0][1]
            for part in (train, dev, test):  # its first and last trajectory
                for traj, _z in (part[0], part[-1]):
                    utt = traj.utterance_id
                    node = optimized.get(utt) or prepared[spk].fsegs[utt]
                    ops.run(f"forward {utt}", checks.check_forward, traj.frames, node.t,
                            node.X, method, self.cfg.frame_rate, utt)
            truth = np.load(self.data / f"truth-{spk}.npz")
            Z = np.concatenate([z.Z for _, z in test])
            T = np.concatenate([truth[z.utterance_id][: z.Z.shape[0]] for _, z in test])
            out["ema_r2"].append(ops.run(f"ema {spk}", checks.check_ema_affine, Z, T, spk))
            gap = ops.run(f"probe {spk}", checks.check_probe, model.weight, model.bias,
                          model.best_dev_loss, train, dev, spk)
            out["ls_gap"].append(gap if gap is not None else float("nan"))
            pred, true = checks.probe_predictions(model.weight, model.bias, test)
            ops.run(f"pearson {spk}", checks.check_pearson, pred, true, report.matrix[s], spk)
        for (fseg, _m, oc), _kw, res in calls.get("optimize.optimize_targets", []):
            useful = ops.run(f"optimize {fseg.utterance_id}", checks.check_optimized,
                             fseg.t, fseg.X, res.t, res.X, oc.lam, oc.min_gap, method,
                             fseg.utterance_id)
            out["useful"].append(bool(useful))
        if self.w.optimize:
            dev_scores = []
            pairs = list(zip(calls["probe.train_probe"], calls["probe.score"]))[:-S]
            for i in range(0, len(pairs), S):
                per_spk = []
                for (_, _, model), ((_, dev), _, _) in pairs[i : i + S]:
                    pred, true = checks.probe_predictions(model.weight, model.bias, dev)
                    per_spk.append(np.nanmean(checks.pearson_rows(pred, true)))
                dev_scores.append(float(np.mean(per_spk)))
            ops.run("grid", checks.check_grid, checks.load_json(self.out / "grid.json"),
                    dev_scores)
        return out


def _same(a: bytes, b: bytes) -> None:
    if a != b:
        raise checks.CheckError("report.csv of the traced run differs from the untraced run's")


def _another_round(done: list[float], started: float, seconds: float, min_rounds: int) -> bool:
    """Whether to start another round: always below ``min_rounds``, and
    after that while the slowest round so far still fits in the budget."""
    if len(done) < min_rounds:
        return True
    return time.perf_counter() - started + max(done) <= seconds


def untraced(bench: Bench, seconds: float, min_rounds: int) -> dict:
    """Timed rounds of one cold run and the workload's warm reruns, with
    nothing of the benchmark wrapped around the program.  Then peak memory
    is read, and one more cold run, outside the timings, keeps the probe's
    and the optimizer's inputs and outputs for the checks."""
    run_s, cpu_s, rerun_s, rounds = [], [], [], []
    started = time.perf_counter()
    while _another_round(rounds, started, seconds, min_rounds):
        t0 = time.perf_counter()
        report, wall, cpu = bench.cold()
        run_s.append(wall)
        cpu_s.append(cpu)
        if report is None:
            bench.ops.skip(bench.n_round_checks() + 2 * bench.w.reruns, "cold run")
        else:
            csv = bench.report_bytes()
            bench.round_checks(report)
            for _ in range(bench.w.reruns):
                rerun_s.append(bench.warm(csv))
        rounds.append(time.perf_counter() - t0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = Tracer()
    with patched(tracer, _capture_targets()):
        report, _, _ = bench.cold()
    deep = None
    if report is None:
        bench.ops.skip(bench.n_round_checks(), "checked cold run")
    else:
        bench.round_checks(report)
        deep = bench.deep_checks(tracer.calls, report)
    return {
        "rounds": len(run_s),
        "round_s": rounds,
        "samples": {"run_s": run_s, "run_cpu_s": cpu_s, "rerun_s": rerun_s},
        "metrics": {
            "run_s": ("s", statistics.median(run_s)),
            "run_cpu_s": ("s", statistics.median(cpu_s)),
            "rerun_s": ("s", statistics.median(rerun_s) if rerun_s else float("nan")),
            "peak_rss_mb": ("MB", peak_kb / 1024.0),
        },
        "deep": deep,
    }


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


def layer_metrics(tc: Tracer, tw: Tracer, bench: Bench, deep: dict) -> dict:
    """Per-layer numbers of one traced cold run ``tc`` and warm rerun ``tw``."""
    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    grid_points = 0
    if bench.w.optimize:
        grid_points = len(checks.load_json(bench.out / "grid.json")["points"])
    synth_s = tc.total("forward.synthesize") + tc.total("forward.synthesize_targets")
    frames = tc.sums.get("forward.synthesize", 0) + tc.sums.get("forward.synthesize_targets", 0)
    epochs = tc.sums.get("probe.train_probe", 0)
    grads = tc.counts.get("optimize.gradients", 0)
    opt_calls = tc.counts.get("optimize.optimize_targets", 0)
    tables = tc.durations("phonology.get_table")
    ls = [g for g in deep.get("ls_gap", []) if np.isfinite(g)]
    m = {
        "cli.prepare_s": ("s", tc.total("cli.prepare_speaker")),
        "cli.self_s": ("s", tc.self_time("cli.run_experiment")),
        "cli.rerun_self_s": ("s", tw.self_time("cli.run_experiment")),
        "cli.cache_get_s": ("s", tw.total("cli.cache_get")),
        "cli.cache_put_s": ("s", tc.total("cli.cache_put")),
        "cli.cache_mb": ("MB", _dir_mb(bench.out / "cache")),
        "cli.grid_s": ("s", tc.total("cli.grid_search")),
        "cli.grid_points": ("count", grid_points),
        "cli.grid_point_s": ("s", ratio(tc.total("cli.grid_search"), grid_points)),
        "alignment.parse_s": ("s", tc.total("alignment.parse_alignment")),
        "alignment.featurize_s": ("s", tc.total("alignment.trim_and_filter")
                                  + tc.total("alignment.build_featural")),
        "alignment.utterances": ("count", tc.counts.get("alignment.build_featural", 0)),
        "phonology.table_s": ("s", statistics.median(tables) if tables else 0.0),
        "ema.load_s": ("s", tc.total("ema.load_ema")),
        "ema.filter_s": ("s", tc.total("ema.filter_and_downsample")),
        "ema.pca_s": ("s", tc.total("ema.fit_guided_pca")),
        "ema.project_s": ("s", tc.total("ema.project") + tc.total("ema.align_frames")),
        "ema.samples_in": ("count", tc.sums.get("ema.load_ema", 0)),
        "forward.synth_s": ("s", synth_s),
        "forward.synth_calls": ("count", tc.counts.get("forward.synthesize", 0)
                                + tc.counts.get("forward.synthesize_targets", 0)),
        "forward.frames_out": ("count", frames),
        "forward.us_per_frame": ("us", ratio(synth_s, frames, 1e6)),
        "optimize.optimize_s": ("s", tc.total("optimize.optimize_targets")),
        "optimize.calls": ("count", opt_calls),
        "optimize.gradient_calls": ("count", grads),
        "optimize.gradient_ms": ("ms", ratio(tc.total("optimize.gradients"), grads, 1e3)),
        "optimize.objective_calls": ("count", tc.counts.get("optimize.objective", 0)),
        "optimize.useful_ratio": ("ratio", ratio(sum(deep.get("useful", [])),
                                                 len(deep.get("useful", [])))),
        "probe.train_s": ("s", tc.total("probe.train_probe")),
        "probe.epochs": ("count", epochs),
        "probe.adam_steps": ("count", tc.counts.get("probe.adam_step", 0)),
        "probe.epoch_ms": ("ms", ratio(tc.total("probe.train_probe"), epochs, 1e3)),
        "probe.score_s": ("s", tc.total("probe.score")),
        "probe.ls_gap": ("ratio", float(np.mean(ls)) if ls else 0.0),
        "trace.spans": ("count", len(tc.spans) + len(tw.spans)),
    }
    return m


def traced(bench: Bench, seconds: float, min_rounds: int, spans_path: Path) -> dict:
    """Rounds of an untraced cold run, a traced cold run and a traced warm
    rerun; the checks read the calls of the last traced cold run."""
    plain_s, traced_s, per_round, rounds = [], [], [], []
    top = [(cli, "run_experiment", "cli.run_experiment", {})]
    started = time.perf_counter()
    while _another_round(rounds, started, seconds, min_rounds):
        t0 = time.perf_counter()
        report, wall, _ = bench.cold()
        plain_s.append(wall)
        if report is None:
            bench.ops.skip(4, "cold run")
        else:
            csv = bench.report_bytes()
            tc = Tracer()
            with patched(tc, top + _span_targets(keep=True)):
                report, wall, _ = bench.cold()
            traced_s.append(wall)
            if report is None:
                bench.ops.skip(3, "traced cold run")
            else:
                bench.ops.run("deterministic", _same, csv, bench.report_bytes())
                tw = Tracer()
                with patched(tw, top + _span_targets(keep=False)):
                    bench.warm(csv)
                if per_round:
                    per_round[-1][0].calls.clear()  # only the last round's are checked
                per_round.append((tc, tw))
        rounds.append(time.perf_counter() - t0)
    if report is None:
        return {"metrics": {}}
    deep = bench.deep_checks(tc.calls, report)
    bench.round_checks(report)
    per = [layer_metrics(c, w, bench, deep) for c, w in per_round]
    metrics = {k: (u, statistics.median(r[k][1] for r in per)) for k, (u, _) in per[0].items()}
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics["trace.overhead_pct"] = ("%", 100.0 * overhead)
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent"],
        "cold": tc.spans, "warm": tw.spans}), encoding="utf-8")
    return {"rounds": len(per_round), "metrics": metrics,
            "samples": {"run_s": plain_s, "traced_run_s": traced_s}}


def versions() -> dict:
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except Exception:  # noqa: BLE001 - older builds lack the dict form
            return None

    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(np), "scipy_openblas": blas(scipy),
            "program": str(Path(cli.__file__).resolve().parent)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.trace and not args.spans:
        ap.error("--trace 1 needs --spans")

    bench = Bench(args)
    rounds = 1 if args.smoke else MIN_ROUNDS
    if args.trace:
        res = traced(bench, args.seconds, rounds, Path(args.spans))
    else:
        res = untraced(bench, args.seconds, rounds)
    res.update(attempted=bench.ops.attempted, failed=bench.ops.failed,
               errors=bench.ops.errors, versions=versions())
    Path(args.result).write_text(json.dumps(res, default=float), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
