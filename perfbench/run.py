"""Benchmark of the shipped extraction job.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 6 --trace 0

Each run generates its workload from ``--seed`` (``workloads.py``),
then sets up a local Ray sized to ``nproc`` three times (ray.init plus
a warm-up job; ``setup_s`` is their median) and, in each session, times
the job users run: pages parquet -> ``state.manifest.run_job`` (batch
64, parquet sink, per-group manifests), followed on ``job_curate`` by
``pipelines.curate.curate_pages`` writing per-url verdicts, as
``python -m pdf_parser_ray.job --curate`` does.  Every repetition gets a
fresh output directory and a cold extracted-artifact cache, and every
output row is checked against the goldens (``check.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends half of each session on traced repetitions, then
runs the in-process layer ledger (``spans.py``), prints the per-layer
metrics and writes the spans and the per-layer table under
``.bench_build/perfbench/trace/``.  The last line of stdout is the
result JSON; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, nullcontext
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
# Ray workers start from a fresh interpreter: they find the engine
# through PYTHONPATH, which the local raylet passes on to them
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)

import pdf_parser_ray  # noqa: E402,F401  (fail fast without the engine)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BATCH_SIZE = 64  # the shipped job's default
SETUPS = 3  # Ray sessions per run; setup_s is the median of their set-ups
WARMUP_SHARE = 10  # the warm-up corpus has 1/10 of the pages, same layout
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:6.1f}s] {msg}",
          file=sys.stderr, flush=True)


def cpu_calibration() -> float:
    """Seconds for a fixed single-thread integer burn: run metadata that
    lets a reader compare runs taken while the host ran at different
    per-core speeds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(5_000_000):
        s += i * i
    return time.perf_counter() - t0


class RssSampler:
    """Peak of the RSS summed over this process and the Ray worker
    processes (its descendants whose command line is ``ray::...``),
    sampled from /proc."""

    PERIOD_S = 0.05
    RESCAN_S = 0.5

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _workers(self) -> list[int]:
        children: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(name))
        pids, todo = [], list(children.get(os.getpid(), []))
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, []))
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if f.read().startswith(b"ray::"):
                        pids.append(pid)
            except OSError:
                continue
        return [os.getpid()] + pids

    def _rss(self, pids: list[int]) -> int:
        total = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self._page
            except (OSError, IndexError, ValueError):
                continue
        return total

    def _run(self) -> None:
        pids, scanned = self._workers(), time.monotonic()
        while not self._stop.is_set():
            if time.monotonic() - scanned > self.RESCAN_S:
                pids, scanned = self._workers(), time.monotonic()
            self.peak = max(self.peak, self._rss(pids))
            self._stop.wait(self.PERIOD_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def nproc() -> int:
    """The CPU count ``nproc`` prints, which honours OMP_NUM_THREADS."""
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout)


def ray_init() -> None:
    import ray
    from ray.data import DataContext

    kwargs = dict(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=512 * 1024 * 1024,
    )
    # session files stay inside the checkout unless that makes Ray's
    # socket paths (<tmp>/session_<date>_<pid>/sockets/plasma_store)
    # longer than the 107 bytes AF_UNIX allows
    ray_tmp = os.path.join(ROOT, ".bench_build", "ray")
    if len(ray_tmp) <= 42:
        kwargs["_temp_dir"] = ray_tmp
    else:
        log(f"{ray_tmp} is too long for Ray's socket paths; using Ray's default")
    ray.init(**kwargs)
    DataContext.get_current().enable_progress_bars = False


def run_job_once(w: workloads.Workload, out_dir: str,
                 tracer: spans.Tracer | None = None) -> None:
    """The shipped job: run_job, then (job_curate) the curation step of
    ``pdf_parser_ray.job --curate``.  The extracted artifact that
    curate_pages builds is kept under ``out_dir`` so each repetition
    pays for it cold."""
    from pdf_parser_ray.pipelines import extract as pipe_extract
    from pdf_parser_ray.pipelines.curate import curate_pages
    from pdf_parser_ray.state.manifest import run_job

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            pipe_extract, "_EXTRACTED_CACHE_ROOT",
            os.path.join(out_dir, "_artifact"),
        ))
        if tracer is not None:
            tracer.patch(stack, pipe_extract, "extracted_dir",
                         "pipelines.curate.extracted_dir")
            span = tracer.span
        else:
            span = lambda name: nullcontext()  # noqa: E731
        with span("job"):
            with span("state.manifest.run_job"):
                run_job(w.pages_dir, out_dir, group_size=w.spec.group_size,
                        batch_size=BATCH_SIZE)
            if w.spec.curate:
                verdict_dir = os.path.join(out_dir, "curation")
                tmp = verdict_dir + ".tmp"
                with span("pipelines.curate"):
                    curate_pages(w.pages_dir, batch_size=BATCH_SIZE).write_parquet(tmp)
                    os.replace(tmp, verdict_dir)
                    with open(os.path.join(verdict_dir, "_DONE"), "w") as f:
                        f.write("ok")


def check_rep(w: workloads.Workload, out_dir: str, oracle,
              res: check.Result) -> None:
    check.check_job(out_dir, w.pages_dir, w.golden, res)
    if w.spec.curate:
        check.check_verdicts(os.path.join(out_dir, "curation"), oracle, res)


def timed_reps(w, work, seconds, oracle, res, tracer=None, tag="rep"):
    """Repeat the job until ``seconds`` are spent (at least once); return
    (job seconds, peak RSS bytes) per repetition."""
    times, peaks, spent, i = [], [], 0.0, 0
    while spent < seconds or i == 0:
        out_dir = os.path.join(work, f"{tag}{i}")
        with RssSampler() as rss:
            t0 = time.perf_counter()
            run_job_once(w, out_dir, tracer)
            dt = time.perf_counter() - t0
        check_rep(w, out_dir, oracle, res)
        shutil.rmtree(out_dir)
        times.append(dt)
        peaks.append(rss.peak)
        spent += dt
        i += 1
        log(f"{tag} {i}: job {dt:.3f} s, peak rss {rss.peak / 2**20:.0f} MB")
    return times, peaks


def setup(warm: workloads.Workload, out_dir: str) -> float:
    """One set-up: ray.init plus a warm-up job over a small corpus of the
    workload's mix and layout, which pays for worker spin-up and
    imports.  Returns its seconds."""
    t0 = time.perf_counter()
    ray_init()
    t1 = time.perf_counter()
    run_job_once(warm, out_dir)
    dt = time.perf_counter() - t0
    shutil.rmtree(out_dir)
    log(f"setup: {dt:.3f} s (ray.init {t1 - t0:.3f} s)")
    return dt


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the workload (self-test only)")
    args = ap.parse_args(argv)
    specs = workloads.specs(args.scale)
    if args.workload not in specs:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(specs)}")
    spec = specs[args.workload]

    work = os.path.join(WORK_ROOT, f"{spec.name}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = bench(spec, args, work)
    finally:
        import ray

        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    log("done")
    print(json.dumps(result), flush=True)
    return 0


def bench(spec: workloads.Spec, args, work: str) -> dict:
    calib = cpu_calibration()
    t0 = time.perf_counter()
    w = workloads.generate(spec, args.seed, os.path.join(work, "pages"))
    # same shard layout, so the warm-up starts as many workers as a rep
    warm_spec = dataclasses.replace(
        spec, pages=max(spec.pages // WARMUP_SHARE, workloads.N_FORMS))
    warm = workloads.generate(warm_spec, args.seed + 1_000_003,
                              os.path.join(work, "warm_pages"))
    oracle = check.oracle_verdicts(w.golden, os.path.join(work, "oracle")) \
        if spec.curate else None
    log(f"{spec.name} seed {args.seed}: {w.golden.num_rows} pages,"
        f" {w.payload_bytes / 1e6:.2f} MB payload, generated in"
        f" {time.perf_counter() - t0:.2f} s; cpu calibration {calib:.3f} s")

    # the run's repetitions are spread over SETUPS Ray sessions, so one
    # session's workers or one window of host speed does not decide it
    import ray

    res = check.Result()
    tracer = spans.Tracer() if args.trace else None
    per_session = args.seconds / SETUPS / (2 if args.trace else 1)
    setups, times, peaks, traced = [], [], [], []
    for i in range(SETUPS):
        if i:
            ray.shutdown()
        setups.append(setup(warm, os.path.join(work, f"warm{i}")))
        t, p = timed_reps(w, work, per_session, oracle, res, tag=f"s{i}.rep")
        times += t
        peaks += p
        if tracer is not None:
            traced += timed_reps(w, work, per_session, oracle, res, tracer,
                                 f"s{i}.traced")[0]
    if res.structural:
        log("structural errors: " + "; ".join(res.structural[:10]))
    meta = {
        "workload": spec.name, "seed": args.seed, "pages": w.golden.num_rows,
        "num_cpus": nproc(),
        "payload_bytes": w.payload_bytes, "reps": len(times),
        "cpu_calib_s": calib, "setup_s": setups, "job_s": times,
        "page_fail": res.fail, "verdict_fail": res.verdict_fail,
    }
    if args.trace:
        metrics = layer_metrics(w, warm, res, times, traced, tracer, meta)
    else:
        metrics = end_to_end_metrics(w, res, setups, times, peaks)
    os.makedirs(WORK_ROOT, exist_ok=True)
    with open(os.path.join(
            WORK_ROOT, f"{spec.name}-seed{args.seed}-trace{args.trace}.run.json"
    ), "w") as f:
        json.dump({**meta, "metrics": metrics}, f, indent=1)
    units = unit_table()
    return {
        "correct": not res.structural,
        "attempted": res.pages + res.urls,
        "failed": res.page_fail + res.verdict_fail,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def end_to_end_metrics(w, res, setups, times, peaks) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(setups),
        "job_s": med(times),
        "pages_per_s": med(w.golden.num_rows / t for t in times),
        "mb_per_s": med(w.payload_bytes / 1e6 / t for t in times),
        "page_ok_frac": 1 - res.page_fail / res.pages,
        # workloads without the curation step write no verdicts
        "verdict_ok_frac": 1 - res.verdict_fail / res.urls if res.urls else 1.0,
        "peak_rss_mb": med(peaks) / 2**20,
    }


def layer_metrics(w, warm, res, times, traced, tracer,
                  meta) -> dict[str, float]:
    med = statistics.median
    run_job_s = tracer.durations("state.manifest.run_job")
    n_groups = len(res.group_wall_s) // (len(times) + len(traced))

    # the fused stage in-process: a warm-up, the untraced total, then the
    # traced ledger
    spans.stage_seconds(warm.pages_dir, BATCH_SIZE)
    stage_s = spans.stage_seconds(w.pages_dir, BATCH_SIZE)
    ledger = spans.Tracer()
    n_records = spans.layer_ledger(ledger, w.pages_dir, BATCH_SIZE)
    ledger_s = sum(ledger.durations("stages.extract"))

    from pdf_parser_ray.pipelines.extract import extract_dir

    t0 = time.perf_counter()
    extract_dir(w.pages_dir, batch_size=BATCH_SIZE).count()
    extract_wall = time.perf_counter() - t0

    m = spans.layer_metrics(ledger, w.golden, n_records, workloads.N_FORMS)
    # golden mismatches by layer, per repetition
    n_checked = len(times) + len(traced)
    m.update({
        "html.extract.fail": res.fail["html"] / n_checked,
        "pdf.parse.fail": res.fail["pdf"] / n_checked,
        "extractors.fail": res.fail["extractors"] / n_checked,
        "pipelines.extract.wall_s": extract_wall,
        "pipelines.extract.ray_overhead_frac": (extract_wall - stage_s) / extract_wall,
        "state.manifest.wall_s": med(run_job_s),
        "state.manifest.groups": n_groups,
        "state.manifest.group_s_p50": med(res.group_wall_s),
        "state.manifest.fixed_s_per_group": (med(run_job_s) - stage_s) / n_groups,
    })
    if w.spec.curate:
        # curate_pages asks for the artifact twice: cold, then warm
        cold = tracer.durations("pipelines.curate.extracted_dir")[::2]
        curate = tracer.durations("pipelines.curate")
        m["pipelines.curate.extract_s"] = med(cold)
        m["pipelines.curate.wall_s"] = med(c - e for c, e in zip(curate, cold))
    else:
        m["pipelines.curate.extract_s"] = 0.0
        m["pipelines.curate.wall_s"] = 0.0
    m["trace.overhead_s"] = med(traced) - med(times)
    m["trace.layer_overhead_frac"] = (ledger_s - stage_s) / stage_s

    base = os.path.join(WORK_ROOT, "trace",
                        f"{w.spec.name}-seed{meta['seed']}")
    os.makedirs(os.path.dirname(base), exist_ok=True)
    tracer.write(base + ".job_spans.jsonl")
    ledger.write(base + ".layer_spans.jsonl")
    with open(base + ".layers.tsv", "w") as f:
        units = unit_table()
        f.write("metric\tvalue\tunit\n")
        for k, v in m.items():
            f.write(f"{k}\t{v:.6g}\t{units[k]}\n")
    meta["traced_job_s"] = traced
    meta["stage_s_in_process"] = stage_s
    log(f"trace written to {base}.*; tracing overhead"
        f" {m['trace.overhead_s']:+.3f} s per job,"
        f" {100 * m['trace.layer_overhead_frac']:+.1f}% on the layer ledger")
    return m


def unit_table() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
