"""Kill/resume stress at bench scale (VERDICT r04 ask #8).

Runs the extraction job over the 640k-page bench corpus (sf0.1 x 128
replicas), SIGKILLs the driver subprocess mid-run (after ~half the
shard groups have manifested), resumes, and verifies:

- no recomputation: every manifested group's manifest mtime is
  unchanged after the resume (the resume only trusts manifests);
- byte-identical output: the per-group (rows, records,
  content_hash_rollup) lineage triples of the killed+resumed run equal
  the uninterrupted reference run's, group for group.

Prints one JSON line with the measured full wall, resume wall, and
recovery overhead — recorded in SCALE.md.

Usage: python tools/stress_resume.py [--replicate N]
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
CACHE_ROOT = "/tmp/pdf_parser_ray_bench"
OUT_ROOT = "/tmp/pdf_parser_ray_stress"
GROUP_SIZE = 2  # parquet files per shard group (the rg4k corpus packs ~40k
# pages per file; 2-file groups give ~8 kill/resume units at rep128)


def manifests(out_dir: str) -> dict:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return {}
    out = {}
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            out[f] = os.path.getmtime(os.path.join(mdir, f))
    return out


def lineage(out_dir: str) -> dict:
    mdir = os.path.join(out_dir, "_manifest")
    out = {}
    for f in sorted(os.listdir(mdir)):
        if f.endswith(".json"):
            m = json.load(open(os.path.join(mdir, f)))
            out[f] = (m["rows"], m["records"], m["content_hash_rollup"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicate", type=int, default=128)
    ap.add_argument("--num-cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False)
    from pdf_parser_ray.fixtures.gen import synthesize_pages_ray

    tag = os.path.basename(os.path.normpath(SF_DIR))
    out = os.path.join(CACHE_ROOT, tag)
    os.makedirs(out, exist_ok=True)
    pages_dir = synthesize_pages_ray(SF_DIR, out, replicate=args.replicate)
    ray.shutdown()

    from pdf_parser_ray.state.manifest import list_shard_groups

    n_groups = len(list_shard_groups(pages_dir, GROUP_SIZE))
    import shutil

    shutil.rmtree(OUT_ROOT, ignore_errors=True)
    ref_out = os.path.join(OUT_ROOT, "ref")
    kill_out = os.path.join(OUT_ROOT, "killed")

    def job_cmd(out_dir: str) -> list:
        return [
            sys.executable, "-m", "pdf_parser_ray.job",
            "--input", pages_dir, "--output", out_dir,
            "--group-size", str(GROUP_SIZE),
            "--num-cpus", str(args.num_cpus),
        ]

    env = dict(os.environ, RAY_ADDRESS="")

    # uninterrupted reference run
    t0 = time.perf_counter()
    subprocess.run(job_cmd(ref_out), cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    full_wall = time.perf_counter() - t0

    # killed run: SIGKILL once ~half the groups have manifested
    t0 = time.perf_counter()
    proc = subprocess.Popen(job_cmd(kill_out), cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    target = max(1, n_groups // 2)
    while proc.poll() is None and len(manifests(kill_out)) < target:
        time.sleep(0.2)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()
    # the dead job's Ray processes (its dashboard agent outlives the
    # raylet) share its process group: reap them too
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    kill_wall = time.perf_counter() - t0
    done_before = manifests(kill_out)
    assert done_before, "kill landed before any group manifested"

    # resume
    t0 = time.perf_counter()
    subprocess.run(job_cmd(kill_out), cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    resume_wall = time.perf_counter() - t0

    # no recomputation of manifested groups
    after = manifests(kill_out)
    untouched = all(after[f] == m for f, m in done_before.items())
    # byte-identical lineage vs the reference
    identical = lineage(kill_out) == lineage(ref_out)

    print(json.dumps({
        "pages_dir": pages_dir,
        "n_groups": n_groups,
        "group_size": GROUP_SIZE,
        "groups_done_at_kill": len(done_before),
        "full_wall_sec": round(full_wall, 1),
        "wall_until_kill_sec": round(kill_wall, 1),
        "resume_wall_sec": round(resume_wall, 1),
        "recovery_overhead_sec": round(kill_wall + resume_wall - full_wall, 1),
        "manifests_untouched": untouched,
        "lineage_identical": identical,
    }))
    return 0 if (untouched and identical) else 1


if __name__ == "__main__":
    sys.exit(main())
