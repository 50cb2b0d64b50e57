"""Resume semantics: a job killed between shard groups skips completed
groups on restart and produces identical final output (SURVEY.md §5.2-4)."""

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parents[1]
SF_DIR = "/root/testdata/sf0.001"


@contextmanager
def job_process(*args, stderr=subprocess.DEVNULL):
    """The job CLI as a subprocess in its own session.  On exit it is
    SIGKILLed if still running, and so is the rest of its process
    group: its Ray processes (the dashboard agent outlives the raylet)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdf_parser_ray.job", *args],
        cwd=ROOT, env=dict(os.environ, RAY_ADDRESS=""),
        stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    from pdf_parser_ray.fixtures.gen import synthesize_to_dir

    out = str(tmp_path_factory.mktemp("resume_corpus"))
    pages_dir, _ = synthesize_to_dir(SF_DIR, out, shards=4)
    return pages_dir


def read_all(out_dir):
    tables = []
    for shard in sorted(os.listdir(out_dir)):
        if not shard.startswith("shard="):
            continue
        for f in sorted(os.listdir(os.path.join(out_dir, shard))):
            if f.endswith(".parquet"):
                tables.append(
                    pq.read_table(
                        os.path.join(out_dir, shard, f),
                        columns=["url", "content_sha256"],
                    )
                )
    import pyarrow as pa

    t = pa.concat_tables(tables)
    return dict(zip(t.column("url").to_pylist(), t.column("content_sha256").to_pylist()))


class TestResume:
    def test_groups_deterministic(self, pages_dir):
        from pdf_parser_ray.state.manifest import list_shard_groups

        g1 = list_shard_groups(pages_dir, 2)
        g2 = list_shard_groups(pages_dir, 2)
        assert g1 == g2
        assert len(g1) == 2

    def test_full_run_writes_manifests(self, ray_session, quiet_data_context, pages_dir, tmp_path):
        from pdf_parser_ray.state.manifest import run_job

        out = str(tmp_path / "out_full")
        summary = run_job(pages_dir, out, group_size=2)
        assert summary["groups"] == 2 and summary["skipped"] == 0
        manifests = sorted(os.listdir(os.path.join(out, "_manifest")))
        assert manifests == ["00000.json", "00001.json"]
        m = json.load(open(os.path.join(out, "_manifest", "00000.json")))
        assert m["rows"] > 0 and m["rows_per_sec"] > 0 and m["content_hash_rollup"]

    def test_resume_skips_completed_and_output_identical(
        self, ray_session, quiet_data_context, pages_dir, tmp_path
    ):
        from pdf_parser_ray.state.manifest import run_job

        out_a = str(tmp_path / "out_a")  # uninterrupted reference run
        run_job(pages_dir, out_a, group_size=2)

        out_b = str(tmp_path / "out_b")
        # simulate a kill after group 0: run only group 0 by pre-marking
        # group 1 done, then delete the fake marker and resume
        run_job(pages_dir, out_b, group_size=2)
        # wipe group 1's data+manifest to simulate dying mid-group-1
        import shutil

        shutil.rmtree(os.path.join(out_b, "shard=00001"))
        os.remove(os.path.join(out_b, "_manifest", "00001.json"))

        summary = run_job(pages_dir, out_b, group_size=2)
        assert summary["skipped"] == 1  # group 0 untouched
        assert summary["ran"] == [1]
        assert read_all(out_a) == read_all(out_b)

    def test_sigkill_mid_job_resumes_byte_identical(
        self, ray_session, quiet_data_context, pages_dir, tmp_path
    ):
        """REAL kill/resume (VERDICT r04 ask #8, pytest-scale twin of
        tools/stress_resume.py): SIGKILL the job CLI subprocess after
        its first group manifest lands, then resume in a fresh process
        and assert (a) every manifested group is skipped — its manifest
        mtime does not move — and (b) the final output is byte-identical
        to an uninterrupted reference run."""
        import time

        from pdf_parser_ray.state.manifest import run_job

        out_ref = str(tmp_path / "out_ref")
        run_job(pages_dir, out_ref, group_size=1)  # 4 groups

        out = str(tmp_path / "out_killed")
        mdir = os.path.join(out, "_manifest")
        with job_process(
            "--input", pages_dir, "--output", out,
            "--group-size", "1", "--num-cpus", "4",
        ) as proc:
            deadline = time.time() + 120
            while time.time() < deadline:
                # a finished manifest, not _atomic_write_json's temp file
                if os.path.isdir(mdir) and any(
                    f.endswith(".json") for f in os.listdir(mdir)
                ):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no manifest appeared before the deadline")

        done_before = {
            f: os.path.getmtime(os.path.join(mdir, f))
            for f in os.listdir(mdir)
            if f.endswith(".json")
        }
        assert done_before  # the kill landed after >= 1 completed group

        summary = run_job(pages_dir, out, group_size=1)  # resume in-proc
        assert summary["skipped"] == len(done_before)
        for f, mtime in done_before.items():
            assert os.path.getmtime(os.path.join(mdir, f)) == mtime
        assert read_all(out) == read_all(out_ref)

    def test_empty_shard_commits_empty_group(
        self, ray_session, quiet_data_context, pages_dir, tmp_path
    ):
        # Ray writes nothing for a 0-row group; the group must still
        # commit an empty shard dir and a rows: 0 manifest
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        first = sorted(f for f in os.listdir(pages_dir) if f.endswith(".parquet"))[0]
        t = pq.read_table(os.path.join(pages_dir, first))
        pq.write_table(t, str(in_dir / "a.parquet"))
        pq.write_table(t.slice(0, 0), str(in_dir / "b.parquet"))
        from pdf_parser_ray.state.manifest import run_job

        out = str(tmp_path / "out_empty")
        summary = run_job(str(in_dir), out, group_size=1)
        assert summary["ran"] == [0, 1] and summary["rows"] == t.num_rows
        m = json.load(open(os.path.join(out, "_manifest", "00001.json")))
        assert m["rows"] == 0 and m["records"] == 0
        assert os.listdir(os.path.join(out, "shard=00001")) == []
        assert run_job(str(in_dir), out, group_size=1)["skipped"] == 2

    def test_crash_mid_group_leaves_no_manifest(self, pages_dir, tmp_path):
        # a tmp dir without a manifest entry must not count as done
        from pdf_parser_ray.state.manifest import completed_groups

        out = str(tmp_path / "out_crash")
        os.makedirs(os.path.join(out, "_tmp.shard=00000.deadbeef"), exist_ok=True)
        assert completed_groups(out) == set()


class TestJsonlSink:
    def test_jsonl_format_same_lineage_as_parquet(
        self, ray_session, quiet_data_context, pages_dir, tmp_path
    ):
        """The JSONL sink (the reference's native output shape) must
        produce identical lineage stats (rows, records, content-hash
        rollup) to the parquet sink on the same input, and resume must
        skip completed groups the same way."""
        import json
        import os

        from pdf_parser_ray.state.manifest import run_job

        out_pq = str(tmp_path / "pq")
        out_jl = str(tmp_path / "jl")
        run_job(pages_dir, out_pq, group_size=2)
        summary = run_job(pages_dir, out_jl, group_size=2, output_format="jsonl")
        assert summary["skipped"] == 0 and summary["rows"] > 0
        for name in sorted(os.listdir(os.path.join(out_pq, "_manifest"))):
            a = json.load(open(os.path.join(out_pq, "_manifest", name)))
            b = json.load(open(os.path.join(out_jl, "_manifest", name)))
            for k in ("rows", "records", "content_hash_rollup"):
                assert a[k] == b[k], (name, k)
            # reference: a per-row loop over the group's written rows
            t = pq.read_table(
                os.path.join(out_pq, f"shard={a['group']:05d}"),
                columns=["n_records", "content_sha256"],
            )
            rollup = 0
            for h in t.column("content_sha256").to_pylist():
                rollup ^= int(h[:16], 16)
            assert a["rows"] == t.num_rows
            assert a["records"] == sum(t.column("n_records").to_pylist())
            assert a["content_hash_rollup"] == f"{rollup:016x}"
        # the shard dirs hold .json files, and resume skips everything
        shard0 = os.path.join(out_jl, "shard=00000")
        assert any(n.endswith(".json") for n in os.listdir(shard0))
        again = run_job(pages_dir, out_jl, group_size=2, output_format="jsonl")
        assert again["skipped"] == summary["groups"] and not again["ran"]


class TestJobCurate:
    def test_curate_rejects_jsonl_sink(self, tmp_path):
        from pdf_parser_ray import job

        with pytest.raises(SystemExit) as e:
            job.main([
                "--input", str(tmp_path), "--output", str(tmp_path / "out"),
                "--format", "jsonl", "--curate",
            ])
        assert e.value.code == 2

    def test_curate_reads_own_output(
        self, ray_session, quiet_data_context, pages_dir, tmp_path, monkeypatch
    ):
        """`job --curate` curates its own --output: its verdicts equal
        curate_pages over the pages dir, re-curating the finished output
        (which already holds curation/) agrees, and no extracted copy
        is written to the shared cache root."""
        from pdf_parser_ray.pipelines import extract
        from pdf_parser_ray.pipelines.curate import curate_pages

        out = str(tmp_path / "out")
        err = tmp_path / "job.err"
        with open(err, "w") as f, job_process(
            "--input", pages_dir, "--output", out, "--curate",
            "--group-size", "2", "--num-cpus", "2", stderr=f,
        ) as proc:
            code = proc.wait(timeout=600)
        assert code == 0, err.read_text()[-2000:]
        assert not os.path.exists(
            os.path.join(
                extract._EXTRACTED_CACHE_ROOT,
                extract._corpus_fingerprint(pages_dir),
            )
        )

        def verdicts(df):
            assert df["url"].is_unique
            return dict(zip(df["url"], df["verdict"]))

        got = verdicts(pq.read_table(os.path.join(out, "curation")).to_pandas())
        monkeypatch.setattr(extract, "_EXTRACTED_CACHE_ROOT", str(tmp_path / "cache"))
        assert got == verdicts(curate_pages(pages_dir).to_pandas())
        assert got == verdicts(curate_pages(out).to_pandas())


class TestQueryCLI:
    def test_registry_matches_driver_contract(self):
        """Every registry operator is exposed through the driver
        contract under the same name (the CLI and the oracle gate serve
        one map)."""
        import sys

        sys.path.insert(0, str(ROOT))
        import __ray_entry__ as entrymod

        from pdf_parser_ray.registry import queries

        assert set(queries()) <= set(entrymod.queries())
