"""Distributed sweep cluster: leases, protocol, loopback equivalence, failover.

The load-bearing properties:

* serial == process-pool == loopback-cluster aggregates, byte for byte;
* a worker killed mid-task loses its lease after the TTL, the task
  re-dispatches, and the final aggregate is *still* identical;
* cluster, pool and serial runs resume each other from a shared store;
* concurrent store writers can never leave torn JSON (atomic replace);
* the lease table's failure handling (expiry, capped backoff, poisoning,
  first-completed-wins) is deterministic under an injected clock.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterTask,
    ClusterWorker,
    Coordinator,
    LeaseTable,
    build_submission_payload,
    render_status,
    task_id,
)
from repro.cluster.errors import ProtocolError
from repro.cluster.protocol import decode_message, encode_message
import repro.experiments.__main__ as cli
from repro.experiments.scenario import ExperimentConfig
from repro.experiments.spec import get_experiment
from repro.experiments.store import ResultStore, TaskCache, _atomic_write_text
from repro.experiments.sweep import SweepRequest, run_suite, task_listing


# ---------------------------------------------------------------- fixtures
class FakeClock:
    """Deterministic monotonic clock tests advance by hand."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _task(key: str = "t1", **kwargs) -> ClusterTask:
    defaults = dict(
        key=key, submission="s1", request=0, experiment="fig9a",
        point=0, trial=0, seed=42, payload={"key": key},
    )
    defaults.update(kwargs)
    return ClusterTask(**defaults)


def _tiny_request() -> SweepRequest:
    config = ExperimentConfig.tiny().with_overrides(trials=1, max_duration=180.0)
    return SweepRequest(
        spec=get_experiment("fig9a"), config=config, axes={"wifi_range": (40.0,)}
    )


def _tiny_payload(tag=None, resume=True):
    config = ExperimentConfig.tiny().with_overrides(trials=1, max_duration=180.0)
    return build_submission_payload(
        ["fig9a"], config, {"fig9a": {"wifi_range": [40.0]}}, tag=tag, resume=resume
    )


def _run_workers(coordinator, count=2, **kwargs):
    workers = [
        ClusterWorker(
            coordinator.host, coordinator.port, worker_id=f"w{i}",
            exit_when_idle=True, poll_interval=0.05, **kwargs,
        )
        for i in range(count)
    ]
    threads = [threading.Thread(target=worker.run, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return workers


# ------------------------------------------------------------- lease table
def test_task_id_matches_task_cache_layout():
    assert task_id("fig9a", "abc123", 2, 7) == "fig9a-abc123/task-0002-007"


def test_claim_grants_in_order_and_counts():
    table = LeaseTable(clock=FakeClock())
    table.add(_task("a"))
    table.add(_task("b"))
    first, info = table.claim("w1")
    assert first.key == "a" and info["attempt"] == 1
    second, _ = table.claim("w2")
    assert second.key == "b"
    third, info = table.claim("w3")
    assert third is None and info["pending"] == 0 and info["leased"] == 2
    assert table.profile()["cluster.leases"] == 2.0


def test_heartbeat_keeps_lease_alive_and_silence_expires_it():
    clock = FakeClock()
    table = LeaseTable(clock=clock, lease_ttl=10.0, heartbeat_interval=2.0)
    table.add(_task("a"))
    task, info = table.claim("w1")
    lease = info["lease"]
    # Heartbeats push the deadline: 3 beats at t=8,16,24 keep it alive.
    for _ in range(3):
        clock.advance(8.0)
        assert table.heartbeat("w1", lease) is True
        assert table.expire_stale() == []
    # Silence past the TTL reclaims the lease and re-dispatches the task.
    clock.advance(10.5)
    reclaimed = table.expire_stale()
    assert [t.key for t in reclaimed] == ["a"]
    assert task.state == "pending"
    assert table.heartbeat("w1", lease) is False  # stale lease id
    profile = table.profile()
    assert profile["cluster.expired_leases"] == 1.0
    assert profile["cluster.redispatches"] == 1.0
    assert profile["cluster.heartbeats_missed"] >= 1.0
    # The re-dispatched task is immediately claimable (no backoff on expiry).
    again, info = table.claim("w2")
    assert again.key == "a" and info["attempt"] == 2


def test_worker_reported_failures_back_off_then_poison():
    clock = FakeClock()
    table = LeaseTable(
        clock=clock, max_attempts=3, backoff_base=1.0, backoff_cap=3.0
    )
    table.add(_task("a"))
    delays = []
    for attempt in range(1, 3):
        task, _ = table.claim("w1")
        assert task is not None
        _, info = table.fail("a", "w1", f"boom {attempt}")
        delays.append(info["retry_after"])
        # Not claimable until the backoff elapses.
        blocked, info = table.claim("w1")
        assert blocked is None and info["retry_after"] == pytest.approx(delays[-1])
        clock.advance(delays[-1] + 0.01)
    assert delays == pytest.approx([1.0, 2.0])  # backoff_base * 2**(attempts-1)
    task, _ = table.claim("w1")
    _, info = table.fail("a", "w1", "boom 3")
    assert info == {"poisoned": True}
    assert table.get("a").state == "failed"
    assert "boom 3" in table.get("a").error
    none, _ = table.claim("w1")
    assert none is None  # poisoned tasks never re-dispatch


def test_backoff_is_capped():
    clock = FakeClock()
    table = LeaseTable(clock=clock, max_attempts=10, backoff_base=1.0, backoff_cap=4.0)
    table.add(_task("a"))
    seen = []
    for _ in range(5):
        task, _ = table.claim("w1")
        _, info = table.fail("a", "w1", "boom")
        seen.append(info["retry_after"])
        clock.advance(info["retry_after"] + 0.01)
    assert seen == pytest.approx([1.0, 2.0, 4.0, 4.0, 4.0])


def test_first_completed_wins_and_late_uploads_are_redundant():
    clock = FakeClock()
    table = LeaseTable(clock=clock, lease_ttl=5.0)
    table.add(_task("a"))
    table.claim("w1")
    clock.advance(6.0)
    table.expire_stale()  # w1 presumed dead; task re-dispatched
    table.claim("w2")
    _, accepted = table.complete("a", "w2")
    assert accepted is True
    # w1 finished after all and uploads late: acknowledged, not merged.
    _, accepted = table.complete("a", "w1")
    assert accepted is False
    assert table.profile()["cluster.redundant_results"] == 1.0
    history = [(record.worker, record.outcome) for record in table.get("a").history]
    assert history == [("w1", "expired"), ("w2", "completed")]


def test_expiry_exhausting_attempts_poisons():
    clock = FakeClock()
    table = LeaseTable(clock=clock, lease_ttl=1.0, max_attempts=2)
    table.add(_task("a"))
    for _ in range(2):
        task, _ = table.claim("w1")
        assert task is not None
        clock.advance(1.5)
        table.expire_stale()
    assert table.get("a").state == "failed"
    assert "expired" in table.get("a").error


# ---------------------------------------------------------------- protocol
def test_message_round_trip_and_junk_rejection():
    message = {"op": "claim", "worker": "w1", "n": 3}
    assert decode_message(encode_message(message)) == message
    with pytest.raises(ProtocolError):
        decode_message(b"not json\n")
    with pytest.raises(ProtocolError):
        decode_message(b'["a", "list"]\n')


def test_coordinator_rejects_unknown_ops_and_versions():
    coordinator = Coordinator(store=ResultStore("unused-root"))
    reply = coordinator.handle({"op": "frobnicate"})
    assert reply["ok"] is False and "unknown op" in reply["error"]
    reply = coordinator.handle({"op": "claim", "proto": 99})
    assert reply["ok"] is False and "version" in reply["error"]


# ------------------------------------------------------------ atomic store
def test_atomic_write_crash_mid_write_leaves_old_content(tmp_path, monkeypatch):
    """A crash between tmp-write and rename must leave the old file intact."""
    target = tmp_path / "task.json"
    _atomic_write_text(target, '{"v": 1}')

    import repro.experiments.store as store_mod

    def exploding_replace(src, dst):
        raise OSError("simulated crash mid-write")

    monkeypatch.setattr(store_mod.os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        _atomic_write_text(target, '{"v": 2}')
    monkeypatch.undo()
    assert json.loads(target.read_text()) == {"v": 1}  # old content intact
    assert list(tmp_path.glob("*.tmp")) == []  # stray temp cleaned up


def test_concurrent_task_cache_writers_never_tear_json(tmp_path):
    """Racing writers flushing the same key must always leave parseable JSON."""
    from repro.experiments.metrics import RunResult

    cache = TaskCache(tmp_path).ensure()
    results = [
        RunResult(protocol="DAPES", seed=7, parameters={"w": writer},
                  download_times={"a": float(writer)}, duration=1.0)
        for writer in range(4)
    ]
    errors = []

    def hammer(result):
        try:
            for _ in range(50):
                cache.store("fig9a", 0, 0, 7, result)
                loaded = cache.load(0, 0, 7)
                assert loaded is not None  # a torn file would read back None
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(result,)) for result in results]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    final = json.loads(cache.path(0, 0).read_text())
    assert final["result"]["download_times"] == {"a": float(final["result"]["parameters"]["w"])}
    assert list(tmp_path.glob("*.tmp")) == []


# ------------------------------------------------------ fallback warnings
def _unpicklable_spec():
    from repro.experiments.metrics import RunResult
    from repro.experiments.spec import ExperimentSpec, Variant

    def fake_trial(protocol, config, seed, parameters):  # closure: unpicklable
        return RunResult(protocol=protocol, seed=seed, parameters=dict(parameters),
                         download_times={"a": 1.0}, duration=1.0)

    return ExperimentSpec(
        name="_cluster_unpicklable", title="t", description="",
        variants=(Variant(label="only"),), trial_fn=fake_trial,
    )


def test_serial_fallback_warning_names_pickle_failure_with_pool():
    config = ExperimentConfig.tiny().with_overrides(trials=2)
    with pytest.warns(RuntimeWarning, match="pickle round-trip"):
        run_suite([SweepRequest(spec=_unpicklable_spec(), config=config)], workers=4)


def test_serial_fallback_warning_names_workers_1_without_pool():
    config = ExperimentConfig.tiny().with_overrides(trials=2)
    with pytest.warns(RuntimeWarning, match="workers=1 disables"):
        run_suite([SweepRequest(spec=_unpicklable_spec(), config=config)], workers=1)


# ----------------------------------------------------------------- dry run
def test_task_listing_matches_scheduler_grid(tmp_path):
    request = _tiny_request()
    rows = task_listing([request])
    assert len(rows) == 4  # 4 fig9a variants x 1 trial
    assert all(not row["cached"] for row in rows)
    # The listing's task keys are exactly the TaskCache files a run creates.
    store = ResultStore(tmp_path)
    run_suite([request], workers=1, store=store)
    for row in rows:
        directory, _, stem = row["task"].partition("/")
        assert (tmp_path / "tasks" / directory / f"{stem}.json").is_file()
    cached_rows = task_listing([request], store=store)
    assert all(row["cached"] for row in cached_rows)


def test_cli_run_dry_run_prints_grid_without_executing(tmp_path, capsys):
    store_dir = tmp_path / "store"
    rc = cli.main([
        "run", "fig9a", "--preset", "tiny", "--trials", "1",
        "--axis", "wifi_range=40", "--store", str(store_dir), "--dry-run",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nothing executed" in out
    assert "task-0000-000" in out and "fig9a-" in out
    assert not (store_dir / "runs").exists()  # truly nothing ran or persisted


# ------------------------------------------------------ loopback equivalence
def test_cluster_matches_serial_and_pool_byte_for_byte(tmp_path):
    serial_store = ResultStore(tmp_path / "serial")
    [serial] = run_suite([_tiny_request()], workers=1, store=serial_store, tag="serial")
    [pooled] = run_suite([_tiny_request()], workers=2)
    assert pooled.to_json() == serial.to_json()

    cluster_store = ResultStore(tmp_path / "cluster")
    coordinator = Coordinator(store=cluster_store, port=0).start()
    try:
        reply = coordinator.handle({"op": "submit", **_tiny_payload(tag="cluster")})
        assert reply["ok"] and reply["tasks"] == 4
        workers = _run_workers(coordinator, count=2)
        assert coordinator.wait(timeout=120)
        assert sum(worker.executed for worker in workers) == 4
        snapshot = coordinator.status()
    finally:
        coordinator.stop()
    assert snapshot["tasks"]["done"] == 4 and snapshot["tasks"]["failed"] == 0
    clustered = cluster_store.load("fig9a@cluster")
    assert clustered.to_json() == serial.to_json()
    # Cluster provenance rides in the stored run's metadata header.
    record = cluster_store.resolve("fig9a@cluster")
    assert set(record.meta["cluster"]["workers"]) <= {"w0", "w1"}
    assert record.meta["cluster"]["submission"] == "s1"
    # The status renderer covers the same snapshot.
    text = render_status(snapshot)
    assert "done=4" in text and "w0" in text and "s1" in text


def test_cluster_resumes_a_serial_run_from_the_shared_store(tmp_path):
    store = ResultStore(tmp_path)
    [serial] = run_suite([_tiny_request()], workers=1, store=store, tag="serial")
    coordinator = Coordinator(store=store, port=0).start()
    try:
        # Every task is already satisfied by the store's task cache: the
        # submission finalizes instantly without any worker.
        reply = coordinator.handle({"op": "submit", **_tiny_payload(tag="cluster")})
        assert reply["ok"] and reply["tasks"] == 0 and reply["resumed"] == 4
        assert coordinator.wait(timeout=10)
    finally:
        coordinator.stop()
    resumed = store.load("fig9a@cluster")
    assert resumed.to_json() == serial.to_json()
    # Identical content ⇒ same content key: both tags on one stored run.
    record = store.resolve("fig9a@cluster")
    assert set(record.tags) == {"cluster", "serial"}


def test_worker_killed_mid_task_redispatches_and_aggregate_is_identical(tmp_path):
    serial_store = ResultStore(tmp_path / "serial")
    [serial] = run_suite([_tiny_request()], workers=1, store=serial_store)

    clock = FakeClock()
    cluster_store = ResultStore(tmp_path / "cluster")
    coordinator = Coordinator(
        store=cluster_store, port=0, lease_ttl=5.0, clock=clock, profile=True
    ).start()
    try:
        reply = coordinator.handle({"op": "submit", **_tiny_payload(tag="cluster")})
        assert reply["tasks"] == 4
        # An abruptly-killed worker: claims a task, then never heartbeats,
        # never uploads (the process is gone).
        dead = ClusterClient(coordinator.host, coordinator.port)
        dead.request("register", worker="dead")
        victim = dead.request("claim", worker="dead")["task"]
        assert victim is not None
        # Its lease expires once the TTL passes with no heartbeat ...
        clock.advance(coordinator.lease_ttl + 1.0)
        # ... and a healthy worker picks up the re-dispatched task along
        # with the rest of the grid.
        _run_workers(coordinator, count=1)
        assert coordinator.wait(timeout=120)
        snapshot = coordinator.status()
    finally:
        coordinator.stop()
    assert snapshot["tasks"]["done"] == 4 and snapshot["tasks"]["failed"] == 0
    assert snapshot["profile"]["cluster.expired_leases"] == 1.0
    assert snapshot["profile"]["cluster.redispatches"] == 1.0
    clustered = cluster_store.load("fig9a@cluster")
    assert clustered.to_json() == serial.to_json()  # identical despite the kill
    # Provenance records the second attempt on the victim task.
    record = cluster_store.resolve("fig9a@cluster")
    assert record.meta["cluster"]["attempts"] == {victim["key"]: 2}
    [(worker_1, worker_2)] = [
        tuple(entry["worker"] for entry in history)
        for history in record.meta["cluster"]["lease_history"].values()
    ]
    assert (worker_1, worker_2) == ("dead", "w0")


def test_simultaneous_last_uploads_finalize_once(tmp_path, monkeypatch):
    """Regression: the last two uploads of a grid arriving together.

    Marking a task done and storing its result used to be two steps, so the
    second upload could find the grid complete, finalize, and miss the
    first one's result (``KeyError: (point, trial)`` to that worker, sweeps
    listed twice in ``stored``).  The stall injected into
    ``LeaseTable.complete`` holds the first upload exactly there.
    """
    [serial] = run_suite([_tiny_request()], workers=1)
    store = ResultStore(tmp_path)
    coordinator = Coordinator(store=store, port=0)  # in-process: no sockets needed
    coordinator.handle({"op": "submit", **_tiny_payload(tag="cluster")})
    uploads = []
    while True:
        task = coordinator.handle({"op": "claim", "worker": "w0"})["task"]
        if task is None:
            break
        result = serial.points[task["point"]].trial_results[task["trial"]]
        uploads.append(
            {"op": "result", "worker": "w0", "task": task["key"],
             "seed": task["seed"], "result": result.to_dict()}
        )
    assert len(uploads) == 4
    for upload in uploads[:-2]:
        assert coordinator.handle(upload)["accepted"]

    first_marked_done = threading.Event()
    second_answered = threading.Event()
    complete = coordinator.table.complete

    def stalling_complete(key, worker):
        outcome = complete(key, worker)
        if not first_marked_done.is_set():
            first_marked_done.set()
            # Long enough for the other upload to run to its end if nothing
            # holds it back; it is cut short as soon as that one is answered.
            second_answered.wait(timeout=0.5)
        return outcome

    monkeypatch.setattr(coordinator.table, "complete", stalling_complete)
    replies = {}
    first = threading.Thread(
        target=lambda: replies.update(first=coordinator.handle(uploads[-2])), daemon=True
    )
    first.start()
    assert first_marked_done.wait(timeout=10)
    replies["second"] = coordinator.handle(uploads[-1])
    second_answered.set()
    first.join(timeout=10)
    assert not first.is_alive()

    for name in ("first", "second"):
        assert replies[name] == {"ok": True, "accepted": True}, replies
    [submission] = coordinator.status()["submissions"]
    assert submission["state"] == "done" and submission["errors"] == []
    refs = [f"{ref['spec']}@{ref['key']}" for ref in submission["stored"]]
    assert len(refs) == len(set(refs)) == 1
    assert store.load("fig9a@cluster").to_json() == serial.to_json()


def test_duplicate_in_flight_submission_is_rejected(tmp_path):
    coordinator = Coordinator(store=ResultStore(tmp_path), port=0)
    coordinator.handle({"op": "submit", **_tiny_payload()})
    reply = coordinator.handle({"op": "submit", **_tiny_payload()})
    assert reply["ok"] is False and "already in flight" in reply["error"]


@pytest.mark.parametrize(
    "trials, axes, reason",
    [
        (1, {"wifi_range": [80.0, -5.0]}, "wifi_range must be positive"),
        (0, {"wifi_range": [80.0]}, "trials must be at least 1"),
    ],
    ids=["bad_axis_value", "zero_trials"],
)
def test_submit_refuses_an_invalid_grid_before_leasing_anything(tmp_path, trials, axes, reason):
    coordinator = Coordinator(store=ResultStore(tmp_path), port=0)
    config = ExperimentConfig.tiny().with_overrides(trials=trials)
    payload = build_submission_payload(["fig9a"], config, {"fig9a": axes})
    reply = coordinator.handle({"op": "submit", **payload})
    assert reply["ok"] is False and reason in reply["error"]
    assert not coordinator.table.tasks()
    assert not (tmp_path / "tasks").exists()


def test_submit_from_a_client_with_extra_config_fields_names_them(tmp_path):
    coordinator = Coordinator(store=ResultStore(tmp_path), port=0)
    payload = _tiny_payload()
    payload["requests"][0]["config"].update(shards=4, shard_workers=2)
    reply = coordinator.handle({"op": "submit", **payload})
    assert reply["ok"] is False
    assert "unknown ExperimentConfig field(s): shard_workers, shards" in reply["error"]


def test_worker_reported_failure_poisons_submission(tmp_path):
    coordinator = Coordinator(store=ResultStore(tmp_path), port=0, max_attempts=1)
    coordinator.handle({"op": "submit", **_tiny_payload()})
    coordinator.handle({"op": "register", "worker": "w1"})
    poisoned = 0
    while True:  # a hopeless worker: every task it claims blows up
        task = coordinator.handle({"op": "claim", "worker": "w1"})["task"]
        if task is None:
            break
        reply = coordinator.handle(
            {"op": "fail", "worker": "w1", "task": task["key"], "error": "kaboom"}
        )
        assert reply["poisoned"] is True
        poisoned += 1
    assert poisoned == 4
    status = coordinator.status()
    [submission] = [s for s in status["submissions"] if s["id"] == "s1"]
    assert submission["state"] == "failed"
    assert any("kaboom" in error for error in submission["errors"])
    assert submission["stored"] == []  # a poisoned grid never aggregates
