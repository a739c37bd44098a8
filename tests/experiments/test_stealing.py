"""Multi-host work stealing: shard math, claims, leases, assembly, CLI.

The protocol is advisory (trials are deterministic, cache writes are
atomic), so correctness here means: every shard returns the identical
full result list, claims never linger after a run, stale leases are
recoverable, and a shard that can neither compute nor fetch a trial
fails loudly instead of hanging forever.
"""

import os
import time

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.training.trials import (
    ResultCache,
    TrialSpec,
    run_trials,
    session,
    trial_key,
)
from repro.training.stealing import (
    ClaimBoard,
    ShardSpec,
    _Heartbeat,
    default_owner,
    run_trials_sharded,
)
from repro.models import custom_model
from repro.training import ClusterSpec, SchedulerSpec
from repro.units import MB


def tiny_specs(n=4):
    specs = []
    for seed in range(n):
        model = custom_model(
            layer_bytes=[1 * MB, 2 * MB],
            fp_times=[0.001, 0.001],
            bp_times=[0.002, 0.002],
            batch_size=8,
        )
        specs.append(
            TrialSpec(
                model=model,
                cluster=ClusterSpec(
                    machines=2, gpus_per_machine=1,
                    bandwidth_gbps=10, seed=seed,
                ),
                scheduler=SchedulerSpec(kind="fifo"),
                measure=2,
                warmup=1,
            )
        )
    return specs


# -- shard arithmetic -------------------------------------------------------


def test_shard_spec_parses_cli_form():
    shard = ShardSpec.parse("1/4")
    assert (shard.index, shard.total) == (1, 4)
    assert str(shard) == "1/4"


@pytest.mark.parametrize("text", ["3", "a/b", "2/2", "-1/2", "0/0", "1/"])
def test_shard_spec_rejects_malformed(text):
    with pytest.raises(ConfigError):
        ShardSpec.parse(text)


def test_shards_partition_positions():
    shards = [ShardSpec(i, 3) for i in range(3)]
    for position in range(20):
        owners = [s for s in shards if s.owns(position)]
        assert len(owners) == 1
        assert owners[0].index == position % 3


# -- claim board ------------------------------------------------------------


def test_claim_is_exclusive_until_released(tmp_path):
    board = ClaimBoard(tmp_path)
    assert board.try_claim("k1", "host-a")
    assert not board.try_claim("k1", "host-b")
    board.release("k1")
    assert board.try_claim("k1", "host-b")


def test_release_tolerates_missing_claim(tmp_path):
    ClaimBoard(tmp_path).release("never-claimed")


def test_steal_requires_an_existing_claim(tmp_path):
    board = ClaimBoard(tmp_path)
    assert not board.steal("k1", "thief")  # holder already released
    board.try_claim("k1", "victim")
    assert board.steal("k1", "thief")
    assert board._path("k1").read_text() == "thief"


def test_lease_expires_without_heartbeat(tmp_path):
    board = ClaimBoard(tmp_path)
    board.try_claim("k1", "victim")
    assert not board.stale("k1", ttl=30.0)
    # Backdate the mtime: the host died a minute ago.
    past = time.time() - 60.0
    os.utime(board._path("k1"), (past, past))
    assert board.stale("k1", ttl=30.0)
    assert board.age("k1") > 30.0
    assert board.age("unclaimed") is None
    assert not board.stale("unclaimed", ttl=0.0)


def test_heartbeat_keeps_lease_fresh(tmp_path):
    board = ClaimBoard(tmp_path)
    board.try_claim("k1", "me")
    heartbeat = _Heartbeat(board, interval=0.05)
    heartbeat.start()
    try:
        heartbeat.hold("k1")
        time.sleep(0.4)
        assert board.age("k1") < 0.3  # re-stamped while held
        heartbeat.drop("k1")
    finally:
        heartbeat.stop()
        heartbeat.join(timeout=2.0)


# -- sharded sweeps ---------------------------------------------------------


def test_shards_assemble_identical_full_results(tmp_path):
    specs = tiny_specs(5)
    serial = run_trials(specs)
    cache = ResultCache(tmp_path)
    first = run_trials_sharded(
        specs, ShardSpec(0, 2), cache, steal=True, timeout=60.0
    )
    # The second shard arrives late: everything is cached already.
    second = run_trials_sharded(
        specs, ShardSpec(1, 2), cache, steal=False, timeout=60.0
    )
    assert first == serial
    assert second == serial
    assert os.listdir(tmp_path / "claims") == []  # no leaked claims


def test_duplicate_configs_run_once_but_fill_every_position(tmp_path):
    specs = tiny_specs(2)
    specs.append(specs[0])  # same config at two sweep positions
    results = run_trials_sharded(
        specs, ShardSpec(0, 2), ResultCache(tmp_path), steal=True, timeout=60.0
    )
    assert len(results) == 3
    assert results[2] == results[0]


def test_stale_foreign_claim_is_restolen(tmp_path):
    specs = tiny_specs(2)
    cache = ResultCache(tmp_path)
    board = ClaimBoard(cache.root)
    # A dead host claimed shard 1's trial and never finished it.
    foreign_key = trial_key(specs[1])
    board.try_claim(foreign_key, "dead-host")
    past = time.time() - 60.0
    os.utime(board._path(foreign_key), (past, past))
    results = run_trials_sharded(
        specs, ShardSpec(0, 2), cache, steal=True,
        lease_ttl=5.0, timeout=60.0,
    )
    assert results == run_trials(specs)


def test_waiting_shard_times_out_loudly(tmp_path):
    specs = tiny_specs(2)
    with pytest.raises(TimeoutError, match="other shards"):
        run_trials_sharded(
            specs, ShardSpec(0, 2), ResultCache(tmp_path),
            steal=False, poll=0.05, timeout=0.5,
        )


def test_session_routes_run_trials_through_shards(tmp_path):
    specs = tiny_specs(3)
    serial = run_trials(specs)
    with session(cache_dir=tmp_path, shard=ShardSpec(0, 2), steal=True):
        sharded = run_trials(specs)
    assert sharded == serial


def test_session_shard_requires_cache_dir():
    with pytest.raises(ConfigError, match="cache"):
        with session(shard=ShardSpec(0, 2)):
            pass


def test_default_owner_names_host_and_shard():
    owner = default_owner(ShardSpec(2, 4))
    assert "shard2" in owner
    assert str(os.getpid()) in owner


# -- CLI surface ------------------------------------------------------------


def test_reproduce_rejects_bad_shard(capsys):
    code = main(["reproduce", "figure4", "--fast",
                 "--shard", "2/2", "--cache-dir", "/tmp/never-used"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid --shard" in captured.err


def test_reproduce_shard_needs_cache_dir(capsys):
    code = main(["reproduce", "figure4", "--fast", "--shard", "0/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--shard needs --cache-dir" in captured.err


def test_reproduce_steal_needs_shard(capsys):
    code = main(["reproduce", "figure4", "--fast", "--steal"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--steal" in captured.err


def test_reproduce_sharded_end_to_end(tmp_path, capsys):
    code = main(["reproduce", "figure4", "--fast",
                 "--shard", "0/2", "--steal",
                 "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "img/s" in captured.out
