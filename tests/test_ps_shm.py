"""Shared-memory parameter-server transport and process-worker training.

Covers the PR-4 surface: the StateLayout slab contract, shm-vs-local
semantic equivalence (bit-exact BSP), the version-keyed pull cache,
process-worker training (bit-exact against the thread path at fixed seed),
and the PS edge cases — a worker that crashes mid-epoch must never
deadlock a BSP barrier, SSP must honour its staleness bound, and every
worker error must surface.
"""

import functools
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.trainer import TrainerConfig
from repro.nn import StateLayout
from repro.nn.gnn import GCNModel
from repro.ps import (
    DistributedConfig,
    DistributedTrainer,
    ParameterServerGroup,
    WorkerError,
)
from repro.ps.shm import BytesBroadcast, attach_shared_memory, mp_context


def small_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "layer.bias": np.zeros(3, dtype=np.float32),
        "head.weight": rng.standard_normal((3, 2)).astype(np.float32),
    }


class TestStateLayout:
    def test_round_trip(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        flat = layout.flatten(state)
        assert flat.dtype == np.float32 and flat.shape == (layout.total_size,)
        back = layout.unflatten(flat)
        assert set(back) == set(state)
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])

    def test_unflatten_returns_views(self):
        state = small_state()
        layout = StateLayout.from_state(state)
        flat = layout.flatten(state)
        views = layout.unflatten(flat)
        flat[:] = 7.0
        assert all(float(v.max()) == 7.0 for v in views.values())

    def test_from_module_matches_state_dict(self):
        model = GCNModel(4, 8, 2, num_layers=1, seed=0)
        layout = StateLayout.from_module(model)
        flat = layout.flatten(model.state_dict())
        back = layout.unflatten(flat)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(back[name], value)

    def test_shape_and_key_mismatch_rejected(self):
        layout = StateLayout.from_state(small_state())
        bad = small_state()
        bad["layer.bias"] = np.zeros(5, dtype=np.float32)
        with pytest.raises(ValueError):
            layout.flatten(bad)
        with pytest.raises(KeyError):
            layout.flatten({"layer.bias": np.zeros(3, dtype=np.float32)})
        with pytest.raises(ValueError):
            layout.unflatten(np.zeros(3, dtype=np.float32))


class TestCtrlChannel:
    """The pipe-backed control channel: synchronous writes (no feeder
    thread whose held lock a hard-crashed worker could orphan — the
    deadlock `test_shm_dead_worker_releases_barrier` used to hit
    intermittently) and queue.Empty on timeout."""

    def test_put_get_and_empty(self):
        import queue

        from repro.ps.shm import _CtrlChannel

        chan = _CtrlChannel(mp_context())
        chan.put(("push", 0, ()))
        chan.put(("finish", 1, None))
        assert chan.get(timeout=1.0) == ("push", 0, ())
        assert chan.get(timeout=1.0) == ("finish", 1, None)
        with pytest.raises(queue.Empty):
            chan.get(timeout=0.05)
        chan.close()

    def test_writes_are_synchronous(self):
        """put() returns only once the bytes are in the pipe — the property
        that makes 'acked, then hard-exited' crash-safe."""
        from repro.ps.shm import _CtrlChannel

        chan = _CtrlChannel(mp_context())
        chan.put("hello")
        assert chan._reader.poll(0)  # visible immediately, no feeder delay
        assert chan.get(timeout=0) == "hello"
        chan.close()


class TestSlabBroadcast:
    """The one-shot broadcast primitive GraphInfer ships model slices with:
    publish N state dicts once, attach by locator, unlink exactly once."""

    def test_locator_round_trip(self):
        import pickle

        from repro.ps.shm import SlabBroadcast

        states = [small_state(0), small_state(1), {"solo": np.arange(5, dtype=np.float32)}]
        with SlabBroadcast(states) as bc:
            assert len(bc) == 3
            for i, state in enumerate(states):
                # the locator is what a reducer pickles: plain data only
                locator = pickle.loads(pickle.dumps(bc.slice(i)))
                back = locator.state()
                assert set(back) == set(state)
                for name in state:
                    np.testing.assert_array_equal(back[name], state[name])
                assert locator.num_values() == sum(v.size for v in state.values())

    def test_close_unlinks_and_is_idempotent(self):
        import os

        from repro.ps.shm import SlabBroadcast

        bc = SlabBroadcast([small_state()])
        name = bc.name
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):
            assert os.path.exists(os.path.join(shm_dir, name))
        bc.close()
        bc.close()
        if os.path.isdir(shm_dir):
            assert not os.path.exists(os.path.join(shm_dir, name))
        with pytest.raises(FileNotFoundError):
            from repro.ps.shm import attach_shared_memory

            attach_shared_memory(name)

    def test_out_of_range_slice_rejected(self):
        from repro.ps.shm import SlabBroadcast

        with SlabBroadcast([small_state()]) as bc:
            with pytest.raises(IndexError):
                bc.slice(1)

    def test_attach_cache_bounded(self):
        from repro.ps import shm as shm_mod

        count = shm_mod._ATTACH_CACHE_MAX + 2
        broadcasts = [shm_mod.SlabBroadcast([small_state(i)]) for i in range(count)]
        try:
            for bc in broadcasts:
                bc.slice(0).state()
            assert len(shm_mod._ATTACH_CACHE) <= shm_mod._ATTACH_CACHE_MAX
            # FIFO: the *newest* attachments survive, the oldest are evicted
            expected = [bc.name for bc in broadcasts[-shm_mod._ATTACH_CACHE_MAX:]]
            assert [n for n in shm_mod._ATTACH_CACHE if n in expected] == expected
            assert broadcasts[0].name not in shm_mod._ATTACH_CACHE
        finally:
            for bc in broadcasts:
                seg = shm_mod._ATTACH_CACHE.pop(bc.name, None)
                if seg is not None:
                    seg.close()
                bc.close()


class TestBytesBroadcast:
    """One raw byte payload in a named segment (the per-host republish of a
    fetched TCP broadcast): attach by name, unlink exactly once."""

    def test_publish_attach_close(self):
        payload = b"broadcast-bytes" * 100
        bcast = BytesBroadcast(payload)
        seg = attach_shared_memory(bcast.name)
        try:
            assert bytes(seg.buf[: len(payload)]) == payload
        finally:
            seg.close()
        bcast.close()
        bcast.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(bcast.name)

    def test_context_manager_unlinks(self):
        with BytesBroadcast(b"x") as bcast:
            name = bcast.name
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(name)


def _run_group_workers(group, num_workers, steps, grad_seed=100):
    """Drive a group with thread workers pushing deterministic gradients."""
    rngs = [np.random.default_rng(grad_seed + w) for w in range(num_workers)]

    def worker(w):
        client = group.client(w)
        for _ in range(steps):
            client.pull()
            grads = {
                name: rngs[w].standard_normal(value.shape).astype(np.float32)
                for name, value in small_state().items()
            }
            client.push(grads)
        client.finish_epoch()

    group.begin_epoch()
    threads = [threading.Thread(target=worker, args=(w,)) for w in range(num_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "worker deadlocked"


class TestShmTransport:
    @pytest.mark.parametrize("mode", ["async", "bsp", "ssp"])
    def test_modes_complete_and_update(self, mode):
        with ParameterServerGroup(
            num_servers=2, num_workers=3, optimizer="sgd", lr=0.1,
            mode=mode, transport="shm",
        ) as group:
            group.initialize(small_state())
            before = group.pull()
            _run_group_workers(group, num_workers=3, steps=4)
            after = group.pull()
            assert group.total_pushes == 12
            assert any(
                np.abs(after[name] - before[name]).max() > 0 for name in before
            )

    def test_bsp_bit_exact_vs_local(self):
        results = {}
        for transport in ("local", "shm"):
            with ParameterServerGroup(
                num_servers=2, num_workers=3, optimizer="adam", lr=0.05,
                mode="bsp", transport=transport,
            ) as group:
                group.initialize(small_state())
                _run_group_workers(group, num_workers=3, steps=5)
                results[transport] = group.pull()
        for name in results["local"]:
            np.testing.assert_array_equal(results["local"][name], results["shm"][name])

    def test_version_advances_and_pull_is_view_refresh(self):
        with ParameterServerGroup(
            num_servers=1, num_workers=1, optimizer="sgd", lr=0.1, transport="shm"
        ) as group:
            group.initialize(small_state())
            client = group.client(0)
            first = client.pull()
            assert first is not None
            assert client.pull() is None  # unchanged version: cache hit
            grads = {n: np.ones_like(v) for n, v in small_state().items()}
            client.push(grads)
            assert client.pull() is not None  # apply bumped the version
            stats = client.stats()
            assert stats["pulls"] == 3
            assert stats["refreshes"] == 2
            assert stats["pull_bytes"] == 0  # nothing serialized, ever

    def test_push_tolerates_missing_gradients(self):
        """The trainer omits params whose grad is None; the shm transport
        must skip them (like local does) instead of applying stale slots."""
        with ParameterServerGroup(
            num_servers=1, num_workers=1, optimizer="sgd", lr=1.0,
            mode="async", transport="shm",
        ) as group:
            group.initialize(small_state())
            client = group.client(0)
            before = group.pull()
            client.push({"layer.bias": np.ones(3, dtype=np.float32)})
            after = group.pull()
            np.testing.assert_array_equal(
                after["layer.weight"], before["layer.weight"]
            )
            np.testing.assert_array_equal(
                after["head.weight"], before["head.weight"]
            )
            assert np.abs(after["layer.bias"] - before["layer.bias"]).max() > 0
            with pytest.raises(KeyError):
                client.push({"not.a.param": np.ones(1, dtype=np.float32)})

    def test_client_picklable_before_attach(self):
        import pickle

        with ParameterServerGroup(
            num_servers=1, num_workers=1, transport="shm"
        ) as group:
            group.initialize(small_state())
            client = group.client(0)
            client.pull()
            state = client.__getstate__()
            assert state["_attached"] is False
            assert "_params" not in state
            # the control handles only pickle through Process inheritance,
            # so round-trip just the plain-data part
            plain = {k: v for k, v in state.items() if k not in ("_ctrl", "_ack")}
            assert pickle.loads(pickle.dumps(plain))["param_slab"] == client.param_slab

    def test_close_is_idempotent(self):
        group = ParameterServerGroup(num_workers=1, transport="shm")
        group.initialize(small_state())
        group.close()
        group.close()


class TestLocalPullCache:
    def test_pull_none_when_unchanged(self):
        group = ParameterServerGroup(num_servers=1, num_workers=1, lr=0.1)
        group.initialize(small_state())
        client = group.client(0)
        state = client.pull()
        assert state is not None
        assert client.pull() is None
        client.push({n: np.ones_like(v) for n, v in state.items()})
        assert client.pull() is not None
        assert client.stats()["pull_bytes"] > 0  # local copies are counted


class TestBSPEdgeCases:
    def test_finished_worker_excused_from_barrier(self):
        """Unequal shards: the surviving worker's barrier completes once the
        exhausted worker has drained (no deadlock, updates applied)."""
        group = ParameterServerGroup(
            num_servers=1, num_workers=2, optimizer="sgd", lr=1.0, mode="bsp"
        )
        group.initialize({"w": np.zeros(1, dtype=np.float32)})
        group.begin_epoch()
        done: list[str] = []

        def short():
            group.push(0, {"w": np.array([2.0], dtype=np.float32)})
            group.finish_worker(0)
            done.append("short")

        def long():
            group.push(1, {"w": np.array([4.0], dtype=np.float32)})
            group.push(1, {"w": np.array([6.0], dtype=np.float32)})
            group.finish_worker(1)
            done.append("long")

        threads = [threading.Thread(target=short), threading.Thread(target=long)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert done.count("short") == 1 and done.count("long") == 1
        # step 1 averages (2+4)/2 = 3 (velocity 3, w = -3); step 2 applies 6
        # alone with momentum 0.9: velocity 0.9*3 + 6 = 8.7, w = -11.7
        np.testing.assert_allclose(group.pull()["w"], [-11.7], rtol=1e-6)

    def test_begin_epoch_rearms_barrier(self):
        group = ParameterServerGroup(
            num_servers=1, num_workers=2, optimizer="sgd", lr=1.0, mode="bsp"
        )
        group.initialize({"w": np.zeros(1, dtype=np.float32)})
        group.begin_epoch()
        group.finish_worker(0)  # epoch 1: worker 0 exhausted immediately
        group.push(1, {"w": np.array([1.0], dtype=np.float32)})
        group.finish_worker(1)
        group.begin_epoch()  # epoch 2: both workers required again
        blocked = threading.Event()

        def pusher():
            blocked.set()
            group.push(1, {"w": np.array([1.0], dtype=np.float32)})

        t = threading.Thread(target=pusher)
        t.start()
        blocked.wait(timeout=5)
        time.sleep(0.1)
        assert t.is_alive(), "barrier should wait for worker 0 again"
        group.push(0, {"w": np.array([3.0], dtype=np.float32)})
        t.join(timeout=30)
        assert not t.is_alive()

    def test_shm_dead_worker_releases_barrier(self):
        """Hard process death mid-epoch: excusing the corpse releases the
        survivor's BSP barrier — the no-deadlock guarantee fit() relies on."""
        with ParameterServerGroup(
            num_servers=1, num_workers=2, optimizer="sgd", lr=0.1,
            mode="bsp", transport="shm",
        ) as group:
            group.initialize({"w": np.zeros(4, dtype=np.float32)})
            group.begin_epoch()
            ctx = mp_context()
            survivor = ctx.Process(
                target=_push_n_times, args=(group.client(0), 3)
            )
            corpse = ctx.Process(target=_push_once_then_die, args=(group.client(1),))
            survivor.start()
            corpse.start()
            corpse.join(timeout=60)
            assert corpse.exitcode == 17
            group._shm.mark_dead(1)
            survivor.join(timeout=60)
            assert survivor.exitcode == 0


def _push_n_times(client, steps):
    for _ in range(steps):
        client.pull()
        client.push({"w": np.ones(4, dtype=np.float32)})
    client.finish_epoch()


def _push_once_then_die(client):
    client.pull()
    client.push({"w": np.ones(4, dtype=np.float32)})
    os._exit(17)  # simulated hard crash: no drain, no goodbye


class TestSSPStalenessProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        num_workers=st.integers(min_value=2, max_value=4),
        staleness=st.integers(min_value=0, max_value=3),
        steps=st.integers(min_value=2, max_value=6),
        jitter_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_spread_never_exceeds_bound(self, num_workers, staleness, steps, jitter_seed):
        """After any applied push, the pushing worker is at most
        ``staleness + 1`` steps ahead of the slowest worker (the +1 is its
        own just-counted step)."""
        group = ParameterServerGroup(
            num_servers=1,
            num_workers=num_workers,
            optimizer="sgd",
            lr=0.01,
            mode="ssp",
            staleness=staleness,
        )
        group.initialize({"w": np.zeros(2, dtype=np.float32)})
        spreads: list[int] = []
        jitter = np.random.default_rng(jitter_seed).uniform(0, 2e-3, num_workers * steps)
        original_push = group._push_ssp

        def spying_push(worker_id, grads):
            original_push(worker_id, grads)
            with group._ssp_lock:
                spreads.append(
                    group._worker_steps[worker_id] - min(group._worker_steps)
                )

        group._push_ssp = spying_push

        def worker(w):
            for step in range(steps):
                time.sleep(float(jitter[w * steps + step]))
                group.push(w, {"w": np.ones(2, dtype=np.float32)})
            group.finish_worker(w)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(num_workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(spreads) == num_workers * steps
        assert max(spreads) <= staleness + 1


@pytest.fixture(scope="module")
def flat_small():
    from repro.datasets import cora_like

    ds = cora_like(seed=7, num_nodes=300, num_edges=900)
    config = GraphFlatConfig(hops=1, max_neighbors=20, hub_threshold=10**9)
    train = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
    val = graph_flat(ds.nodes, ds.edges, ds.val_ids[:30], config).samples
    return ds, train, val


def _factory(ds):
    return functools.partial(
        GCNModel, ds.feature_dim, 8, ds.num_classes, num_layers=1, seed=4
    )


class TestProcessWorkers:
    def test_bsp_bit_exact_threads_vs_processes(self, flat_small):
        """The acceptance bar: same seed + worker count => bit-identical
        loss trajectory and validation metric on both worker backends."""
        ds, train, val = flat_small
        histories = {}
        for backend in ("threads", "processes"):
            with DistributedTrainer(
                _factory(ds),
                TrainerConfig(batch_size=4, epochs=3, lr=0.02, seed=1),
                DistributedConfig(
                    num_workers=3, num_servers=2, mode="bsp", worker_backend=backend
                ),
            ) as trainer:
                histories[backend] = trainer.fit(train, val_samples=val)
        assert len(histories["threads"]) == len(histories["processes"]) == 3
        for a, b in zip(histories["threads"], histories["processes"]):
            assert a["loss"] == b["loss"]
            assert a["val_metric"] == b["val_metric"]

    def test_process_pulls_move_no_transport_bytes(self, flat_small):
        ds, train, _ = flat_small
        with DistributedTrainer(
            _factory(ds),
            TrainerConfig(batch_size=4, epochs=2, lr=0.02, seed=1),
            DistributedConfig(num_workers=2, mode="bsp", worker_backend="processes"),
        ) as trainer:
            trainer.fit(train)
            stats = trainer.pull_stats()
        assert stats["pulls"] > 0
        assert stats["refreshes"] > 0
        assert stats["pull_bytes"] == 0

    def test_async_converges_under_processes(self, flat_small):
        ds, train, _ = flat_small
        with DistributedTrainer(
            _factory(ds),
            TrainerConfig(batch_size=4, epochs=4, lr=0.02, seed=1),
            DistributedConfig(num_workers=2, mode="async", worker_backend="processes"),
        ) as trainer:
            history = trainer.fit(train)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_worker_exception_surfaces_without_deadlock(self, flat_small):
        """Every worker raising mid-epoch must surface as an error group
        (not hang the BSP barrier or report only the first failure)."""
        ds, train, _ = flat_small
        with DistributedTrainer(
            functools.partial(_ExplodingModel, ds.feature_dim, ds.num_classes),
            TrainerConfig(batch_size=4, epochs=1, lr=0.02, seed=1),
            DistributedConfig(num_workers=2, mode="bsp", worker_backend="processes"),
        ) as trainer:
            with pytest.raises((WorkerError, BaseExceptionGroup)) as excinfo:
                trainer.fit(train)
        errors = (
            excinfo.value.exceptions
            if isinstance(excinfo.value, BaseExceptionGroup)
            else [excinfo.value]
        )
        assert len(errors) == 2
        assert all("boom" in str(e) for e in errors)

    def test_processes_require_shm_transport(self):
        with pytest.raises(ValueError):
            DistributedConfig(worker_backend="processes", transport="local")

    def test_worker_config_isolated_per_worker(self, flat_small):
        """dataclasses.replace copies: worker seeds differ, the original
        TrainerConfig is untouched."""
        ds, _, _ = flat_small
        config = TrainerConfig(batch_size=4, epochs=1, seed=5)
        trainer = DistributedTrainer(
            _factory(ds), config, DistributedConfig(num_workers=3)
        )
        seeds = [w.config.seed for w in trainer.workers]
        assert seeds == [5, 1005, 2005]
        assert config.seed == 5
        assert all(w.config is not config for w in trainer.workers)


class TestThreadErrorSurfacing:
    def test_all_worker_errors_surface(self, flat_small):
        ds, train, _ = flat_small
        trainer = DistributedTrainer(
            lambda: _ExplodingModel(ds.feature_dim, ds.num_classes),
            TrainerConfig(batch_size=4, epochs=1, lr=0.02, seed=1),
            DistributedConfig(num_workers=3, mode="bsp", worker_backend="threads"),
        )
        with pytest.raises(BaseExceptionGroup) as excinfo:
            trainer.fit(train)
        assert len(excinfo.value.exceptions) == 3
        assert all("boom" in str(e) for e in excinfo.value.exceptions)


class _ExplodingModel(GCNModel):
    """Raises on every forward — a deterministic mid-epoch worker crash."""

    def __init__(self, in_dim, num_classes):
        super().__init__(in_dim, 8, num_classes, num_layers=1, seed=4)

    def forward(self, batch):
        raise RuntimeError("boom: injected worker failure")
