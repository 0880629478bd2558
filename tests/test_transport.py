"""Lifecycle and crash-robustness tests for ``repro.transport``.

The contract under test (ISSUE 8, extending the RPL101 lifecycle rule
to the extracted plumbing): shared-memory segments never outlive their
parent-side owner — not when a later allocation fails mid-export, not
when a later attach fails mid-loop, and not when a worker process dies
mid-chunk.  A broken pool must also heal: the next dispatch after a
:class:`BrokenProcessPool` gets a fresh pool, not the carcass.
"""

import gc
import os
from multiprocessing import shared_memory

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

import repro.transport as transport
from repro.graphs import parallel
from repro.graphs.generators import random_regular


def _double(x):
    return 2 * x


def _attach_and_die(spec):
    # Simulates a worker crashing mid-chunk: the shard arrays are
    # already mapped when the process dies without any cleanup path.
    parallel._attach(spec)
    os._exit(1)


def _segments_gone(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            # Attach-only probe: the expected failure proves the
            # segment was unlinked, so there is nothing to clean up.
            shared_memory.SharedMemory(name=name)  # repro-lint: disable=RPL101


class TestExportLifecycle:
    def test_failed_export_unlinks_earlier_segments(self, monkeypatch):
        created = []
        real = shared_memory.SharedMemory

        def spy(*args, **kwargs):
            # Cleanup-on-failure is owned by the SharedArrayExport under
            # test; the spy only records the created names.
            shm = real(*args, **kwargs)  # repro-lint: disable=RPL101
            created.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", spy)

        class Boom:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("allocation boom")

        with pytest.raises(RuntimeError, match="allocation boom"):
            transport.SharedArrayExport(
                {"good": np.arange(16, dtype=np.int64), "bad": Boom()}
            )
        assert created, "first segment should have been allocated"
        _segments_gone(created)

    def test_meta_keys_cannot_shadow_the_spec(self):
        with pytest.raises(ValueError, match="reserved"):
            transport.SharedArrayExport(
                {"a": np.arange(3)}, meta={"arrays": {}}
            )

    def test_close_is_idempotent(self):
        export = transport.SharedArrayExport({"a": np.arange(5)})
        names = [shm.name for shm in export.segments]
        export.close()
        export.close()
        _segments_gone(names)


class TestAttachLifecycle:
    def test_failed_attach_leaves_no_mapping_and_no_cache_entry(self):
        export = transport.SharedArrayExport(
            {"a": np.arange(8, dtype=np.int64), "b": np.ones(3)}
        )
        try:
            broken = dict(export.spec)
            arrays = dict(broken["arrays"])
            _name, dtype, shape = arrays["b"]
            arrays["b"] = ("psm_repro_no_such_segment", dtype, shape)
            broken["arrays"] = arrays
            with pytest.raises(FileNotFoundError):
                transport.attach_shared(broken, dict)
            assert broken["token"] not in transport._ATTACHED
            # The export is intact: a subsequent good attach succeeds.
            built = transport.attach_shared(export.spec, dict)
            assert np.array_equal(built["a"], np.arange(8))
        finally:
            entry = transport._ATTACHED.pop(export.spec["token"], None)
            if entry is not None:
                transport._detach(entry)
            export.close()

    def test_cache_evicts_least_recently_used(self):
        exports = [
            transport.SharedArrayExport({"a": np.full(4, i)})
            for i in range(transport.ATTACH_CACHE_SIZE + 1)
        ]
        try:
            tokens = [e.spec["token"] for e in exports]
            for e in exports:
                transport.attach_shared(e.spec, dict)
            assert tokens[0] not in transport._ATTACHED
            assert all(t in transport._ATTACHED for t in tokens[1:])
        finally:
            for e in exports:
                entry = transport._ATTACHED.pop(e.spec["token"], None)
                if entry is not None:
                    transport._detach(entry)
                e.close()


class TestCrashRecovery:
    def test_worker_death_breaks_then_heals_the_pool(self):
        csr = random_regular(60, 3, np.random.default_rng(0)).csr()
        spec = parallel.shared_spec(csr)
        with pytest.raises(BrokenProcessPool):
            transport.run_ordered(2, _attach_and_die, [(spec,), (spec,)])
        # The broken pool was evicted, so the next dispatch rebuilds a
        # fresh one instead of resubmitting into the carcass.
        assert 2 not in transport._POOLS
        assert transport.run_ordered(2, _double, [(1,), (21,)]) == [2, 42]

    def test_kernels_recover_after_a_worker_crash(self):
        csr = random_regular(60, 3, np.random.default_rng(1)).csr()
        serial = csr.all_ball_sizes(3, chunk_size=13)
        with pytest.raises(BrokenProcessPool):
            transport.run_ordered(
                2, _attach_and_die, [(parallel.shared_spec(csr),)]
            )
        sharded = csr.all_ball_sizes(3, chunk_size=13, kernel_workers=2)
        assert serial[0].tobytes() == sharded[0].tobytes()
        assert serial[1].tobytes() == sharded[1].tobytes()

    def test_crashed_worker_cannot_leak_parent_segments(self):
        # The worker attaches the graph's shared segments and dies
        # abruptly; ownership stays with the parent, whose finalizer
        # still unlinks every segment when the graph is released.
        csr = random_regular(60, 3, np.random.default_rng(2)).csr()
        spec = parallel.shared_spec(csr)
        names = [shm.name for shm in csr._shared.segments]
        with pytest.raises(BrokenProcessPool):
            transport.run_ordered(2, _attach_and_die, [(spec,)])
        del spec, csr
        gc.collect()
        _segments_gone(names)


class TestRunOrdered:
    def test_results_come_back_in_task_order(self):
        out = transport.run_ordered(2, _double, [(i,) for i in range(7)])
        assert out == [2 * i for i in range(7)]
