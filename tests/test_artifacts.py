"""Tests for the persistent artifact store (repro.artifacts).

Three contracts: fingerprints are canonical (container order, dict
order and float identity cannot change a digest), the on-disk store is
durable (corruption and truncation heal to a rebuild, never to silent
wrong data), and the two-tier cache meters every access.
"""

import hashlib
import json
import multiprocessing

import numpy as np
import pytest

from repro.artifacts import (
    Artifact,
    ArtifactCache,
    ArtifactStore,
    SolveCache,
    artifact_digest,
    decode_decomposition,
    decode_solution,
    decode_sparse_cover,
    encode_decomposition,
    encode_solution,
    encode_sparse_cover,
    fingerprint,
    graph_fingerprint,
)
from repro.graphs import cycle_graph


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint(1, "a", 2.5) == fingerprint(1, "a", 2.5)

    def test_type_tagged(self):
        # 1, 1.0 and True hash equal under ==; fingerprints must not.
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint(True)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(b"1") != fingerprint("1")

    def test_dict_order_invariant(self):
        a = {"x": 1, "y": [2, 3], "z": {"k": 4.5}}
        b = {"z": {"k": 4.5}, "y": [2, 3], "x": 1}
        assert fingerprint(a) == fingerprint(b)

    def test_set_order_invariant(self):
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})
        assert fingerprint(frozenset({"b", "a"})) == fingerprint(
            frozenset({"a", "b"})
        )

    def test_mixed_type_set(self):
        # Canonicalization sorts element digests, so incomparable
        # element types are fine.
        assert fingerprint({1, "a"}) == fingerprint({"a", 1})

    def test_list_order_matters(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_nesting_is_unambiguous(self):
        assert fingerprint([1, [2]]) != fingerprint([[1], 2])
        assert fingerprint(["ab"]) != fingerprint(["a", "b"])

    def test_float_exact_bits(self):
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)
        assert fingerprint(-0.0) != fingerprint(0.0)

    def test_ndarray_dtype_and_shape(self):
        a = np.arange(6, dtype=np.int64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.astype(np.int32))
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_graph_fingerprint_identity(self):
        g = cycle_graph(30)
        assert graph_fingerprint(g) == graph_fingerprint(cycle_graph(30))
        assert graph_fingerprint(g) != graph_fingerprint(cycle_graph(31))

    def test_artifact_digest_includes_code_version(self):
        a = artifact_digest("kind", 1, code_version="v1")
        b = artifact_digest("kind", 1, code_version="v2")
        assert a != b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")


def _make_arrays():
    return {
        "labels": np.arange(50, dtype=np.int64) % 7 - 1,
        "weights": np.linspace(0.0, 1.0, 13),
    }


def _digest_for(tag: str) -> str:
    return hashlib.sha256(tag.encode("utf-8")).hexdigest()


class TestArtifactStore:
    def test_round_trip_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = _make_arrays()
        digest = _digest_for("rt")
        store.put(digest, arrays, meta={"kind": "test", "n": 50})
        for mmap in (True, False):
            art = store.load(digest, mmap=mmap)
            assert art is not None
            assert art.meta["kind"] == "test"
            for name, arr in arrays.items():
                got = np.asarray(art.arrays[name])
                assert got.dtype == arr.dtype
                assert got.shape == arr.shape
                assert got.tobytes() == arr.tobytes()

    def test_missing_digest_loads_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load(_digest_for("absent")) is None

    def test_payload_corruption_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = _digest_for("corrupt")
        store.put(digest, _make_arrays(), meta={"kind": "test"})
        path = store.path_for(digest)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.load(digest) is None
        assert not path.exists()
        assert path.with_suffix(path.suffix + ".corrupt").exists()
        # The store heals: a fresh put of the same digest works again.
        store.put(digest, _make_arrays(), meta={"kind": "test"})
        assert store.load(digest) is not None

    def test_truncated_file_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = _digest_for("trunc")
        store.put(digest, _make_arrays(), meta={"kind": "test"})
        path = store.path_for(digest)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load(digest) is None
        assert not path.exists()

    def test_garbage_header_quarantines(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = _digest_for("garbage")
        store.put(digest, _make_arrays(), meta={"kind": "test"})
        store.path_for(digest).write_bytes(b"not an artifact at all")
        assert store.load(digest) is None

    def test_wrong_digest_content_rejected(self, tmp_path):
        # A file stored under digest A whose header claims digest B is
        # treated as corrupt, not served.
        store = ArtifactStore(tmp_path)
        a, b = _digest_for("a"), _digest_for("b")
        store.put(a, _make_arrays(), meta={"kind": "test"})
        target = store.path_for(b)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(store.path_for(a).read_bytes())
        assert store.load(b) is None
        assert store.load(a) is not None

    def test_index_survives_torn_line(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in ("i1", "i2"):
            store.put(_digest_for(tag), _make_arrays(), meta={"kind": "t"})
        index = tmp_path / "index.jsonl"
        with index.open("a", encoding="utf-8") as fh:
            fh.write('{"digest": "tor')  # torn write, no newline
        rows = store.index_rows()
        assert len(rows) == 2
        # Appends after the torn line still parse.
        store.put(_digest_for("i3"), _make_arrays(), meta={"kind": "t"})
        assert len(store.index_rows()) == 3

    def test_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_digest_for("s1"), _make_arrays(), meta={"kind": "deco"})
        store.put(_digest_for("s2"), _make_arrays(), meta={"kind": "sol"})
        stats = store.stats()
        assert stats["artifacts"] == 2
        assert set(stats["by_kind"]) == {"deco", "sol"}
        assert stats["file_bytes"] > 0
        assert stats["quarantined"] == 0

    def test_concurrent_readers(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = _digest_for("conc")
        arrays = _make_arrays()
        store.put(digest, arrays, meta={"kind": "test"})
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            results = pool.starmap(
                _read_worker, [(str(tmp_path), digest)] * 4
            )
        expected = arrays["labels"].tobytes()
        assert all(r == expected for r in results)


def _read_worker(root, digest):
    from repro.artifacts import ArtifactStore

    art = ArtifactStore(root).load(digest)
    assert art is not None
    return np.asarray(art.arrays["labels"]).tobytes()


class TestArtifactCache:
    def test_build_then_hit_then_load(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = ArtifactCache(store)
        digest = _digest_for("c1")
        calls = []

        def build():
            calls.append(1)
            return _make_arrays(), {"kind": "test"}

        first = cache.get_or_build(digest, build)
        assert calls == [1]
        assert cache.builds == 1 and cache.misses == 1
        again = cache.get_or_build(digest, build)
        assert calls == [1], "second access must hit L1"
        assert cache.hits == 1
        assert again is first
        # Fresh cache over the same store: L2 load, no rebuild.
        warm = ArtifactCache(store)
        loaded = warm.get_or_build(digest, build)
        assert calls == [1]
        assert warm.loads == 1 and warm.builds == 0
        assert np.asarray(loaded.arrays["labels"]).tobytes() == np.asarray(
            first.arrays["labels"]
        ).tobytes()

    def test_hit_rate(self, tmp_path):
        cache = ArtifactCache(ArtifactStore(tmp_path))
        digest = _digest_for("c2")
        cache.get_or_build(digest, lambda: (_make_arrays(), {"kind": "t"}))
        for _ in range(3):
            cache.get(digest)
        assert cache.accesses == 4
        assert cache.hit_rate() == pytest.approx(3 / 4)

    def test_memory_only_cache(self):
        cache = ArtifactCache(store=None)
        digest = _digest_for("c3")
        art = cache.get_or_build(
            digest, lambda: (_make_arrays(), {"kind": "t"})
        )
        assert isinstance(art, Artifact)
        assert cache.get(digest) is art


class TestSolveCacheShim:
    def test_reexport_is_same_class(self):
        from repro.artifacts.cache import SolveCache as moved
        from repro.ilp import SolveCache as pkg

        assert pkg is moved
        assert SolveCache is moved

    def test_semantics_unchanged(self):
        cache = SolveCache()
        assert cache.lookup(("k",)) is None
        cache.store(("k",), "value")
        assert cache.misses == 1
        assert cache.lookup(("k",)) == "value"
        assert cache.hits == 1
        assert len(cache) == 1


class TestCodecs:
    def _decomposition(self):
        from repro.core import LddParams, chang_li_ldd

        g = cycle_graph(300)
        params = LddParams.practical(0.2, g.n, r_scale=1.0)
        return g, chang_li_ldd(g, params, seed=3)

    def test_decomposition_round_trip(self):
        g, dec = self._decomposition()
        arrays, meta = encode_decomposition(dec, g.n)
        art = Artifact(digest="0" * 64, meta=meta, arrays=arrays)
        back = decode_decomposition(art)
        assert back.clusters == dec.clusters
        assert back.deleted == dec.deleted

    def test_labels_are_flat_int64(self):
        g, dec = self._decomposition()
        arrays, meta = encode_decomposition(dec, g.n)
        labels = arrays["labels"]
        assert labels.dtype == np.int64 and labels.shape == (g.n,)
        assert meta["num_clusters"] == len(dec.clusters)
        assert int((labels == -1).sum()) == len(dec.deleted)

    def test_sparse_cover_round_trip(self):
        from repro.decomp.types import SparseCover

        cover = SparseCover(
            clusters=[{0, 1, 2}, {2, 5, 6}, {3}], centers=[0, 5, None]
        )
        arrays, meta = encode_sparse_cover(cover, n=8)
        art = Artifact(digest="0" * 64, meta=meta, arrays=arrays)
        back = decode_sparse_cover(art)
        assert back.clusters == cover.clusters
        assert back.centers == cover.centers

    def test_solution_round_trip(self):
        from repro.ilp.exact import ExactSolution

        sol = ExactSolution(weight=2.75, chosen=frozenset({3, 1, 2}))
        arrays, meta = encode_solution(sol)
        art = Artifact(digest="0" * 64, meta=meta, arrays=arrays)
        back = decode_solution(art)
        assert back.chosen == frozenset({1, 2, 3})
        assert back.weight == 2.75

    def test_weight_stays_binary(self):
        # The weight round-trips through a float64 array, never through
        # a decimal string.
        from repro.ilp.exact import ExactSolution

        weight = 0.1 + 0.2  # not representable as a short decimal
        sol = ExactSolution(weight=weight, chosen=frozenset({0}))
        arrays, meta = encode_solution(sol)
        assert arrays["weight"].dtype == np.float64
        art = Artifact(digest="0" * 64, meta=meta, arrays=arrays)
        assert decode_solution(art).weight == weight


class TestObsMetering:
    def test_counters_flow_through_obs(self, tmp_path):
        from repro import obs

        with obs.collect() as col:
            cache = ArtifactCache(ArtifactStore(tmp_path))
            digest = _digest_for("obs")
            cache.get_or_build(
                digest, lambda: (_make_arrays(), {"kind": "t"})
            )
            cache.get(digest)
        counters = col.counter_table()
        assert counters.get("artifacts.build", 0) >= 1
        assert counters.get("artifacts.hit", 0) >= 1


class TestCli:
    def test_stats_command(self, tmp_path, capsys):
        from repro.artifacts.__main__ import main

        store = ArtifactStore(tmp_path)
        store.put(_digest_for("cli"), _make_arrays(), meta={"kind": "t"})
        main(["stats", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert out["artifacts"] == 1
