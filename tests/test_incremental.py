"""Tests for incremental evaluation: prefix-snapshot caching correctness
(every visited point evaluates the same with and without snapshots),
snapshot invalidation and clone isolation, runtime pipeline registration,
and the estimate cache's byte bound + JSONL compaction."""

import os

import pytest

from repro.dse.apply import (
    CLEANUP_PIPELINES,
    apply_design_point,
    install_cleanup_pipelines,
    kernel_pipeline_signature,
    register_cleanup_pipeline,
)
from repro.dse.incremental import PrefixSnapshotCache
from repro.dse.runtime import EstimateCache, SweepConfig
from repro.dse.space import KernelDesignPoint, ir_digest
from repro.estimation import XC7Z020
from repro.ir import print_op
from repro.ir.pass_manager import PassError
from repro.pipeline import explore_kernel, explore_module_kernels

from conftest import GEMM_SOURCE, compile_source

from test_dse_runtime import cache_counters
from test_transform_classes import assert_snapshots_invisible


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


POINT = KernelDesignPoint(loop_perfectization=True, remove_variable_bound=True,
                          perm_map=(1, 2, 0), tile_sizes=(4, 4, 4), target_ii=1)


class TestIncrementalEquivalence:
    def test_apply_design_point_matches_snapshot_path(self, gemm_module):
        snapshots = PrefixSnapshotCache()
        plain = apply_design_point(gemm_module, POINT, XC7Z020)
        for _ in range(2):  # second round hits the snapshot
            cached = apply_design_point(gemm_module, POINT, XC7Z020,
                                        snapshots=snapshots,
                                        digest=digest_of(gemm_module))
            assert print_op(cached.module, stable_ids=True) \
                == print_op(plain.module, stable_ids=True)
            assert cached.qor == plain.qor
        assert snapshots.hits == 1 and snapshots.misses == 1
        assert snapshots.clones == 2

    def test_every_visited_point_is_the_same_without_snapshots(self,
                                                               gemm_module):
        assert_snapshots_invisible(explore_kernel(
            gemm_module, XC7Z020, num_samples=6, max_iterations=8, seed=11,
            batch_size=4))


def digest_of(module, func_name=None):
    return ir_digest(module.function(func_name))


class TestPrefixSnapshotCache:
    def test_checkout_hits_per_prefix_key(self, gemm_module):
        cache = PrefixSnapshotCache()
        other = KernelDesignPoint(loop_perfectization=False,
                                  remove_variable_bound=True,
                                  perm_map=(0, 1, 2), tile_sizes=(1, 1, 1),
                                  target_ii=1)
        digest = digest_of(gemm_module)
        cache.checkout(gemm_module, POINT, digest=digest)
        # same prefix key -> hit
        cache.checkout(gemm_module, POINT, digest=digest)
        # lp0-rvb1 -> separate snapshot
        cache.checkout(gemm_module, other, digest=digest)
        assert (cache.hits, cache.misses, cache.clones) == (1, 2, 3)
        assert len(cache) == 2

    def test_clone_isolation(self, gemm_module):
        cache = PrefixSnapshotCache()
        digest = digest_of(gemm_module)
        first, func_op = cache.checkout(gemm_module, POINT, digest=digest)
        reference = print_op(first, stable_ids=True)
        # Vandalize the checked-out clone; the cached snapshot must not see it.
        func_op.set_attr("vandalized", True)
        func_op.regions[0].blocks[0].operations[0].erase()
        second, _ = cache.checkout(gemm_module, POINT, digest=digest)
        assert cache.hits == 1
        assert print_op(second, stable_ids=True) == reference

    def test_in_place_mutation_invalidates(self, gemm_module):
        # The caller that changes a kernel in place hands its new digest.
        cache = PrefixSnapshotCache()
        before = digest_of(gemm_module)
        cache.checkout(gemm_module, POINT, digest=before)
        gemm_module.functions()[0].set_attr("revision", 2)
        after = digest_of(gemm_module)
        assert after != before
        cache.checkout(gemm_module, POINT, digest=after)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_a_snapshot_needs_the_kernel_digest(self, gemm_module):
        with pytest.raises(ValueError, match="ir_digest"):
            apply_design_point(gemm_module, POINT, XC7Z020,
                               snapshots=PrefixSnapshotCache())


THREE_FUNCTIONS = """
void helper(float X[4]) {
  for (int i = 0; i < 4; i++) {
    X[i] = X[i] * 2.0;
  }
}
void caller(float X[4], float Y[4][4]) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      Y[i][j] = Y[i][j] + X[j];
    }
  }
}
void bystander(float Z[4][4]) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      Z[i][j] = Z[j][i];
    }
  }
}
"""


class TestSnapshotHoldsTheKernelAndItsCallees:
    """A snapshot of one kernel of a multi-kernel module holds that kernel
    and what it calls — the estimator resolves callees through the module —
    and nothing of its neighbours."""

    @pytest.fixture
    def module(self):
        from repro.dialects.func import CallOp

        module = compile_source(THREE_FUNCTIONS, "three")
        caller = module.lookup("caller")
        body = caller.region(0).front
        body.insert_before(body.operations[0],
                           CallOp("helper", [body.arguments[0]]))
        return module

    @staticmethod
    def names(module):
        return [func_op.get_attr("sym_name") for func_op in module.functions()]

    def test_checkout_keeps_callees_and_drops_neighbours(self, module):
        cache = PrefixSnapshotCache()
        point = KernelDesignPoint(False, False, (1, 0), (2, 2), 1)
        cloned, func_op = cache.checkout(
            module, point, func_name="caller",
            digest=digest_of(module, "caller"))
        assert self.names(cloned) == ["helper", "caller"]
        assert cloned.get_attr("sym_name") == "three"
        assert func_op is cloned.lookup("caller")
        cloned, _ = cache.checkout(module, point, func_name="bystander",
                                   digest=digest_of(module, "bystander"))
        assert self.names(cloned) == ["bystander"]
        assert self.names(module) == ["helper", "caller", "bystander"]

    def test_the_estimate_still_includes_the_callee(self, module):
        point = KernelDesignPoint(False, False, (1, 0), (2, 2), 2)
        plain = apply_design_point(module, point, XC7Z020, func_name="caller")
        cached = apply_design_point(module, point, XC7Z020, func_name="caller",
                                    snapshots=PrefixSnapshotCache(),
                                    digest=digest_of(module, "caller"))
        assert cached.qor == plain.qor
        assert print_op(cached.func_op, stable_ids=True) \
            == print_op(plain.func_op, stable_ids=True)
        module.lookup("helper").erase()
        assert apply_design_point(module, point, XC7Z020,
                                  func_name="caller").qor != plain.qor

    def test_every_visited_point_is_the_same_without_snapshots(self, module):
        results = explore_module_kernels(
            module, XC7Z020, func_names=["caller", "bystander"],
            num_samples=4, max_iterations=4, seed=3, batch_size=4)
        for name in ("caller", "bystander"):
            assert_snapshots_invisible(results[name])


class TestRuntimePipelineRegistration:
    def teardown_method(self):
        # Registration mutates global state; restore the built-in registry.
        install_cleanup_pipelines({
            name: spec for name, spec in CLEANUP_PIPELINES.items()
            if not name.startswith("test-")})

    def test_register_changes_signature(self):
        before = kernel_pipeline_signature()
        register_cleanup_pipeline("test-lean", "cse,canonicalize")
        after = kernel_pipeline_signature()
        assert before != after
        assert "test-lean=cse,canonicalize" in after

    def test_register_validates_spec_and_name(self):
        with pytest.raises(PassError):
            register_cleanup_pipeline("test-bogus", "no-such-pass")
        with pytest.raises(PassError):
            register_cleanup_pipeline("bad name", "canonicalize")
        with pytest.raises(PassError):
            register_cleanup_pipeline("", "canonicalize")
        assert "test-bogus" not in CLEANUP_PIPELINES

    def test_registered_pipeline_usable_by_a_point(self, gemm_module):
        register_cleanup_pipeline("test-lean", "cse,canonicalize")
        point = KernelDesignPoint(loop_perfectization=True,
                                  remove_variable_bound=True,
                                  perm_map=(0, 1, 2), tile_sizes=(2, 2, 2),
                                  target_ii=1, pipeline="test-lean")
        design = apply_design_point(gemm_module, point, XC7Z020)
        assert design.qor.latency > 0


class TestEstimateCacheCompaction:
    def _fill(self, path):
        return explore_kernel(
            compile_source(GEMM_SOURCE, "gemm"), XC7Z020, num_samples=6,
            max_iterations=8, seed=11, jobs=1, batch_size=4,
            cache=EstimateCache(path))

    def test_compaction_drops_superseded_and_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        self._fill(path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # Duplicate the first line at the tail (superseded) + corrupt noise.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines[0] + "\n")
            handle.write("not json at all\n")
        _, counts = cache_counters(lambda: EstimateCache(path))
        assert counts["compacted"] == 2
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read().splitlines() == lines

    def test_clean_file_not_rewritten(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        self._fill(path)
        stamp = os.stat(path).st_mtime_ns
        _, counts = cache_counters(lambda: EstimateCache(path))
        assert counts["compacted"] == 0
        assert os.stat(path).st_mtime_ns == stamp


# -- one post-prefix build per (kernel, prefix key) ---------------------------------------


PROGRAM_IDENTITY = os.path.join(os.path.dirname(__file__), "golden",
                                "program_identity.json")


def prefix_points(space):
    """One decoded point per prefix key of ``space``."""
    for lp in range(len(space.lp_options)):
        for rvb in range(len(space.rvb_options)):
            encoded = [0] * space.num_dimensions
            encoded[0], encoded[1] = lp, rvb
            yield space.decode(tuple(encoded))


class TestOnePostPrefixBuild:
    """Program identity and inline evaluation share one post-prefix snapshot
    per (kernel, prefix key): the coordinator builds it into the inline
    backend's cache, and every checkout is a hit."""

    def test_a_serial_model_sweep_builds_each_prefix_once(self, monkeypatch):
        from repro import obs
        from repro.dse import incremental
        from repro.estimation import VU9P_SLR
        from repro.pipeline import explore_dnn

        builds = {}
        build_prefix = incremental.build_prefix

        def counted(module, point, func_name=None):
            key = (id(module), func_name, point.prefix_key())
            builds[key] = builds.get(key, 0) + 1
            return build_prefix(module, point, func_name)

        monkeypatch.setattr(incremental, "build_prefix", counted)
        with obs.session() as session:
            explore_dnn("vgg16", VU9P_SLR, graph_level=7, jobs=1, seed=2022)
        counters = session.metrics.counters
        assert len(builds) == 28 and set(builds.values()) == {1}
        assert counters.get("dse.prefix.misses", 0) == 0
        assert counters["dse.prefix.hits"] == counters["dse.evaluations"]

    def test_a_pool_sweep_equals_the_serial_sweep(self):
        from repro.estimation import VU9P_SLR
        from repro.pipeline import explore_dnn

        serial, pooled = (explore_dnn("vgg16", VU9P_SLR, graph_level=7,
                                      jobs=jobs, seed=2022, max_nodes=8)
                          for jobs in (1, 2))
        assert pooled.frontier_json() == serial.frontier_json()
        assert {key: node.records for key, node in pooled.node_results.items()} \
            == {key: node.records for key, node in serial.node_results.items()}

    def test_program_identities_equal_the_frozen_post_prefix_bands(self):
        """Digest and band shape, built from scratch and into a cache, as
        the commit before the shared snapshot computed them."""
        import json

        from repro.dse.incremental import post_prefix_band
        from repro.dse.runtime.model import _staged_tasks
        from repro.dse.space import KernelDesignSpace
        from repro.frontend.models import build_model
        from repro.kernels import KERNEL_NAMES
        from repro.pipeline import compile_kernel

        with open(PROGRAM_IDENTITY, encoding="utf-8") as handle:
            frozen = json.load(handle)
        kernels = []
        for size in (4, 8):
            for name in KERNEL_NAMES:
                module = compile_kernel(name, size)
                kernels.append(("table3", f"{name}{size}", module, None,
                                KernelDesignSpace.from_function(module.functions()[0])))
        tasks, _, _ = _staged_tasks(build_model("vgg16"), 7, SweepConfig())
        kernels += [("vgg16", task.key, task.module, task.func_name, task.space)
                    for task in tasks if task.key in frozen["vgg16"]]
        assert len(kernels) == 12 + len(frozen["vgg16"]) == 40
        for group, key, module, func_name, space in kernels:
            snapshots = PrefixSnapshotCache()
            for point in prefix_points(space):
                expected = frozen[group][key][point.prefix_key()]
                for cache in (None, snapshots):
                    digest, shape = post_prefix_band(module, point, func_name,
                                                     cache, space.ir_digest)
                    assert [digest, [list(loop) for loop in shape]] == expected
                snapshots.checkout(module, point, func_name,
                                   digest=space.ir_digest)
            assert snapshots.misses == 0
