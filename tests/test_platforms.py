"""Tests for the declarative platform layer and platform-aware estimation.

Covers the platform config schema (loading, validation errors, hashing),
the widened resource checks (``ff`` / ``bram18k``), the bandwidth-aware and
ports-aware estimator behavior, and the multi-platform DSE sweeps
(per-platform frontiers byte-identical across worker counts and resumes,
cache rejection across differing platform hashes).
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro import obs
from repro.dse import KernelDesignSpace
from repro.dse.runtime import EstimateCache
from repro.estimation import (
    BUILTIN_PLATFORM_CONFIGS,
    PLATFORMS,
    QoREstimator,
    VU9P_SLR,
    XC7Z020,
    PlatformError,
    load_platform_config,
)
from repro.estimation.platform import Platform
from repro.estimation.resources import ResourceUsage
from repro.pipeline import explore_kernel

from conftest import GEMM_SOURCE, SYRK_SOURCE, compile_source


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


def frontier_signature(records):
    """Byte-comparable rendering of a frontier record list."""
    return repr([(record.encoded, record.qor.latency, record.qor.dsp,
                  record.point.platform)
                 for record in records])


def write_config(tmp_path, document, name="platforms.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


SMALL = {"name": "small", "memory_bits": 1_000_000, "dsp": 100, "lut": 20_000,
         "ff": 40_000, "bram18k": 60, "clock_mhz": 100.0}
BIG = {"name": "big", "memory_bits": 100_000_000, "dsp": 4000, "lut": 500_000,
       "ff": 1_000_000, "bram18k": 2000, "uram": 400, "clock_mhz": 250.0,
       "memory_ports_per_bank": 2,
       "offchip_bandwidth_bytes_per_cycle": 512.0}


class TestPlatformSchema:
    def test_builtin_catalog_is_validated_data(self):
        # Every bundled target round-trips through the schema validator.
        for config in BUILTIN_PLATFORM_CONFIGS:
            platform = Platform.from_dict(config)
            assert PLATFORMS[platform.name] == platform
            assert platform.to_dict() == Platform.from_dict(
                platform.to_dict()).to_dict()

    def test_paper_targets_present(self):
        assert PLATFORMS["xc7z020"] is XC7Z020
        assert PLATFORMS["vu9p-slr"] is VU9P_SLR
        # The paper targets predate the bandwidth model; their QoR must stay
        # bit-for-bit with the goldens, so the bound must be disabled.
        assert XC7Z020.offchip_bandwidth_bytes_per_cycle == 0
        assert VU9P_SLR.offchip_bandwidth_bytes_per_cycle == 0
        assert len(PLATFORMS) >= 5  # paper targets plus new bundled ones

    def test_unknown_field_rejected(self):
        with pytest.raises(PlatformError, match="unknown"):
            Platform.from_dict({**SMALL, "sram_kb": 64})

    def test_missing_required_field_rejected(self):
        config = dict(SMALL)
        del config["dsp"]
        with pytest.raises(PlatformError, match="dsp"):
            Platform.from_dict(config)

    def test_bad_type_rejected(self):
        with pytest.raises(PlatformError, match="lut"):
            Platform.from_dict({**SMALL, "lut": "lots"})
        with pytest.raises(PlatformError, match="dsp"):
            Platform.from_dict({**SMALL, "dsp": True})

    def test_negative_budget_rejected(self):
        with pytest.raises(PlatformError, match="dsp"):
            Platform.from_dict({**SMALL, "dsp": -1})
        with pytest.raises(PlatformError, match="memory_ports_per_bank"):
            Platform.from_dict({**SMALL, "memory_ports_per_bank": 0})

    def test_config_hash_stable_and_sensitive(self):
        first = Platform.from_dict(SMALL)
        second = Platform.from_dict(dict(SMALL))
        assert first.config_hash() == second.config_hash()
        changed = Platform.from_dict({**SMALL, "dsp": 101})
        assert changed.config_hash() != first.config_hash()
        renamed = Platform.from_dict({**SMALL, "name": "other"})
        assert renamed.config_hash() != first.config_hash()

    @staticmethod
    def computed_hash(platform):
        payload = json.dumps(platform.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @pytest.mark.parametrize("config", [SMALL, BIG] + list(
        BUILTIN_PLATFORM_CONFIGS))
    def test_a_memoised_hash_is_the_computed_one(self, config, monkeypatch):
        platform = Platform.from_dict(config)
        assert platform.config_hash() == self.computed_hash(platform)
        encodes = []
        to_dict = Platform.to_dict
        monkeypatch.setattr(Platform, "to_dict",
                            lambda self: encodes.append(self) or to_dict(self))
        assert platform.config_hash() == self.computed_hash(platform)
        assert len(encodes) == 1  # the computation above, not the memo
        assert platform == Platform.from_dict(config)

    def test_a_replaced_platform_hashes_its_own_fields(self):
        platform = Platform.from_dict(SMALL)
        platform.config_hash()
        faster = dataclasses.replace(platform, clock_mhz=150.0)
        assert faster.config_hash() == self.computed_hash(faster) \
            != platform.config_hash()

    @pytest.mark.parametrize("hashed_first", [True, False])
    def test_the_hash_survives_pickling(self, hashed_first):
        platform = Platform.from_dict(BIG)
        if hashed_first:
            platform.config_hash()
        revived = pickle.loads(pickle.dumps(platform))
        assert revived == platform
        assert revived.config_hash() == self.computed_hash(platform) \
            == platform.config_hash()


class TestPlatformConfigFiles:
    def test_load_platforms_document(self, tmp_path):
        path = write_config(tmp_path, {"platforms": [SMALL, BIG]})
        platforms = load_platform_config(path)
        assert [platform.name for platform in platforms] == ["small", "big"]
        assert platforms[1].memory_ports_per_bank == 2

    def test_load_single_mapping_and_list(self, tmp_path):
        single = load_platform_config(write_config(tmp_path, SMALL, "s.json"))
        assert [platform.name for platform in single] == ["small"]
        listed = load_platform_config(
            write_config(tmp_path, [SMALL, BIG], "l.json"))
        assert [platform.name for platform in listed] == ["small", "big"]

    def test_missing_file_is_platform_error(self, tmp_path):
        with pytest.raises(PlatformError, match="cannot read"):
            load_platform_config(str(tmp_path / "absent.json"))

    def test_invalid_json_is_platform_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PlatformError):
            load_platform_config(str(path))

    def test_duplicate_names_rejected(self, tmp_path):
        path = write_config(tmp_path, [SMALL, SMALL], "dup.json")
        with pytest.raises(PlatformError, match="duplicate"):
            load_platform_config(path)

    def test_entry_errors_name_the_offender(self, tmp_path):
        path = write_config(tmp_path, [SMALL, {"name": "broken"}], "e.json")
        with pytest.raises(PlatformError, match="platform #2"):
            load_platform_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"platforms": [SMALL], "version": 1})
        with pytest.raises(PlatformError, match="version"):
            load_platform_config(path)

    def test_yaml_requires_pyyaml_or_parses(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text("name: y\nmemory_bits: 1000\ndsp: 1\nlut: 1\n",
                        encoding="utf-8")
        try:
            import yaml  # noqa: F401
        except ImportError:
            with pytest.raises(PlatformError, match="PyYAML"):
                load_platform_config(str(path))
        else:
            assert load_platform_config(str(path))[0].name == "y"


class TestResourceChecks:
    def test_ff_and_bram_enforced(self):
        platform = Platform.from_dict(SMALL)
        fits = ResourceUsage(dsp=1, lut=1, ff=1, bram18k=1)
        assert platform.fits(fits)
        assert not platform.fits(dataclasses.replace(fits, ff=40_001))
        assert not platform.fits(dataclasses.replace(fits, bram18k=61))

    def test_zero_budgets_skip_the_check(self):
        # Hand-built platforms without ff/bram budgets keep the old behavior.
        platform = Platform("legacy", 1_000_000, 100, 20_000)
        assert platform.fits(ResourceUsage(dsp=1, lut=1, ff=10**9,
                                           bram18k=10**9))

    def test_uram_extends_the_block_budget(self):
        # The resource model counts every buffer in BRAM18K blocks; a part
        # with URAM holds 16 BRAM18K equivalents per URAM, so designs the
        # memory_bits budget was sized for must not fail the block check.
        without_uram = Platform.from_dict(SMALL)
        with_uram = Platform.from_dict({**SMALL, "uram": 10})
        assert with_uram.memory_blocks() == without_uram.memory_blocks() + 160
        usage = ResourceUsage(dsp=1, lut=1, bram18k=200)
        assert not without_uram.fits(usage)
        assert with_uram.fits(usage)

    def test_infinite_memory_margin_ignores_bram_too(self):
        # engine.py finalization passes memory_margin=inf to mean "ignore
        # memory"; that must cover bram18k as well as memory_bits.
        platform = Platform.from_dict(SMALL)
        usage = ResourceUsage(dsp=1, lut=1, memory_bits=10**9, bram18k=10**6)
        assert platform.fits(usage, memory_margin=float("inf"))

    def test_utilization_reports_all_budgets(self):
        platform = Platform.from_dict(SMALL)
        usage = ResourceUsage(dsp=50, lut=10_000, ff=20_000,
                              memory_bits=500_000, bram18k=30)
        utilization = platform.utilization(usage)
        assert utilization["dsp"] == pytest.approx(0.5)
        assert utilization["ff"] == pytest.approx(0.5)
        assert utilization["bram18k"] == pytest.approx(0.5)
        assert utilization["memory"] == pytest.approx(0.5)


class TestEstimatorPlatformAwareness:
    def test_scf_if_branches_overlap(self):
        from repro.dialects import arith, scf
        from repro.ir import Block, f32

        def build(with_else):
            block = Block()
            c = block.append(arith.ConstantOp(1.0, f32))
            flag = block.append(arith.CmpIOp("eq", c.result(), c.result()))
            if_op = block.append(scf.SCFIfOp(flag.result(),
                                             with_else=with_else))
            a = if_op.then_block.append(arith.AddFOp(c.result(), c.result()))
            if_op.then_block.append(arith.MulFOp(a.result(), a.result()))
            if with_else:
                if_op.else_block.append(arith.AddFOp(c.result(), c.result()))
            return block

        estimator = QoREstimator(XC7Z020)
        then_only, _ = estimator._estimate_block(build(with_else=False))
        both, _ = estimator._estimate_block(build(with_else=True))
        # Only one branch executes: a shorter else under a longer then must
        # not add to the latency (max of branches, not their sum).
        assert both == then_only

    def test_bandwidth_bound_raises_interval(self, gemm_module):
        func_op = gemm_module.functions()[0]
        unbound = QoREstimator(VU9P_SLR).estimate_function(func_op)
        starved_platform = dataclasses.replace(
            VU9P_SLR, offchip_bandwidth_bytes_per_cycle=0.001)
        starved = QoREstimator(starved_platform).estimate_function(func_op)
        assert starved.interval > unbound.interval
        assert starved.latency >= starved.interval
        # Ample bandwidth leaves the compute-bound estimate untouched.
        ample_platform = dataclasses.replace(
            VU9P_SLR, offchip_bandwidth_bytes_per_cycle=1e9)
        ample = QoREstimator(ample_platform).estimate_function(func_op)
        assert ample.latency == unbound.latency

    def test_more_memory_ports_never_hurt(self):
        from test_estimation import optimized_gemm

        _, func_op = optimized_gemm([1, 1, 2], target_ii=1)
        one_port = QoREstimator(XC7Z020).estimate_function(func_op)
        two_ports = QoREstimator(dataclasses.replace(
            XC7Z020, memory_ports_per_bank=2)).estimate_function(func_op)
        assert two_ports.latency <= one_port.latency

    def test_variable_bound_fallback_counter(self):
        class HostileLoop:
            def has_constant_lower_bound(self):
                raise AttributeError("not a real loop")

        with obs.session() as session:
            extent = QoREstimator(XC7Z020)._variable_bound_extent(HostileLoop())
        assert extent == 1
        assert session.metrics.counters[
            "estimate.variable_bound_fallbacks"] == 1

    def test_syrk_triangular_bound_needs_no_fallback(self):
        module = compile_source(SYRK_SOURCE, "syrk")
        with obs.session() as session:
            QoREstimator(XC7Z020).estimate_function(module.functions()[0])
        assert "estimate.variable_bound_fallbacks" \
            not in session.metrics.counters


def platform_sweep(module, platforms, **overrides):
    config = dict(platforms=platforms, num_samples=6, max_iterations=8,
                  seed=11, jobs=1, batch_size=4)
    config.update(overrides)
    return explore_kernel(module, platforms[0], **config)


class TestMultiPlatformSweeps:
    def test_platform_dimension_only_when_requested(self, gemm_module):
        func_op = gemm_module.functions()[0]
        plain = KernelDesignSpace.from_function(func_op)
        swept = KernelDesignSpace.from_function(
            func_op, platforms=[XC7Z020, VU9P_SLR])
        assert plain.platform_options == []
        assert swept.platform_options == ["xc7z020", "vu9p-slr"]
        assert swept.num_dimensions == plain.num_dimensions + 1
        assert plain.fingerprint() != swept.fingerprint()

    def test_fingerprint_tracks_platform_config(self, gemm_module):
        func_op = gemm_module.functions()[0]
        tweaked = dataclasses.replace(
            VU9P_SLR, offchip_bandwidth_bytes_per_cycle=64.0)
        first = KernelDesignSpace.from_function(
            func_op, platforms=[XC7Z020, VU9P_SLR])
        second = KernelDesignSpace.from_function(
            func_op, platforms=[XC7Z020, tweaked])
        assert first.fingerprint() != second.fingerprint()

    def test_sweep_covers_every_platform(self, gemm_module):
        result = platform_sweep(gemm_module, [XC7Z020, VU9P_SLR])
        assert result.platform_names() == ["xc7z020", "vu9p-slr"]
        for name in result.platform_names():
            assert result.frontier_records_for(name), name
            assert all(record.point.platform == name
                       for record in result.frontier_records_for(name))
            best = result.best_record_for(name)
            assert best is not None and best.point.platform == name

    def test_jobs_do_not_change_per_platform_frontiers(self, gemm_module):
        platforms = [XC7Z020, VU9P_SLR]
        serial = platform_sweep(gemm_module, platforms)
        threaded = platform_sweep(compile_source(GEMM_SOURCE, "gemm"),
                                  platforms, jobs=2)
        for name in serial.platform_names():
            assert frontier_signature(serial.frontier_records_for(name)) \
                == frontier_signature(threaded.frontier_records_for(name))

    def test_resume_reproduces_per_platform_frontiers(self, gemm_module,
                                                      tmp_path):
        platforms = [XC7Z020, VU9P_SLR]
        checkpoint = str(tmp_path / "ckpt")
        full = platform_sweep(gemm_module, platforms,
                              checkpoint_dir=checkpoint)
        resumed = platform_sweep(compile_source(GEMM_SOURCE, "gemm"),
                                 platforms, checkpoint_dir=checkpoint)
        assert resumed.evaluated_this_run == 0
        for name in full.platform_names():
            assert frontier_signature(full.frontier_records_for(name)) \
                == frontier_signature(resumed.frontier_records_for(name))

    def test_records_carry_platform_hash(self, gemm_module):
        result = platform_sweep(gemm_module, [XC7Z020, VU9P_SLR])
        hashes = {XC7Z020.name: XC7Z020.config_hash(),
                  VU9P_SLR.name: VU9P_SLR.config_hash()}
        for record in result.records.values():
            assert record.platform_hash == hashes[record.point.platform]

    def test_cache_rejected_across_platform_hashes(self, gemm_module,
                                                   tmp_path):
        def sweep(module, platform):
            cache = EstimateCache(str(tmp_path / "estimates.jsonl"))
            try:
                return explore_kernel(module, platform, num_samples=6,
                                      max_iterations=8, seed=11, batch_size=4,
                                      cache=cache)
            finally:
                cache.close()

        warm = sweep(gemm_module, XC7Z020)
        assert warm.cache_misses > 0
        replay = sweep(compile_source(GEMM_SOURCE, "gemm"), XC7Z020)
        assert replay.cache_hits == replay.num_evaluations
        # The same sweep against a tweaked platform fingerprints differently:
        # every stale entry is rejected, nothing is served across hashes.
        tweaked = dataclasses.replace(XC7Z020, memory_ports_per_bank=2)
        cross = sweep(compile_source(GEMM_SOURCE, "gemm"), tweaked)
        assert cross.cache_hits == 0


class TestTheSweepPlatformAnswers:
    """A multi-platform sweep returns designs built for its own platform —
    the first of ``platforms`` on the command line — at every tier: the
    kernel's best record and the design kept for it, and the model
    frontier with its selected point.  Every platform still gets its own
    frontier and finalized design."""

    @pytest.mark.parametrize("seed", [2022, 7, 11])
    def test_the_kernel_best_is_the_sweep_platforms(self, seed):
        result = explore_kernel(compile_source(GEMM_SOURCE, "gemm"), XC7Z020,
                                platforms=[XC7Z020, VU9P_SLR], seed=seed,
                                jobs=1)
        assert result.best_record == result.best_record_for("xc7z020")
        kept = result.kept_design
        assert kept is not None and kept.point.platform == "xc7z020"
        assert result.best_design().point.platform == "xc7z020"

    @pytest.mark.parametrize("budget", [
        dict(max_nodes=3, num_samples=3, max_iterations=4, seed=2022),
        dict(max_nodes=6, num_samples=3, max_iterations=4, seed=1)],
        ids=["smoke", "six-nodes"])
    def test_the_model_frontier_is_the_sweep_platforms(self, budget):
        from repro.pipeline import explore_dnn

        result = explore_dnn("vgg16", XC7Z020, graph_level=7, jobs=1,
                             platforms=[XC7Z020, VU9P_SLR], **budget)
        assert result.frontier == result.platform_frontiers["xc7z020"]
        best = result.best_point()
        for point in [*result.frontier, best]:
            assert [result.node_results[name].space.decode(encoded).platform
                    for name, encoded in point.choices] \
                == ["xc7z020"] * len(result.node_order)

    def test_the_sweep_platform_must_be_swept(self, gemm_module):
        with pytest.raises(ValueError, match="'vu9p-slr' is not one of the "
                                             "swept platforms"):
            explore_kernel(gemm_module, VU9P_SLR, platforms=[XC7Z020],
                           num_samples=2, max_iterations=0)
