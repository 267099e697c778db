"""Design space construction for computation kernels.

Each dimension of the multi-dimensional design space corresponds to the
on/off switch or a tunable parameter of a transform pass (Tab. II):

* loop perfectization on/off,
* variable-bound removal on/off,
* the loop permutation of the band,
* one tile size per band loop (powers of two dividing the trip count),
* the pipeline target II,
* only with more than one registered, the named cleanup pipeline run after
  the design point (:data:`repro.dse.apply.CLEANUP_PIPELINES`; cleanups are
  decided, not explored),
* only when a sweep names platforms, the target platform (a categorical
  dimension over a sweep's :class:`~repro.estimation.platform.Platform`
  list — one exploration covering design points × hardware targets).

A dimension nobody asked for is *absent*, not a one-option dimension: that
one would still consume RNG entropy in :meth:`KernelDesignSpace.random_point`
and lengthen every encoded tuple.

A design point is encoded as a tuple of indices into the per-dimension
option lists, which makes "closest neighbor" proposals (Step 2 of the DSE
algorithm) a matter of bumping one index by one.

A space describes one loop nest of its kernel, the one every tier acts on:
:func:`repro.transforms.composite.design_nest`.  The permutation and tile
dimensions are sized on that nest's band *as written*; an evaluation permutes
and tiles the *perfect* band left after the prefix, and
:func:`repro.transforms.composite.plan_design_point` decides which knobs that
band takes (README "Program identity"; ``dse.knob.skipped.*`` count the rest).
A space always carries its kernel's :func:`ir_digest`, so its
:meth:`~KernelDesignSpace.fingerprint` names the kernel as well as the space.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from typing import Optional, Sequence

from repro.dialects.affine_ops import AffineForOp, loop_band_from
from repro.ir.operation import Operation
from repro.transforms.composite import design_nest


#: Attributes that only *label* an operation and are left out of a kernel's
#: identity wherever they occur.  ``dataflow_stage`` is read by the graph-level
#: passes alone (``legalize-dataflow``, ``split-function``), which run before a
#: node becomes a kernel; ``buffer_name`` names an allocation for the C++
#: emitter and for caller-pinned partition factors, neither of which a
#: design-point evaluation uses; ``layer_name`` is its graph-level twin.  No
#: transform of the evaluation pipeline and no part of the estimator reads any
#: of them, so two kernels that differ only in them evaluate to equal records
#: at every design point.  Adding a label means extending this set *and* the
#: perturbation test in ``tests/test_kernel_identity.py`` that proves it.
LABEL_ATTRS = frozenset({"dataflow_stage", "buffer_name", "layer_name"})

#: Labels elided on the digested function itself only: its own symbol name.
#: A callee name inside the body (``func.call``'s ``callee``) selects which
#: code runs and stays hashed.
ROOT_LABEL_ATTRS = frozenset({"sym_name"})


def ir_digest(func_op: Operation) -> str:
    """Stable *structural* digest of a function's IR.

    The single definition of the digest recipe: both
    :meth:`KernelDesignSpace.from_function` and the DSE runtime's
    cache/checkpoint fingerprinting rely on it producing identical values
    for structurally identical IR across processes and sessions.  The
    printed function is hashed with the declared label attributes
    (:data:`LABEL_ATTRS`, :data:`ROOT_LABEL_ATTRS`) elided, so the repeated
    layers of a DNN — identical but for their names — share one identity
    and with it their cached estimates.
    """
    from repro.ir.printer import print_op

    text = print_op(func_op, stable_ids=True, elide_attrs=LABEL_ATTRS,
                    elide_root_attrs=ROOT_LABEL_ATTRS)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class KernelDesignPoint:
    """Decoded transform parameters for one kernel design."""

    loop_perfectization: bool
    remove_variable_bound: bool
    perm_map: tuple[int, ...]
    tile_sizes: tuple[int, ...]
    target_ii: int
    #: Name of the cleanup pipeline run after the design point (a key of
    #: :data:`repro.dse.apply.CLEANUP_PIPELINES`).
    pipeline: str = "default"
    #: Name of the target platform this point is evaluated against, or ""
    #: when the sweep has a single (implicit) platform.
    platform: str = ""

    def prefix_key(self) -> str:
        """Key of the evaluation *prefix* this point shares with others.

        The prefix of an evaluation — canonicalization plus the two boolean
        structural knobs — is a pure function of this key, which is what the
        incremental evaluator's snapshot cache is keyed on (together with the
        kernel IR digest; see :mod:`repro.dse.incremental`).
        """
        return (f"lp{int(self.loop_perfectization)}"
                f"-rvb{int(self.remove_variable_bound)}")

    def describe(self) -> str:
        text = (f"LP={'yes' if self.loop_perfectization else 'no'} "
                f"RVB={'yes' if self.remove_variable_bound else 'no'} "
                f"perm={list(self.perm_map)} tiles={list(self.tile_sizes)} "
                f"II={self.target_ii} pipe={self.pipeline}")
        if self.platform:
            text += f" plat={self.platform}"
        return text


class KernelDesignSpace:
    """The per-kernel design space, encoded dimension by dimension."""

    #: Upper bound on the product of tile sizes: this is the unroll factor of
    #: the pipelined body, so it directly bounds how large the IR (and the
    #: resource usage) can grow.
    MAX_UNROLL_PRODUCT = 128
    #: Largest tile size offered for one loop.
    MAX_TILE = 16
    #: Target IIs offered for the pipelined loop.
    TARGET_IIS = (1, 2, 4, 8)

    def __init__(self, band_trip_counts: Sequence[int], has_variable_bounds: bool,
                 is_imperfect: bool, ir_digest: str,
                 platforms: Optional[Sequence] = None):
        #: :func:`ir_digest` of the kernel the band was read from: a space
        #: always names its kernel, so :meth:`fingerprint` is the kernel's
        #: identity as well as the space's.
        if not ir_digest:
            raise ValueError("a design space needs its kernel's ir_digest")
        self.ir_digest = ir_digest
        self.band_trip_counts = tuple(int(t) for t in band_trip_counts)
        self.has_variable_bounds = has_variable_bounds
        self.is_imperfect = is_imperfect
        num_loops = len(self.band_trip_counts)

        self.lp_options = [True, False] if is_imperfect else [False]
        self.rvb_options = [True, False] if has_variable_bounds else [False]
        self.perm_options = self._permutation_options(num_loops)
        self.tile_options = [self._tile_sizes(trip)
                             for trip in self.band_trip_counts]
        self.ii_options = list(self.TARGET_IIS)
        #: Position of the target-II index in an encoded point.
        self.ii_dimension = 3 + num_loops
        from repro.dse.apply import cleanup_pipeline_names

        #: Cleanup pipelines the sweep may run (every registered one); a
        #: dimension only when there is a choice, otherwise :meth:`decode`
        #: fills in the one name.
        self.pipeline_options = list(cleanup_pipeline_names())
        self.explores_pipeline = len(self.pipeline_options) > 1

        #: Platforms the sweep explores (:class:`~repro.estimation.platform.
        #: Platform` instances); empty for single-platform sweeps, which
        #: have no platform dimension.
        self.platforms = tuple(platforms or ())
        self.platform_options = [platform.name for platform in self.platforms]

        #: Dimension option lists, in a fixed order.
        self.dimensions: list[list] = [self.lp_options, self.rvb_options, self.perm_options]
        self.dimensions.extend(self.tile_options)
        self.dimensions.append(self.ii_options)
        if self.explores_pipeline:
            self.dimensions.append(self.pipeline_options)
        if self.platform_options:
            self.dimensions.append(self.platform_options)

    # -- construction ----------------------------------------------------------------------

    @classmethod
    def from_function(cls, func_op: Operation,
                      platforms: Optional[Sequence] = None) -> "KernelDesignSpace":
        """Build the space by analysing the (possibly imperfect) loop band of
        the kernel's :func:`~repro.transforms.composite.design_nest`; a
        ``ValueError`` naming the kernel when it has none."""
        nest = design_nest(func_op)
        if nest is None:
            raise ValueError(f"{func_op.get_attr('sym_name')}: no affine loop "
                             f"nest to explore")
        band = loop_band_from(nest)
        trip_counts = []
        has_variable = False
        for loop in band:
            trip = loop.trip_count()
            if trip is None:
                has_variable = True
                trip = _estimated_trip(loop)
            trip_counts.append(max(1, trip))
        is_imperfect = any(
            len([op for op in loop.body.operations
                 if op.name != "affine.yield" and not isinstance(op, AffineForOp)]) > 0
            for loop in band[:-1])
        return cls(trip_counts, has_variable, is_imperfect, ir_digest(func_op),
                   platforms=platforms)

    # -- identity ---------------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable identity of (kernel IR, design space shape).

        Two spaces share a fingerprint exactly when their kernels' IR is
        structurally identical (:attr:`ir_digest`) and their dimension
        options match, making the fingerprint a safe key for the QoR
        estimate cache and for checkpoint compatibility checks across
        processes and sessions.

        The cleanup pipelines — a dimension or not — are hashed by the
        canonical printed spec of each, not by its name: editing a pipeline
        in :data:`repro.dse.apply.CLEANUP_PIPELINES` changes the
        fingerprint, so estimates cached under the old meaning can never be
        reused.  The platform dimension is likewise hashed by each platform's
        ``config_hash()``, so two sweeps whose platforms merely share names
        but differ in any budget/bandwidth/clock knob never share estimates.
        """
        from repro.dse.apply import cleanup_pipeline_signature

        parts = [
            self.ir_digest,
            self.band_trip_counts,
            self.has_variable_bounds,
            self.is_imperfect,
            [[repr(option) for option in options] for options in self.dimensions],
            [(name, cleanup_pipeline_signature(name))
             for name in self.pipeline_options],
        ]
        if self.platforms:
            parts.append([(platform.name, platform.config_hash())
                          for platform in self.platforms])
        payload = repr(tuple(parts))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    # -- encoding ---------------------------------------------------------------------------

    @property
    def num_dimensions(self) -> int:
        return len(self.dimensions)

    @property
    def num_points(self) -> int:
        total = 1
        for options in self.dimensions:
            total *= len(options)
        return total

    def decode(self, encoded: Sequence[int]) -> KernelDesignPoint:
        """Decode an index tuple into transform parameters."""
        if len(encoded) != self.num_dimensions:
            raise ValueError("encoded point has the wrong number of dimensions")
        values = [options[index] for options, index in zip(self.dimensions, encoded)]
        platform = values.pop() if self.platform_options else ""
        pipeline = values.pop() if self.explores_pipeline \
            else self.pipeline_options[0]
        lp, rvb, perm, *tiles, target_ii = values
        tiles = self._clamp_tile_product(tiles)
        return KernelDesignPoint(
            loop_perfectization=lp,
            remove_variable_bound=rvb,
            perm_map=tuple(perm),
            tile_sizes=tuple(tiles),
            target_ii=target_ii,
            pipeline=pipeline,
            platform=platform,
        )

    def ii_siblings(self, encoded: Sequence[int]
                    ) -> list[tuple[tuple[int, ...], int]]:
        """``(encoding, target II)`` of every point that differs from
        ``encoded`` in the target-II index only.  The target II is the one
        knob no transform reads — ``pipeline_loop`` stores it in the loop
        directive, which only the estimator reads back — so they share the
        transformed IR of ``encoded`` and its evaluation answers them all
        (:func:`repro.dse.apply.apply_design_point`)."""
        position = self.ii_dimension
        head, tail = tuple(encoded[:position]), tuple(encoded[position + 1:])
        return [(head + (index,) + tail, ii)
                for index, ii in enumerate(self.ii_options)
                if index != encoded[position]]

    def platform_named(self, name: str):
        """The :class:`Platform` of the sweep with the given name."""
        for platform in self.platforms:
            if platform.name == name:
                return platform
        raise KeyError(f"platform {name!r} is not part of this design space "
                       f"(available: {', '.join(self.platform_options) or 'none'})")

    def encode_vector(self, encoded: Sequence[int]) -> list[float]:
        """Numeric feature vector of a point (used for the Fig. 6 PCA profile)."""
        point = self.decode(encoded)
        vector: list[float] = [
            1.0 if point.loop_perfectization else 0.0,
            1.0 if point.remove_variable_bound else 0.0,
        ]
        vector.extend(float(p) for p in point.perm_map)
        vector.extend(float(t) for t in point.tile_sizes)
        vector.append(float(point.target_ii))
        if self.explores_pipeline:
            vector.append(float(self.pipeline_options.index(point.pipeline)))
        if self.platform_options:
            vector.append(float(self.platform_options.index(point.platform)))
        return vector

    def random_point(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(rng.randrange(len(options)) for options in self.dimensions)

    def neighbors(self, encoded: Sequence[int]) -> list[tuple[int, ...]]:
        """All points that differ from ``encoded`` by one step in one dimension."""
        result = []
        for dimension, index in enumerate(encoded):
            for delta in (-1, 1):
                new_index = index + delta
                if 0 <= new_index < len(self.dimensions[dimension]):
                    neighbor = list(encoded)
                    neighbor[dimension] = new_index
                    result.append(tuple(neighbor))
        return result

    def all_points(self):
        """Iterate the full cartesian space (only sensible for small spaces)."""
        ranges = [range(len(options)) for options in self.dimensions]
        return itertools.product(*ranges)

    # -- helpers ------------------------------------------------------------------------------

    @staticmethod
    def _permutation_options(num_loops: int) -> list[tuple[int, ...]]:
        identity = tuple(range(num_loops))
        if num_loops <= 1:
            return [identity]
        if num_loops <= 3:
            return [tuple(p) for p in _permutation_maps(num_loops)]
        # Larger bands: identity, full reversal and single rotations.
        options = {identity, tuple(reversed(identity))}
        rotated = tuple(list(identity[1:]) + [identity[0]])
        options.add(rotated)
        return sorted(options)

    @classmethod
    def _tile_sizes(cls, trip: int) -> list[int]:
        sizes = [1]
        size = 2
        while size <= min(trip, cls.MAX_TILE):
            if trip % size == 0:
                sizes.append(size)
            size *= 2
        return sizes

    def _clamp_tile_product(self, tiles: list[int]) -> list[int]:
        product = 1
        for tile in tiles:
            product *= tile
        while product > self.MAX_UNROLL_PRODUCT:
            largest = max(range(len(tiles)), key=lambda i: tiles[i])
            if tiles[largest] <= 1:
                break
            tiles[largest] //= 2
            product //= 2
        return tiles


def _permutation_maps(num_loops: int) -> list[tuple[int, ...]]:
    """All permutation maps for a small band (``perm_map[i]`` = new position of loop i)."""
    maps = []
    for ordering in itertools.permutations(range(num_loops)):
        perm_map = [0] * num_loops
        for new_position, original in enumerate(ordering):
            perm_map[original] = new_position
        maps.append(tuple(perm_map))
    return sorted(set(maps))


def _estimated_trip(loop: AffineForOp) -> int:
    """Best-effort trip estimate for variable-bound loops (max extent)."""
    from repro.transforms.loop.remove_variable_bound import _constant_extreme

    result = _constant_extreme(loop.upper_map, loop.ub_operands, want_max=True)
    if result is None:
        return 1
    upper = result[0]
    lower = loop.constant_lower_bound if loop.has_constant_lower_bound() else 0
    return max(1, (upper - lower) // max(1, loop.step))
