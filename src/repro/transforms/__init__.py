"""The HLS transform and analysis library.

Every optimization described in the paper is exposed three ways, mirroring
how ScaleHLS packages its transform library (paper Section V):

* as a *registered pass* (``@register_pass``) constructible from the textual
  pipeline syntax of :mod:`repro.ir.pass_registry`,
* as a :class:`~repro.ir.pass_manager.Pass` subclass for programmatic
  pipeline construction, and
* as a callable function with explicit parameters (for the DSE engine).

Importing this package populates the pass registry.
"""

from repro.transforms.cleanup.canonicalize import (
    CanonicalizePass,
    canonicalize,
    canonicalization_patterns,
)
from repro.transforms.cleanup.cse import CSEPass, eliminate_common_subexpressions
from repro.transforms.cleanup.simplify_affine_if import SimplifyAffineIfPass, simplify_affine_ifs
from repro.transforms.cleanup.store_forward import AffineStoreForwardPass, forward_stores
from repro.transforms.cleanup.simplify_memref_access import (
    SimplifyMemrefAccessPass,
    simplify_memref_accesses,
)
from repro.transforms.loop.perfectization import AffineLoopPerfectizationPass, perfectize_band
from repro.transforms.loop.remove_variable_bound import (
    RemoveVariableBoundPass,
    remove_variable_bounds,
)
from repro.transforms.loop.loop_order_opt import (
    AffineLoopOrderOptPass,
    optimize_loop_order,
    permute_loop_band,
)
from repro.transforms.loop.loop_tiling import AffineLoopTilePass, tile_loop_band
from repro.transforms.loop.loop_unroll import AffineLoopUnrollPass, unroll_loop, fully_unroll
from repro.transforms.directive.pipelining import (
    LoopPipeliningPass,
    FuncPipeliningPass,
    pipeline_loop,
    pipeline_function,
)
from repro.transforms.directive.array_partition import ArrayPartitionPass, partition_arrays
from repro.transforms.graph.legalize_dataflow import LegalizeDataflowPass, legalize_dataflow
from repro.transforms.graph.split_function import SplitFunctionPass, split_function
from repro.transforms.graph.lower_graph import LowerGraphPass, lower_graph_to_loops
from repro.transforms.composite import (
    DesignPointPrefixPass,
    DesignPointSuffixPass,
    DNNLoopOptPass,
    unroll_towards_factor,
)

__all__ = [
    "CanonicalizePass", "canonicalize", "canonicalization_patterns",
    "CSEPass", "eliminate_common_subexpressions",
    "SimplifyAffineIfPass", "simplify_affine_ifs",
    "AffineStoreForwardPass", "forward_stores",
    "SimplifyMemrefAccessPass", "simplify_memref_accesses",
    "AffineLoopPerfectizationPass", "perfectize_band",
    "RemoveVariableBoundPass", "remove_variable_bounds",
    "AffineLoopOrderOptPass", "optimize_loop_order", "permute_loop_band",
    "AffineLoopTilePass", "tile_loop_band",
    "AffineLoopUnrollPass", "unroll_loop", "fully_unroll",
    "LoopPipeliningPass", "FuncPipeliningPass", "pipeline_loop", "pipeline_function",
    "ArrayPartitionPass", "partition_arrays",
    "LegalizeDataflowPass", "legalize_dataflow",
    "SplitFunctionPass", "split_function",
    "LowerGraphPass", "lower_graph_to_loops",
    "DesignPointPrefixPass", "DesignPointSuffixPass",
    "DNNLoopOptPass", "unroll_towards_factor",
]
