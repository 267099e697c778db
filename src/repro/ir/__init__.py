"""The IR core: values, operations, blocks, regions, types and passes.

This package is a compact, pure-Python analogue of the slice of MLIR that
ScaleHLS builds upon.  Dialect-specific operations live in
:mod:`repro.dialects`; this package provides the dialect-agnostic machinery.
"""

from repro.ir.types import (
    Type,
    NoneType,
    IndexType,
    IntegerType,
    FloatType,
    FunctionType,
    TensorType,
    MemRefType,
    PartitionKind,
    build_partition_map,
    MEMORY_SPACE_DEFAULT,
    MEMORY_SPACE_DRAM,
    MEMORY_SPACE_BRAM_1P,
    MEMORY_SPACE_BRAM_S2P,
    MEMORY_SPACE_BRAM_T2P,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
)
from repro.ir.value import Value, BlockArgument, OpResult, Use
from repro.ir.operation import Operation
from repro.ir.block import Block, OperationListView
from repro.ir.region import Region
from repro.ir.module import ModuleOp
from repro.ir.builder import Builder, InsertionPoint
from repro.ir.printer import Printer, print_op
from repro.ir.verifier import verify, VerificationError
from repro.ir.pass_manager import (
    AnchoredPipeline,
    FunctionPass,
    IRDumper,
    LambdaPass,
    ModulePass,
    Pass,
    PassError,
    PassManager,
    PassOption,
    dump_ir_after,
)
from repro.ir.pass_registry import (
    build_pipeline,
    get_pass_class,
    parse_pipeline,
    pipeline_signature,
    register_pass,
    registered_passes,
)
from repro.ir.rewrite import (
    GreedyRewriteDriver,
    PatternRewriter,
    PatternSet,
    RewritePattern,
    apply_patterns_greedily,
)
from repro.ir.dialect import Dialect, DialectRegistry, registry, register_operation

__all__ = [
    "Type",
    "NoneType",
    "IndexType",
    "IntegerType",
    "FloatType",
    "FunctionType",
    "TensorType",
    "MemRefType",
    "PartitionKind",
    "build_partition_map",
    "MEMORY_SPACE_DEFAULT",
    "MEMORY_SPACE_DRAM",
    "MEMORY_SPACE_BRAM_1P",
    "MEMORY_SPACE_BRAM_S2P",
    "MEMORY_SPACE_BRAM_T2P",
    "f32",
    "f64",
    "i1",
    "i32",
    "i64",
    "index",
    "Value",
    "BlockArgument",
    "OpResult",
    "Use",
    "Operation",
    "Block",
    "OperationListView",
    "Region",
    "ModuleOp",
    "Builder",
    "InsertionPoint",
    "Printer",
    "print_op",
    "verify",
    "VerificationError",
    "Pass",
    "FunctionPass",
    "ModulePass",
    "LambdaPass",
    "PassManager",
    "PassError",
    "PassOption",
    "AnchoredPipeline",
    "IRDumper",
    "dump_ir_after",
    "build_pipeline",
    "get_pass_class",
    "parse_pipeline",
    "pipeline_signature",
    "register_pass",
    "registered_passes",
    "RewritePattern",
    "PatternRewriter",
    "GreedyRewriteDriver",
    "PatternSet",
    "apply_patterns_greedily",
    "Dialect",
    "DialectRegistry",
    "registry",
    "register_operation",
]
