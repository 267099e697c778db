"""Per-operation latency and resource characteristics.

The numbers approximate 32-bit floating-point operators generated by Vivado
HLS on 7-series / UltraScale+ devices around 100-150 MHz.  The estimator only
needs them to be *relatively* right — DSP-heavy multiplies, multi-cycle
floating-point adds, two-cycle BRAM reads — for the latency/area trade-off
shapes of the paper to emerge.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class OpCharacteristics:
    """Latency (cycles) and resources of one hardware operator instance."""

    latency: int = 0
    dsp: int = 0
    lut: int = 0
    ff: int = 0


@dataclasses.dataclass
class ResourceUsage:
    """Aggregated resource usage of a design (or part of one)."""

    dsp: int = 0
    lut: int = 0
    ff: int = 0
    #: On-chip memory, in bits.
    memory_bits: int = 0
    #: Number of BRAM18K blocks implied by the buffers.
    bram18k: int = 0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            dsp=self.dsp + other.dsp,
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            memory_bits=self.memory_bits + other.memory_bits,
            bram18k=self.bram18k + other.bram18k,
        )

    def scaled(self, factor: float) -> "ResourceUsage":
        return ResourceUsage(
            dsp=int(round(self.dsp * factor)),
            lut=int(round(self.lut * factor)),
            ff=int(round(self.ff * factor)),
            memory_bits=int(round(self.memory_bits * factor)),
            bram18k=int(round(self.bram18k * factor)),
        )


#: Characteristics of the floating point and integer operators.
_OP_TABLE: dict[str, OpCharacteristics] = {
    "arith.addf": OpCharacteristics(latency=4, dsp=2, lut=214, ff=324),
    "arith.subf": OpCharacteristics(latency=4, dsp=2, lut=214, ff=324),
    "arith.mulf": OpCharacteristics(latency=3, dsp=3, lut=135, ff=128),
    "arith.divf": OpCharacteristics(latency=12, dsp=0, lut=761, ff=1446),
    "arith.maxf": OpCharacteristics(latency=1, dsp=0, lut=118, ff=66),
    "arith.cmpf": OpCharacteristics(latency=1, dsp=0, lut=66, ff=32),
    "arith.addi": OpCharacteristics(latency=0, dsp=0, lut=32, ff=0),
    "arith.subi": OpCharacteristics(latency=0, dsp=0, lut=32, ff=0),
    "arith.muli": OpCharacteristics(latency=1, dsp=1, lut=20, ff=0),
    "arith.divsi": OpCharacteristics(latency=12, dsp=0, lut=650, ff=700),
    "arith.remsi": OpCharacteristics(latency=12, dsp=0, lut=650, ff=700),
    "arith.cmpi": OpCharacteristics(latency=0, dsp=0, lut=24, ff=0),
    "arith.select": OpCharacteristics(latency=0, dsp=0, lut=32, ff=0),
    "arith.index_cast": OpCharacteristics(latency=0, dsp=0, lut=0, ff=0),
    "arith.sitofp": OpCharacteristics(latency=3, dsp=0, lut=180, ff=160),
    "arith.constant": OpCharacteristics(latency=0, dsp=0, lut=0, ff=0),
    "affine.apply": OpCharacteristics(latency=0, dsp=0, lut=16, ff=0),
    "affine.load": OpCharacteristics(latency=2, dsp=0, lut=12, ff=8),
    "memref.load": OpCharacteristics(latency=2, dsp=0, lut=12, ff=8),
    "affine.store": OpCharacteristics(latency=1, dsp=0, lut=12, ff=8),
    "memref.store": OpCharacteristics(latency=1, dsp=0, lut=12, ff=8),
    "memref.copy": OpCharacteristics(latency=2, dsp=0, lut=32, ff=16),
    "memref.alloc": OpCharacteristics(latency=0, dsp=0, lut=0, ff=0),
    "memref.dealloc": OpCharacteristics(latency=0, dsp=0, lut=0, ff=0),
}

_DEFAULT = OpCharacteristics(latency=0, dsp=0, lut=8, ff=0)

#: Operations whose hardware operator can be shared between loop iterations.
SHAREABLE_OPS = {
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.maxf",
    "arith.muli", "arith.divsi", "arith.remsi", "arith.sitofp",
}

#: BRAM18K capacity in bits.
BRAM18K_BITS = 18 * 1024


def op_characteristics(op_name: str) -> OpCharacteristics:
    """Latency/resources of an operation by name (default: free/combinational)."""
    return _OP_TABLE.get(op_name, _DEFAULT)


def op_latency(op_name: str) -> int:
    return op_characteristics(op_name).latency


def memory_resource(num_elements: int, element_bits: int, banks: int) -> ResourceUsage:
    """Memory footprint of a buffer split into ``banks`` physical banks."""
    banks = max(1, banks)
    total_bits = num_elements * element_bits
    elements_per_bank = -(-num_elements // banks)
    bits_per_bank = elements_per_bank * element_bits
    bram_per_bank = max(1, -(-bits_per_bank // BRAM18K_BITS))
    return ResourceUsage(memory_bits=total_bits, bram18k=banks * bram_per_bank,
                         lut=8 * banks)


def element_bits(element_type) -> int:
    """Bit width of a scalar element type."""
    width = getattr(element_type, "width", 32)
    return int(width)
