"""Declarative FPGA platform models.

A :class:`Platform` describes a target device (or a partition of one) as
*data*: resource budgets (DSP / LUT / FF / BRAM18K / URAM / on-chip memory
bits), the memory subsystem (ports per physical bank) and the off-chip link
(bytes per cycle), plus the clock target.  Platforms are validated from
plain dictionaries (:meth:`Platform.from_dict`), loadable from JSON or YAML
config files (:func:`load_platform_config`), and carry a canonical
:meth:`Platform.config_hash` that the DSE runtime folds into its cache and
checkpoint fingerprints — an estimate produced under one hardware model can
never be silently reused under another.

Two platforms appear in the paper's evaluation:

* **XC7Z020** — the edge device used for the computation-kernel experiments
  (Table III / IV, Fig. 6 / 7): 4.9 Mb of on-chip memory, 220 DSPs and
  53,200 LUTs.
* **One SLR of a VU9P** — used for the DNN experiments (Table V, Fig. 8):
  115.3 Mb of memory, 2,280 DSPs and 394,080 LUTs per SLR.

Both paper targets keep ``memory_ports_per_bank=1`` and an unmodeled
off-chip link (``offchip_bandwidth_bytes_per_cycle=0``) so their QoR
estimates are bit-for-bit what the paper reproduction always produced; the
additional bundled targets below exercise the richer model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional, Union

from repro.estimation.resources import BRAM18K_BITS, ResourceUsage

#: One UltraRAM block holds 288 Kb — 16 BRAM18Ks' worth of bits.
URAM_BITS = 288 * 1024


class PlatformError(ValueError):
    """A platform definition (inline dict or config file) is invalid."""


#: Schema of a platform definition: field name -> (type, default, minimum).
#: ``None`` as default marks the field required.
_SCHEMA: dict[str, tuple[type, Optional[object], object]] = {
    "name": (str, None, None),
    "memory_bits": (int, None, 0),
    "dsp": (int, None, 0),
    "lut": (int, None, 0),
    "ff": (int, 0, 0),
    "bram18k": (int, 0, 0),
    "uram": (int, 0, 0),
    "memory_ports_per_bank": (int, 1, 1),
    "offchip_bandwidth_bytes_per_cycle": (float, 0.0, 0.0),
    "clock_mhz": (float, 100.0, 1e-9),
}


@dataclasses.dataclass(frozen=True)
class Platform:
    """Resource budget and memory model of a target FPGA (or a partition).

    A budget of 0 for ``ff``, ``bram18k`` or ``uram`` means "unspecified" —
    the corresponding feasibility check is skipped, which is how platform
    definitions written before those budgets existed keep their behavior.
    ``offchip_bandwidth_bytes_per_cycle`` of 0 leaves off-chip traffic
    unmodeled (the paper targets' setting); a positive value lets the
    estimator bound a top function's interval by ``bytes moved / bandwidth``.
    """

    name: str
    memory_bits: int
    dsp: int
    lut: int
    ff: int = 0
    clock_mhz: float = 100.0
    bram18k: int = 0
    uram: int = 0
    memory_ports_per_bank: int = 1
    offchip_bandwidth_bytes_per_cycle: float = 0.0

    # -- validated construction from data ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Platform":
        """Build a validated platform from a plain dictionary.

        Unknown keys, wrong types and out-of-range values raise
        :class:`PlatformError` with the offending field named — a config
        typo fails fast instead of silently falling back to a default.
        """
        if not isinstance(data, dict):
            raise PlatformError(f"platform definition must be a mapping, "
                                f"got {type(data).__name__}")
        unknown = sorted(set(data) - set(_SCHEMA))
        if unknown:
            raise PlatformError(
                f"unknown platform field(s) {', '.join(map(repr, unknown))}; "
                f"known fields: {', '.join(sorted(_SCHEMA))}")
        values: dict[str, object] = {}
        for field, (kind, default, minimum) in _SCHEMA.items():
            if field not in data:
                if default is None:
                    raise PlatformError(f"platform definition is missing the "
                                        f"required field {field!r}")
                values[field] = default
                continue
            raw = data[field]
            if kind is str:
                if not isinstance(raw, str) or not raw:
                    raise PlatformError(f"platform field {field!r} must be a "
                                        f"non-empty string, got {raw!r}")
                values[field] = raw
                continue
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise PlatformError(f"platform field {field!r} must be a "
                                    f"number, got {raw!r}")
            if kind is int and float(raw) != int(raw):
                raise PlatformError(f"platform field {field!r} must be an "
                                    f"integer, got {raw!r}")
            value = kind(raw)
            if minimum is not None and value < minimum:
                raise PlatformError(f"platform field {field!r} must be "
                                    f">= {minimum}, got {raw!r}")
            values[field] = value
        return cls(**values)

    def to_dict(self) -> dict:
        """The canonical data form of this platform (inverse of from_dict)."""
        return {field: getattr(self, field) for field in _SCHEMA}

    def config_hash(self) -> str:
        """Stable identity of the full hardware model.

        Any field change — a budget, the port count, the bandwidth, the
        clock — produces a different hash, so cache entries, checkpoints and
        design-space fingerprints keyed on it can never conflate two
        hardware models that merely share a name.  Computed once per
        platform: the instance is frozen, and ``dataclasses.replace`` builds
        a new one.
        """
        cached = self.__dict__.get("_config_hash")
        if cached is None:
            payload = json.dumps(self.to_dict(), sort_keys=True)
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_config_hash", cached)
        return cached

    # -- feasibility -------------------------------------------------------------------------

    def memory_blocks(self) -> int:
        """Total on-chip block budget in BRAM18K equivalents.

        The resource model places every buffer in BRAM18K-sized banks, but
        devices with URAM spill large buffers there (one 288Kb URAM holds 16
        BRAM18Ks' worth of bits), so the block check counts both pools —
        otherwise a URAM-heavy part like the VU9P would reject designs its
        ``memory_bits`` budget was sized to accept.
        """
        return self.bram18k + self.uram * (URAM_BITS // BRAM18K_BITS)

    def fits(self, usage: ResourceUsage,
             dsp_margin: float = 1.0, memory_margin: float = 1.0,
             lut_margin: float = 1.0, ff_margin: float = 1.0) -> bool:
        """True when a design's resource usage fits the budget (with margins).

        ``memory_margin`` covers both memory views — raw bits and memory
        blocks — so ``memory_margin=float("inf")`` still means "ignore
        memory entirely".  FF and block budgets of 0 are unspecified and
        never constrain.
        """
        blocks = self.memory_blocks()
        return (usage.dsp <= self.dsp * dsp_margin
                and usage.memory_bits <= self.memory_bits * memory_margin
                and (blocks <= 0
                     or usage.bram18k <= blocks * memory_margin)
                and usage.lut <= self.lut * lut_margin
                and (self.ff <= 0 or usage.ff <= self.ff * ff_margin))

    def utilization(self, usage: ResourceUsage) -> dict[str, float]:
        """Per-resource utilization fractions (1.0 == 100%)."""
        blocks = self.memory_blocks()
        return {
            "dsp": usage.dsp / self.dsp if self.dsp else 0.0,
            "memory": usage.memory_bits / self.memory_bits if self.memory_bits else 0.0,
            "lut": usage.lut / self.lut if self.lut else 0.0,
            "ff": usage.ff / self.ff if self.ff else 0.0,
            "bram18k": usage.bram18k / blocks if blocks else 0.0,
        }


#: The bundled targets, expressed as data (exactly what a --platform-config
#: file contains).  The two paper targets keep single-ported banks and an
#: unmodeled off-chip link so their estimates match the paper reproduction
#: bit for bit; the other targets carry true dual-ported BRAM and a real
#: off-chip budget (DDR/HBM bytes per cycle at the platform's clock).
BUILTIN_PLATFORM_CONFIGS: tuple[dict, ...] = (
    # Xilinx Zynq XC7Z020 (PYNQ-Z1 class edge device) — paper Tables III/IV.
    {
        "name": "xc7z020",
        "memory_bits": int(4.9e6),
        "dsp": 220,
        "lut": 53200,
        "ff": 106400,
        "bram18k": 280,
        "clock_mhz": 100.0,
    },
    # One super logic region (SLR) of a Xilinx VU9P — paper Table V.
    {
        "name": "vu9p-slr",
        "memory_bits": int(115.3e6),
        "dsp": 2280,
        "lut": 394080,
        "ff": 788160,
        "bram18k": 1440,
        "uram": 320,
        "clock_mhz": 200.0,
    },
    # Xilinx Zynq XC7Z045 (ZC706): dual-ported BRAM, DDR3 at 12.8 GB/s
    # = 128 bytes/cycle at the 100 MHz clock target.
    {
        "name": "xc7z045",
        "memory_bits": int(19.1e6),
        "dsp": 900,
        "lut": 218600,
        "ff": 437200,
        "bram18k": 1090,
        "memory_ports_per_bank": 2,
        "offchip_bandwidth_bytes_per_cycle": 128.0,
        "clock_mhz": 100.0,
    },
    # Xilinx ZCU102 (ZU9EG): dual-ported BRAM, DDR4 at 19.2 GB/s
    # = 96 bytes/cycle at the 200 MHz clock target.
    {
        "name": "zcu102",
        "memory_bits": int(32.1e6),
        "dsp": 2520,
        "lut": 274080,
        "ff": 548160,
        "bram18k": 1824,
        "memory_ports_per_bank": 2,
        "offchip_bandwidth_bytes_per_cycle": 96.0,
        "clock_mhz": 200.0,
    },
    # One SLR of an Alveo U280: dual-ported BRAM + URAM, HBM2 at ~460 GB/s
    # = 1536 bytes/cycle at the 300 MHz clock target.
    {
        "name": "u280-slr",
        "memory_bits": int(129.0e6),
        "dsp": 3008,
        "lut": 435840,
        "ff": 871680,
        "bram18k": 2016,
        "uram": 320,
        "memory_ports_per_bank": 2,
        "offchip_bandwidth_bytes_per_cycle": 1536.0,
        "clock_mhz": 300.0,
    },
)

PLATFORMS: dict[str, Platform] = {
    platform.name: platform
    for platform in (Platform.from_dict(config)
                     for config in BUILTIN_PLATFORM_CONFIGS)
}

#: Xilinx Zynq XC7Z020 (PYNQ-Z1 class edge device).
XC7Z020 = PLATFORMS["xc7z020"]

#: One super logic region (SLR) of a Xilinx VU9P.
VU9P_SLR = PLATFORMS["vu9p-slr"]


# -- config files ---------------------------------------------------------------------------


def load_platform_config(path: Union[str, os.PathLike]) -> list[Platform]:
    """Load validated platforms from a JSON or YAML config file.

    Accepted document shapes: a single platform mapping, a list of platform
    mappings, or ``{"platforms": [...]}``.  JSON always works; ``.yaml`` /
    ``.yml`` files additionally require PyYAML (a clear
    :class:`PlatformError` is raised when it is unavailable, with JSON as
    the dependency-free fallback).
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise PlatformError(f"cannot read platform config {path!r}: "
                            f"{error}") from error
    document = _parse_config_text(path, text)
    if isinstance(document, dict) and "platforms" in document:
        extra = sorted(set(document) - {"platforms"})
        if extra:
            raise PlatformError(
                f"{path}: unknown top-level key(s) "
                f"{', '.join(map(repr, extra))} next to 'platforms'")
        entries = document["platforms"]
    elif isinstance(document, dict):
        entries = [document]
    else:
        entries = document
    if not isinstance(entries, list) or not entries:
        raise PlatformError(f"{path}: expected a platform mapping, a list of "
                            f"them, or {{'platforms': [...]}} (non-empty)")
    platforms: list[Platform] = []
    seen: set[str] = set()
    for index, entry in enumerate(entries):
        try:
            platform = Platform.from_dict(entry)
        except PlatformError as error:
            raise PlatformError(f"{path}: platform #{index + 1}: "
                                f"{error}") from error
        if platform.name in seen:
            raise PlatformError(f"{path}: duplicate platform name "
                                f"{platform.name!r}")
        seen.add(platform.name)
        platforms.append(platform)
    return platforms


def _parse_config_text(path: str, text: str):
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:
            raise PlatformError(
                f"{path}: YAML platform configs require PyYAML, which is not "
                f"installed — use a JSON config instead") from None
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise PlatformError(f"{path}: invalid YAML: {error}") from error
    try:
        return json.loads(text)
    except ValueError as error:
        raise PlatformError(f"{path}: invalid JSON: {error}") from error
