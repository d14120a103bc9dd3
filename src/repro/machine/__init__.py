"""Hardware models of the two evaluated systems.

The model hierarchy mirrors the physical hierarchy of Table I:

``ISA`` (vector extensions)  →  ``CoreModel``  →  ``NUMADomain`` (CMG or
socket)  →  ``NodeModel``  →  ``ClusterModel``.

All peak quantities are first-principles (frequency x pipes x lanes x 2 for
FMA); sustained quantities are produced by the behaviour models in
:mod:`repro.smp`, :mod:`repro.network` and :mod:`repro.des`, not hard-coded
here.  :mod:`repro.machine.presets` instantiates CTE-Arm and MareNostrum 4.
"""

from repro.machine.isa import (
    DType,
    ExecMode,
    VectorISA,
    SCALAR,
    NEON,
    SVE512,
    AVX512,
    lanes,
)
from repro.machine.core import CoreModel
from repro.machine.cache import CacheLevel, CacheHierarchy
from repro.machine.memory import MemoryModel
from repro.machine.numa import NUMADomain, OnChipInterconnect
from repro.machine.node import NodeModel
from repro.machine.cluster import ClusterModel
from repro.machine.capacity import PartitionCapacity
from repro.machine.presets import (
    cte_arm,
    fugaku,
    marenostrum4,
    thunderx2,
    table1,
    MachinePreset,
    MachineRegistry,
    MACHINES,
    PRESETS,
    get_preset,
    register_preset,
)
from repro.machine.models import (
    ComputePrice,
    ECMModel,
    PricingContext,
    PricingModel,
    PRICING_MODELS,
    RooflineModel,
    get_pricing_model,
    pricing_model_names,
    register_pricing_model,
    resolve_pricing,
)

__all__ = [
    "DType",
    "ExecMode",
    "VectorISA",
    "SCALAR",
    "NEON",
    "SVE512",
    "AVX512",
    "lanes",
    "CoreModel",
    "CacheLevel",
    "CacheHierarchy",
    "MemoryModel",
    "NUMADomain",
    "OnChipInterconnect",
    "NodeModel",
    "ClusterModel",
    "PartitionCapacity",
    "cte_arm",
    "fugaku",
    "marenostrum4",
    "thunderx2",
    "table1",
    "MachinePreset",
    "MachineRegistry",
    "MACHINES",
    "PRESETS",
    "get_preset",
    "register_preset",
    "ComputePrice",
    "ECMModel",
    "PricingContext",
    "PricingModel",
    "PRICING_MODELS",
    "RooflineModel",
    "get_pricing_model",
    "pricing_model_names",
    "register_pricing_model",
    "resolve_pricing",
]
