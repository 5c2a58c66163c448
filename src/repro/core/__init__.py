"""The DPU core: ISA, dpCore interpreter, SoC assembly, power."""

from .assembler import assemble
from .bitvector import (
    bitvector_words,
    nlz64,
    ntz64,
    pack_bits,
    popcount64,
    selected_indices,
    unpack_bits,
)
from .config import DPU_16NM, DPU_40NM, XEON_TDP_WATTS, DPUConfig
from .crc32 import crc32_bytes, crc32_column, crc32_u32, crc32_u64, murmur64
from .dpcore import (
    MISPREDICT_PENALTY,
    DpCoreInterpreter,
    ExecutionResult,
    mul_latency,
)
from .dpu import DPU, CoreContext, LaunchRequest, LaunchResult, launch_op
from .isa import OPCODES, Instruction, IsaError, OpSpec, Program, Unit
from .mailbox import A9_ID, M0_ID, NUM_MAILBOXES, Mailbox, MailboxController
from .pmu import PowerManagementUnit, PowerState
from .power import PowerBreakdown, PowerModel
from .profiling import HotLoop, ProfileReport, profile_program

__all__ = [
    "A9_ID",
    "DPU",
    "DPU_16NM",
    "DPU_40NM",
    "CoreContext",
    "DPUConfig",
    "DpCoreInterpreter",
    "ExecutionResult",
    "Instruction",
    "IsaError",
    "LaunchRequest",
    "LaunchResult",
    "M0_ID",
    "MISPREDICT_PENALTY",
    "Mailbox",
    "MailboxController",
    "NUM_MAILBOXES",
    "OPCODES",
    "OpSpec",
    "HotLoop",
    "PowerBreakdown",
    "ProfileReport",
    "PowerManagementUnit",
    "PowerModel",
    "PowerState",
    "Program",
    "Unit",
    "XEON_TDP_WATTS",
    "assemble",
    "profile_program",
    "bitvector_words",
    "crc32_bytes",
    "crc32_column",
    "crc32_u32",
    "crc32_u64",
    "launch_op",
    "mul_latency",
    "murmur64",
    "nlz64",
    "ntz64",
    "pack_bits",
    "popcount64",
    "selected_indices",
    "unpack_bits",
]
