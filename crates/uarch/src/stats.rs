//! The raw microarchitectural counts the timing model produces — the
//! simulator-side superset of the PMU events in the paper's Table 1.

use cheri_isa::OpClass;
use serde::{Deserialize, Serialize};

/// Every count the timing model accumulates over one run.
///
/// Field names follow the Arm PMU event names where one exists. The PMU
/// layer (`morello-pmu`) exposes these through a 6-counter bank with
/// multiplexing, reproducing the paper's measurement methodology; this
/// struct is the "ground truth" the simulator affords.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UarchStats {
    // --- Cycle accounting --------------------------------------------------
    /// Total core cycles.
    pub cpu_cycles: u64,
    /// Retired instructions.
    pub inst_retired: u64,
    /// Cycles in which the frontend delivered no µops (fetch stalls, PCC
    /// resteers).
    pub stall_frontend: u64,
    /// Cycles in which the backend could not accept µops.
    pub stall_backend: u64,

    // --- Top-down backend split (cycles) ------------------------------------
    /// Backend-memory cycles attributable to L1D (hit pressure,
    /// pointer-chase serialisation).
    pub bound_mem_l1: u64,
    /// Backend-memory cycles served from L2.
    pub bound_mem_l2: u64,
    /// Backend-memory cycles served from LLC/DRAM.
    pub bound_mem_ext: u64,
    /// Backend-core cycles (execution-resource contention, store-buffer
    /// pressure).
    pub bound_core: u64,
    /// Cycles lost to pipeline flushes from mispredicted branches.
    pub badspec_cycles: u64,
    /// Frontend cycles charged specifically to PCC-bounds resteers (a
    /// subset of `stall_frontend`; the quantity the benchmark ABI
    /// eliminates).
    pub pcc_stall_cycles: u64,
    /// Backend-core cycles charged to store-buffer-full stalls (a subset
    /// of `bound_core`).
    pub store_buffer_stalls: u64,

    // --- Branches -----------------------------------------------------------
    /// Retired branches.
    pub br_retired: u64,
    /// Retired mispredicted branches.
    pub br_mis_pred_retired: u64,
    /// Branches that changed PCC bounds (capability branches).
    pub pcc_change_branches: u64,

    // --- Speculative instruction mix (retired classes) -----------------------
    /// All speculatively executed instructions (= retired in this model).
    pub inst_spec: u64,
    /// Loads.
    pub ld_spec: u64,
    /// Stores.
    pub st_spec: u64,
    /// Integer data processing (including capability manipulation).
    pub dp_spec: u64,
    /// SIMD.
    pub ase_spec: u64,
    /// Floating point.
    pub vfp_spec: u64,
    /// Immediate branches.
    pub br_immed_spec: u64,
    /// Indirect branches.
    pub br_indirect_spec: u64,
    /// Return branches.
    pub br_return_spec: u64,
    /// Capability-manipulation instructions (subset of `dp_spec`).
    pub cap_manip_spec: u64,

    // --- Caches --------------------------------------------------------------
    /// L1I lookups.
    pub l1i_cache: u64,
    /// L1I refills.
    pub l1i_cache_refill: u64,
    /// L1D lookups.
    pub l1d_cache: u64,
    /// L1D refills.
    pub l1d_cache_refill: u64,
    /// L2 (unified) lookups.
    pub l2d_cache: u64,
    /// L2 refills.
    pub l2d_cache_refill: u64,
    /// LLC read lookups.
    pub ll_cache_rd: u64,
    /// LLC read misses.
    pub ll_cache_miss_rd: u64,

    // --- TLBs ----------------------------------------------------------------
    /// L1 instruction TLB lookups.
    pub l1i_tlb: u64,
    /// L1 instruction TLB refills.
    pub l1i_tlb_refill: u64,
    /// L1 data TLB lookups.
    pub l1d_tlb: u64,
    /// L1 data TLB refills.
    pub l1d_tlb_refill: u64,
    /// Unified L2 TLB lookups.
    pub l2d_tlb: u64,
    /// Unified L2 TLB refills.
    pub l2d_tlb_refill: u64,
    /// Instruction-side page-table walks.
    pub itlb_walk: u64,
    /// Data-side page-table walks.
    pub dtlb_walk: u64,

    // --- Memory traffic --------------------------------------------------------
    /// All data reads.
    pub mem_access_rd: u64,
    /// All data writes.
    pub mem_access_wr: u64,
    /// Capability (tag-checked) reads.
    pub cap_mem_access_rd: u64,
    /// Capability (tag-carrying) writes.
    pub cap_mem_access_wr: u64,
    /// Reads that performed a capability-tag check.
    pub mem_access_rd_ctag: u64,
    /// Writes that performed a capability-tag update.
    pub mem_access_wr_ctag: u64,

    // --- Tag controller (extension model; zero unless enabled) ---------------
    /// Tag-cache lookups (capability traffic that missed the LLC).
    pub tag_cache_access: u64,
    /// Tag-cache misses (second DRAM access for the tag line).
    pub tag_cache_miss: u64,

    // --- Revocation subsystem (folded in from the allocator's heap stats;
    // --- zero unless a sweeping strategy ran) --------------------------------
    /// Capability granules visited by revocation tag sweeps.
    #[serde(default)]
    pub sweep_granules_visited: u64,
    /// Stale capability tags cleared by revocation tag sweeps.
    #[serde(default)]
    pub sweep_tags_cleared: u64,
    /// Revocation epochs (quarantine drains / tag sweeps) triggered.
    #[serde(default)]
    pub revocation_epochs: u64,
    /// High-water mark of quarantined bytes.
    #[serde(default)]
    pub quarantine_bytes_hwm: u64,

    // --- Fault-injection campaign (folded in from the fault session's
    // --- journal; zero unless a campaign ran) --------------------------------
    /// Faults injected into the run by the campaign.
    #[serde(default)]
    pub faults_injected: u64,
    /// Injected faults that raised a capability trap.
    #[serde(default)]
    pub faults_trapped: u64,
    /// Runs that completed with a corrupted checksum (0 or 1 per run).
    #[serde(default)]
    pub silent_corruptions: u64,
    /// Frames unwound by the SIGPROT-analogue recovery handler.
    #[serde(default)]
    pub recovery_unwinds: u64,

    // --- Per-opcode-class attribution (batched in `TimingCore::retire`;
    // --- retired counts partition `inst_retired`, cycle counts partition
    // --- `cpu_cycles`) --------------------------------------------------------
    /// Retired int-ALU (integer/FP/SIMD DP) instructions.
    #[serde(default)]
    pub opc_int_alu_retired: u64,
    /// Model cycles attributed to int-ALU instructions.
    #[serde(default)]
    pub opc_int_alu_cycles: u64,
    /// Retired capability-manipulation DP instructions.
    #[serde(default)]
    pub opc_cap_manip_retired: u64,
    /// Model cycles attributed to capability-manipulation instructions.
    #[serde(default)]
    pub opc_cap_manip_cycles: u64,
    /// Retired scalar loads/stores.
    #[serde(default)]
    pub opc_mem_scalar_retired: u64,
    /// Model cycles attributed to scalar loads/stores.
    #[serde(default)]
    pub opc_mem_scalar_cycles: u64,
    /// Retired capability loads/stores.
    #[serde(default)]
    pub opc_mem_cap_retired: u64,
    /// Model cycles attributed to capability loads/stores.
    #[serde(default)]
    pub opc_mem_cap_cycles: u64,
    /// Retired non-PCC-changing branches.
    #[serde(default)]
    pub opc_branch_retired: u64,
    /// Model cycles attributed to non-PCC-changing branches.
    #[serde(default)]
    pub opc_branch_cycles: u64,
    /// Retired PCC-changing (capability) branches.
    #[serde(default)]
    pub opc_cap_branch_retired: u64,
    /// Model cycles attributed to PCC-changing branches.
    #[serde(default)]
    pub opc_cap_branch_cycles: u64,
    /// Retired allocator-runtime (malloc/free stream) instructions.
    #[serde(default)]
    pub opc_runtime_retired: u64,
    /// Model cycles attributed to allocator-runtime instructions.
    #[serde(default)]
    pub opc_runtime_cycles: u64,
    /// Retired heap-metadata (revocation sweep stream) instructions.
    #[serde(default)]
    pub opc_meta_retired: u64,
    /// Model cycles attributed to heap-metadata instructions.
    #[serde(default)]
    pub opc_meta_cycles: u64,
}

impl UarchStats {
    /// Sum of all `*_SPEC` class counters plus `INST_SPEC` itself — the
    /// denominator of the paper's Table 1 "Retiring %" formula.
    pub fn sum_spec(&self) -> u64 {
        self.inst_spec
            + self.ld_spec
            + self.st_spec
            + self.dp_spec
            + self.ase_spec
            + self.vfp_spec
            + self.br_immed_spec
            + self.br_indirect_spec
            + self.br_return_spec
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.inst_retired as f64 / self.cpu_cycles.max(1) as f64
    }

    /// Attributes `retired` instructions of `class` plus the `cycles`
    /// model cycles they took together to its opcode-class counters.
    pub fn opc_attribute(&mut self, class: OpClass, retired: u64, cycles: u64) {
        let (n, cyc) = self.opc_slots(class);
        *n += retired;
        *cyc += cycles;
    }

    /// Retired-instruction count for one opcode class.
    pub fn opc_retired(&self, class: OpClass) -> u64 {
        match class {
            OpClass::IntAlu => self.opc_int_alu_retired,
            OpClass::CapManip => self.opc_cap_manip_retired,
            OpClass::MemScalar => self.opc_mem_scalar_retired,
            OpClass::MemCap => self.opc_mem_cap_retired,
            OpClass::Branch => self.opc_branch_retired,
            OpClass::CapBranch => self.opc_cap_branch_retired,
            OpClass::Runtime => self.opc_runtime_retired,
            OpClass::Meta => self.opc_meta_retired,
        }
    }

    /// Attributed model cycles for one opcode class.
    pub fn opc_cycles(&self, class: OpClass) -> u64 {
        match class {
            OpClass::IntAlu => self.opc_int_alu_cycles,
            OpClass::CapManip => self.opc_cap_manip_cycles,
            OpClass::MemScalar => self.opc_mem_scalar_cycles,
            OpClass::MemCap => self.opc_mem_cap_cycles,
            OpClass::Branch => self.opc_branch_cycles,
            OpClass::CapBranch => self.opc_cap_branch_cycles,
            OpClass::Runtime => self.opc_runtime_cycles,
            OpClass::Meta => self.opc_meta_cycles,
        }
    }

    fn opc_slots(&mut self, class: OpClass) -> (&mut u64, &mut u64) {
        match class {
            OpClass::IntAlu => (&mut self.opc_int_alu_retired, &mut self.opc_int_alu_cycles),
            OpClass::CapManip => (
                &mut self.opc_cap_manip_retired,
                &mut self.opc_cap_manip_cycles,
            ),
            OpClass::MemScalar => (
                &mut self.opc_mem_scalar_retired,
                &mut self.opc_mem_scalar_cycles,
            ),
            OpClass::MemCap => (&mut self.opc_mem_cap_retired, &mut self.opc_mem_cap_cycles),
            OpClass::Branch => (&mut self.opc_branch_retired, &mut self.opc_branch_cycles),
            OpClass::CapBranch => (
                &mut self.opc_cap_branch_retired,
                &mut self.opc_cap_branch_cycles,
            ),
            OpClass::Runtime => (&mut self.opc_runtime_retired, &mut self.opc_runtime_cycles),
            OpClass::Meta => (&mut self.opc_meta_retired, &mut self.opc_meta_cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_spec_counts_every_class_once() {
        let s = UarchStats {
            inst_spec: 100,
            ld_spec: 20,
            st_spec: 10,
            dp_spec: 40,
            ase_spec: 5,
            vfp_spec: 15,
            br_immed_spec: 7,
            br_indirect_spec: 2,
            br_return_spec: 1,
            ..UarchStats::default()
        };
        assert_eq!(s.sum_spec(), 200);
    }

    #[test]
    fn ipc_guards_zero_cycles() {
        let s = UarchStats {
            inst_retired: 10,
            ..UarchStats::default()
        };
        assert_eq!(s.ipc(), 10.0);
    }
}
