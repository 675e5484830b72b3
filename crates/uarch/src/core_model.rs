//! The top-down accounting core: consumes retired-instruction events and
//! charges every stall cycle to one bucket.

use crate::branch::{Btb, Gshare, ReturnStack};
use crate::cache::{Cache, CacheGeometry, Tlb};
use crate::config::UarchConfig;
use crate::stats::UarchStats;
use cheri_isa::{BranchKind, EventSink, InstClass, OpClass, RetiredEvent, RetiredInfo};
use std::collections::VecDeque;

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    L1,
    L2,
    Llc,
    Dram,
}

/// Floating-point cycle accumulators, one per top-down bucket.
#[derive(Clone, Copy, Debug, Default)]
struct Buckets {
    retire: f64,
    frontend: f64,
    pcc: f64,
    mem_l1: f64,
    mem_l2: f64,
    mem_ext: f64,
    core: f64,
    sb_stall: f64,
    badspec: f64,
}

impl Buckets {
    fn total(&self) -> f64 {
        self.retire
            + self.frontend
            + self.pcc
            + self.mem_l1
            + self.mem_l2
            + self.mem_ext
            + self.core
            + self.sb_stall
            + self.badspec
    }
}

/// `x.ceil() as u64` for finite `x >= 0`, without the libm call: the
/// truncation is exact, and one compare says whether a fraction was cut
/// off. Saturates at `u64::MAX` exactly as the `as` cast does.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

/// The timing model. Implements [`EventSink`]: feed it the interpreter's
/// event stream, then call [`TimingCore::finish`].
///
/// ```
/// use cheri_isa::{Abi, Interp, InterpConfig, ProgramBuilder};
/// use morello_uarch::{TimingCore, UarchConfig};
///
/// let mut b = ProgramBuilder::new("demo", Abi::Hybrid);
/// let main = b.function("main", 0, |f| {
///     let n = f.vreg();
///     f.mov_imm(n, 1000);
///     f.for_loop(0, n, 1, |_, _| {});
///     f.halt();
/// });
/// b.set_entry(main);
/// let prog = b.lower();
/// let mut core = TimingCore::new(UarchConfig::neoverse_n1_morello());
/// Interp::new(InterpConfig::default()).run(&prog, &mut core).unwrap();
/// let stats = core.finish();
/// assert!(stats.cpu_cycles > 0);
/// assert!(stats.ipc() <= 4.0);
/// ```
pub struct TimingCore {
    cfg: UarchConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    l2tlb: Tlb,
    gshare: Gshare,
    btb: Btb,
    ras: ReturnStack,
    tag_cache: Cache,
    store_buffer: VecDeque<f64>,
    last_store_completion: f64,
    cycle: f64,
    buckets: Buckets,
    dram_next_free: f64,
    last_fetch_line: u64,
    last_fetch_page: u64,
    prev_was_mul: bool,
    // `cycles()` as of the previous opcode-class attribution: buckets
    // only change while retiring, so the next attribution's "cycles
    // before" is the previous one's "cycles after" — caching it halves
    // the number of bucket summations without changing any value.
    cycles_after_last_retire: u64,
    // `1.0 / issue_width`, computed once: the quotient is the same f64
    // every retire, so dividing up front instead of per event changes
    // nothing downstream.
    issue_slot_cost: f64,
    s: UarchStats,
}

/// Adds `amount` to one bucket and the running cycle clock, exactly as
/// the old fn-pointer `charge` helper did (same two f64 additions in the
/// same order), but monomorphised per bucket field.
macro_rules! charge {
    ($self:ident, $amount:expr, $field:ident) => {{
        let amount = $amount;
        $self.buckets.$field += amount;
        $self.cycle += amount;
    }};
}

impl TimingCore {
    /// Creates a core in its post-reset state.
    pub fn new(cfg: UarchConfig) -> TimingCore {
        TimingCore {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            itlb: Tlb::new(cfg.l1i_tlb_entries),
            dtlb: Tlb::new(cfg.l1d_tlb_entries),
            l2tlb: Tlb::new(cfg.l2_tlb_entries),
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_entries),
            // One tag byte covers 128 data bytes; model the tag cache as a
            // set-associative cache over tag-granule addresses.
            tag_cache: Cache::new(CacheGeometry::new(cfg.tag_cache_bytes.max(1024), 4, 64)),
            store_buffer: VecDeque::with_capacity(cfg.store_buffer_entries as usize + 2),
            last_store_completion: 0.0,
            cycle: 0.0,
            buckets: Buckets::default(),
            dram_next_free: 0.0,
            last_fetch_line: u64::MAX,
            last_fetch_page: u64::MAX,
            prev_was_mul: false,
            cycles_after_last_retire: 0,
            issue_slot_cost: 1.0 / cfg.issue_width as f64,
            cfg,
            s: UarchStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &UarchConfig {
        &self.cfg
    }

    /// Finalises cycle accounting and returns the full counter set.
    pub fn finish(self) -> UarchStats {
        self.snapshot()
    }

    /// The full counter set as of now, without consuming the core —
    /// the cheap hook behind windowed (`pmcstat -w`-style) collection
    /// and region profiling. Calling this mid-run and feeding more
    /// events afterwards is fine: counters are cumulative, so
    /// successive snapshots yield exact interval deltas.
    pub fn snapshot(&self) -> UarchStats {
        let b = self.buckets;
        let mut s = self.s;
        s.cpu_cycles = ceil_u64(b.total());
        s.stall_frontend = (b.frontend + b.pcc).round() as u64;
        s.stall_backend = (b.mem_l1 + b.mem_l2 + b.mem_ext + b.core + b.sb_stall).round() as u64;
        s.bound_mem_l1 = b.mem_l1.round() as u64;
        s.bound_mem_l2 = b.mem_l2.round() as u64;
        s.bound_mem_ext = b.mem_ext.round() as u64;
        s.bound_core = (b.core + b.sb_stall).round() as u64;
        s.badspec_cycles = b.badspec.round() as u64;
        s.pcc_stall_cycles = b.pcc.round() as u64;
        s.store_buffer_stalls = b.sb_stall.round() as u64;
        s.l1i_cache = self.l1i.stats().accesses;
        s.l1i_cache_refill = self.l1i.stats().refills;
        s.l1d_cache = self.l1d.stats().accesses;
        s.l1d_cache_refill = self.l1d.stats().refills;
        s.l2d_cache = self.l2.stats().accesses;
        s.l2d_cache_refill = self.l2.stats().refills;
        s.l1i_tlb = self.itlb.stats().accesses;
        s.l1i_tlb_refill = self.itlb.stats().refills;
        s.l1d_tlb = self.dtlb.stats().accesses;
        s.l1d_tlb_refill = self.dtlb.stats().refills;
        s.l2d_tlb = self.l2tlb.stats().accesses;
        s.l2d_tlb_refill = self.l2tlb.stats().refills;
        s
    }

    /// Total cycles accounted so far (cheap; no counter materialisation).
    pub fn cycles(&self) -> u64 {
        ceil_u64(self.buckets.total())
    }

    // ---- Instruction fetch -------------------------------------------------

    fn fetch(&mut self, pc: u64) {
        let line = pc & !(self.cfg.l1i.line - 1);
        if line == self.last_fetch_line {
            return;
        }
        self.last_fetch_line = line;
        if !self.l1i.access(line, false) {
            // Instruction refill through the unified L2 (and below).
            let served = self.lower_levels(line, false, true);
            let pen = match served {
                Served::L2 => self.cfg.lat_l2,
                Served::Llc => self.cfg.lat_llc,
                _ => self.cfg.lat_dram,
            } as f64;
            // Fetch-ahead hides part of the refill latency.
            charge!(self, pen * 0.7, frontend);
        }
        let page = pc >> 12;
        if page != self.last_fetch_page {
            self.last_fetch_page = page;
            if !self.itlb.access(pc) {
                if self.l2tlb.access(pc) {
                    charge!(self, self.cfg.lat_l2_tlb as f64, frontend);
                } else {
                    self.s.itlb_walk += 1;
                    charge!(self, self.cfg.tlb_walk_cycles as f64, frontend);
                }
            }
        }
    }

    /// Walks L2 → LLC → DRAM after an L1 miss, updating all counters, and
    /// reports which level served the line. `read` controls LLC read
    /// counters (the paper only uses the read-side LLC events).
    fn lower_levels(&mut self, addr: u64, write: bool, _ifetch: bool) -> Served {
        if self.l2.access(addr, write) {
            return Served::L2;
        }
        if !write {
            self.s.ll_cache_rd += 1;
        }
        if self.llc.access(addr, write) {
            return Served::Llc;
        }
        if !write {
            self.s.ll_cache_miss_rd += 1;
        }
        Served::Dram
    }

    // ---- Data side -----------------------------------------------------------

    fn dtlb_lookup(&mut self, addr: u64) {
        if !self.dtlb.access(addr) {
            if self.l2tlb.access(addr) {
                charge!(self, self.cfg.lat_l2_tlb as f64, mem_l1);
            } else {
                self.s.dtlb_walk += 1;
                charge!(self, self.cfg.tlb_walk_cycles as f64, mem_ext);
            }
        }
    }

    fn data_access(&mut self, addr: u64, write: bool, dep: bool) -> Served {
        self.dtlb_lookup(addr);
        let (hit, victim) = self.l1d.access_wb(addr, write);
        if let Some(wb) = victim {
            // The evicted dirty line is written back into the L2 (and
            // cascades further on an L2 dirty eviction). Write-backs are
            // off the load/store critical path, so they count as traffic
            // but cost no core cycles.
            let (_, l2_victim) = self.l2.access_wb(wb, true);
            if let Some(wb2) = l2_victim {
                self.llc.access(wb2, true);
            }
        }
        if hit {
            return Served::L1;
        }
        let served = self.lower_levels(addr, write, false);
        if self.cfg.prefetch_next_line && !dep {
            let next = addr.wrapping_add(self.cfg.l1d.line);
            self.l1d.prefetch(next);
            self.l2.prefetch(next);
        }
        served
    }

    /// Capability traffic that reaches DRAM must also fetch/update its tag
    /// line from the in-DRAM tag table (extension model; the baseline
    /// folds this into the DRAM latency constant).
    fn tag_table_access(&mut self, addr: u64) {
        if !self.cfg.tag_table_model {
            return;
        }
        self.s.tag_cache_access += 1;
        // One tag byte covers 8 granules (128 data bytes).
        let tag_addr = addr >> 7;
        if !self.tag_cache.access(tag_addr, false) {
            self.s.tag_cache_miss += 1;
            let extra = self.cfg.tag_miss_penalty as f64 / self.cfg.mlp_streaming as f64;
            charge!(self, extra, mem_ext);
        }
    }

    fn dram_queue_delay(&mut self) -> f64 {
        let start = self.cycle.max(self.dram_next_free);
        let delay = start - self.cycle;
        self.dram_next_free = start + self.cfg.dram_line_cycles as f64;
        delay
    }

    fn on_load(&mut self, addr: u64, is_cap: bool, dep: bool) {
        self.s.ld_spec += 1;
        self.s.mem_access_rd += 1;
        if is_cap {
            self.s.cap_mem_access_rd += 1;
            self.s.mem_access_rd_ctag += 1;
        }
        let served = self.data_access(addr, false, dep);
        if is_cap && served == Served::Dram {
            self.tag_table_access(addr);
        }
        // Exposed latency: a dependent (pointer-chasing) access pays the
        // full level latency plus the chase penalty; a streaming access
        // amortises it across the memory-level parallelism window. The
        // common case — a non-dependent L1 hit — charges nothing, so its
        // (zero) exposed latency is never computed.
        match served {
            Served::L1 => {
                if dep {
                    charge!(self, 0.0 + self.cfg.chase_l1_penalty, mem_l1);
                }
            }
            Served::L2 => {
                let base = (self.cfg.lat_l2 - self.cfg.lat_l1) as f64;
                let exposed = if dep {
                    base + self.cfg.chase_l1_penalty
                } else {
                    base / self.cfg.mlp_streaming as f64
                };
                charge!(self, exposed, mem_l2);
            }
            Served::Llc => {
                let base = (self.cfg.lat_llc - self.cfg.lat_l1) as f64;
                let exposed = if dep {
                    base + self.cfg.chase_l1_penalty
                } else {
                    base / self.cfg.mlp_streaming as f64
                };
                charge!(self, exposed, mem_ext);
            }
            Served::Dram => {
                let base = (self.cfg.lat_dram - self.cfg.lat_l1) as f64 + self.dram_queue_delay();
                let exposed = if dep {
                    base + self.cfg.chase_l1_penalty
                } else {
                    base / self.cfg.mlp_streaming as f64
                };
                charge!(self, exposed, mem_ext);
            }
        }
    }

    fn on_store(&mut self, addr: u64, is_cap: bool) {
        self.s.st_spec += 1;
        self.s.mem_access_wr += 1;
        if is_cap {
            self.s.cap_mem_access_wr += 1;
            self.s.mem_access_wr_ctag += 1;
        }
        let served = self.data_access(addr, true, false);
        if is_cap && served == Served::Dram {
            self.tag_table_access(addr);
        }
        let mut service = match served {
            Served::L1 => 1.0,
            Served::L2 => 3.0,
            Served::Llc => 8.0,
            Served::Dram => 20.0,
        };
        if is_cap {
            // The tag-table write extends a capability store's occupancy.
            service += 1.5;
        }
        let entries = if is_cap && !self.cfg.wide_cap_store_buffer {
            2
        } else {
            1
        };
        // Drain completed entries.
        while let Some(&front) = self.store_buffer.front() {
            if front <= self.cycle {
                self.store_buffer.pop_front();
            } else {
                break;
            }
        }
        // Stall until there is room.
        let cap = self.cfg.store_buffer_entries as usize;
        while self.store_buffer.len() + entries > cap {
            let t = self
                .store_buffer
                .pop_front()
                .expect("store buffer cannot be empty while over capacity");
            if t > self.cycle {
                let stall = t - self.cycle;
                charge!(self, stall, sb_stall);
            }
        }
        let completion = self.cycle.max(self.last_store_completion) + service;
        self.last_store_completion = completion;
        for _ in 0..entries {
            self.store_buffer.push_back(completion);
        }
    }

    // ---- Branches --------------------------------------------------------------

    fn on_branch(&mut self, pc: u64, kind: BranchKind, taken: bool, target: u64, pcc: bool) {
        self.s.br_retired += 1;
        let mispredicted = match kind {
            BranchKind::Immediate => {
                let pred = self.gshare.predict(pc);
                self.gshare.update(pc, taken);
                pred != taken
            }
            BranchKind::Call => {
                self.ras.push(pc + 4);
                false
            }
            BranchKind::IndirectCall | BranchKind::Indirect => {
                let pred = self.btb.predict(pc);
                self.btb.update(pc, target);
                if matches!(kind, BranchKind::IndirectCall) {
                    self.ras.push(pc + 4);
                }
                pred != Some(target)
            }
            BranchKind::Return => self.ras.pop() != Some(target),
        };
        if mispredicted {
            self.s.br_mis_pred_retired += 1;
            charge!(self, self.cfg.mispredict_penalty as f64, badspec);
        }
        if pcc {
            self.s.pcc_change_branches += 1;
            if !self.cfg.pcc_aware_branch_predictor {
                charge!(self, self.cfg.pcc_change_stall as f64, pcc);
            }
        }
        if taken {
            // Redirect: the next fetch group starts at the target line.
            self.last_fetch_line = u64::MAX;
            self.btb.note_path(target);
        }
    }

    fn count_class(&mut self, class: InstClass) {
        match class {
            InstClass::Dp => self.s.dp_spec += 1,
            InstClass::Vfp => self.s.vfp_spec += 1,
            InstClass::Ase => self.s.ase_spec += 1,
            InstClass::Ld => {} // counted in on_load
            InstClass::St => {}
            InstClass::BrImmed => self.s.br_immed_spec += 1,
            InstClass::BrIndirect => self.s.br_indirect_spec += 1,
            InstClass::BrReturn => self.s.br_return_spec += 1,
        }
    }
}

impl TimingCore {
    /// The shared retire body behind every [`EventSink`] entry point:
    /// charges one instruction (fetch, issue, execute, memory, resteers)
    /// but leaves its opcode-class attribution to
    /// [`attribute`](TimingCore::attribute).
    fn retire_event(&mut self, ev: RetiredEvent) {
        self.s.inst_retired += 1;
        self.s.inst_spec += 1;
        self.fetch(ev.pc);
        // Every instruction consumes one issue slot.
        charge!(self, self.issue_slot_cost, retire);

        let mut is_mul = false;
        match ev.info {
            RetiredInfo::Simple(class) => {
                self.count_class(class);
                let cost = match class {
                    InstClass::Dp => self.cfg.dp_core_cost,
                    InstClass::Vfp | InstClass::Ase => self.cfg.vfp_core_cost,
                    _ => 0.0,
                };
                if cost > 0.0 {
                    charge!(self, cost, core);
                }
            }
            RetiredInfo::LongLatency { class, extra } => {
                self.count_class(class);
                is_mul = class == InstClass::Dp && extra == 1;
                // Long-latency ops expose a fraction of their latency as
                // execution-resource pressure (out-of-order execution
                // overlaps independent long ops).
                charge!(self, extra as f64 * 0.3, core);
            }
            RetiredInfo::CapManip => {
                self.count_class(InstClass::Dp);
                self.s.cap_manip_spec += 1;
                let fused = self.cfg.cap_madd_fusion && self.prev_was_mul;
                if !fused {
                    charge!(self, self.cfg.cap_manip_core_cost, core);
                }
            }
            RetiredInfo::Load {
                addr,
                is_cap,
                dep_load,
                ..
            } => self.on_load(addr, is_cap, dep_load),
            RetiredInfo::Store { addr, is_cap, .. } => self.on_store(addr, is_cap),
            RetiredInfo::Branch {
                kind,
                taken,
                target,
                pcc_change,
            } => {
                self.count_class(ev.info.class());
                self.on_branch(ev.pc, kind, taken, target, pcc_change);
            }
        }
        self.prev_was_mul = is_mul;
    }

    /// Per-opcode-class attribution of the `retired` instructions of
    /// `opclass` retired since the last attribution: everything they
    /// charged lands in the cycles() delta since then, so per-class
    /// cycles telescope exactly to CPU_CYCLES and retired counts to
    /// INST_RETIRED — whether the delta covers one instruction or a run
    /// of same-class ones.
    fn attribute(&mut self, opclass: OpClass, retired: u64) {
        // Buckets change only while retiring, so the reading cached at
        // the previous attribution is exactly the cycles() before this
        // run of instructions.
        let cycles_after = self.cycles();
        self.s.opc_attribute(
            opclass,
            retired,
            cycles_after - self.cycles_after_last_retire,
        );
        self.cycles_after_last_retire = cycles_after;
    }

    fn retire_with_class(&mut self, ev: RetiredEvent, opclass: OpClass) {
        debug_assert_eq!(opclass, OpClass::of(ev.pc, &ev.info));
        debug_assert_eq!(self.cycles_after_last_retire, self.cycles());
        self.retire_event(ev);
        self.attribute(opclass, 1);
    }
}

impl EventSink for TimingCore {
    /// The timing core opts into superblock-batched delivery: the fast
    /// engine buffers a block's interior events and hands them over in
    /// one call, amortising the sink hop over the block.
    const WANTS_BLOCK_EVENTS: bool = true;

    fn retire(&mut self, ev: RetiredEvent) {
        let opclass = OpClass::of(ev.pc, &ev.info);
        self.retire_with_class(ev, opclass);
    }

    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.retire_with_class(ev, class);
    }

    /// Batched delivery walks the block's events through the *same*
    /// per-event retire body in the same order, attributing once per
    /// maximal run of same-class events: the per-event cycle deltas of a
    /// run telescope to the run's delta, so `UarchStats` is
    /// bit-identical whichever delivery mode the engine picks (locked by
    /// the `differential_timing` harness).
    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        debug_assert_eq!(self.cycles_after_last_retire, self.cycles());
        for run in evs.chunk_by(|a, b| a.1 == b.1) {
            for &(ev, class) in run {
                debug_assert_eq!(class, OpClass::of(ev.pc, &ev.info));
                self.retire_event(ev);
            }
            self.attribute(run[0].1, run.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{Abi, Interp, InterpConfig, MemSize, ProgramBuilder};

    fn run(abi: Abi, cfg: UarchConfig, build: impl Fn(&mut ProgramBuilder)) -> UarchStats {
        let mut b = ProgramBuilder::new("t", abi);
        build(&mut b);
        let prog = b.lower();
        let mut core = TimingCore::new(cfg);
        Interp::new(InterpConfig::default())
            .run(&prog, &mut core)
            .unwrap();
        core.finish()
    }

    fn streaming_sum_passes(size_kb: u64, passes: u64) -> impl Fn(&mut ProgramBuilder) {
        move |b: &mut ProgramBuilder| {
            let bytes = size_kb * 1024;
            let g = b.global_zero("arr", bytes);
            let main = b.function("main", 0, |f| {
                let p = f.vreg();
                f.lea_global(p, g, 0);
                let reps = f.vreg();
                f.mov_imm(reps, passes);
                let n = f.vreg();
                f.mov_imm(n, bytes / 8);
                let sum = f.vreg();
                f.mov_imm(sum, 0);
                f.for_loop(0, reps, 1, |f, _| {
                    f.for_loop(0, n, 1, |f, i| {
                        let off = f.vreg();
                        f.lsl(off, i, 3);
                        let v = f.vreg();
                        f.load_int(v, p, off, MemSize::S8);
                        f.add(sum, sum, v);
                    });
                });
                f.halt_code(sum);
            });
            b.set_entry(main);
        }
    }

    fn streaming_sum(size_kb: u64) -> impl Fn(&mut ProgramBuilder) {
        streaming_sum_passes(size_kb, 8)
    }

    #[test]
    fn ipc_bounded_by_width() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(16),
        );
        assert!(s.ipc() > 0.2 && s.ipc() <= 4.0, "ipc = {}", s.ipc());
        assert_eq!(s.inst_retired, s.inst_spec);
    }

    #[test]
    fn small_working_set_hits_l1() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(16),
        );
        let mr = s.l1d_cache_refill as f64 / s.l1d_cache as f64;
        // 16 KiB fits L1D; only cold misses (with prefetch, fewer).
        assert!(mr < 0.02, "L1D miss rate {mr} too high for a 16 KiB set");
    }

    #[test]
    fn large_working_set_spills() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(8192), // 8 MiB >> LLC
        );
        assert!(s.l2d_cache_refill > 0);
        assert!(s.ll_cache_miss_rd > 0);
        // Streaming misses every 8th element (64B line / 8B loads), halved
        // by the next-line prefetcher.
        let mr = s.l1d_cache_refill as f64 / s.l1d_cache as f64;
        assert!(mr < 0.14, "prefetcher should cut streaming misses: {mr}");
    }

    #[test]
    fn bigger_footprint_is_slower() {
        let cfg = UarchConfig::neoverse_n1_morello();
        let small = run(Abi::Hybrid, cfg, streaming_sum_passes(32, 32));
        let large = run(Abi::Hybrid, cfg, streaming_sum_passes(4096, 2));
        let cpi_small = small.cpu_cycles as f64 / small.inst_retired as f64;
        let cpi_large = large.cpu_cycles as f64 / large.inst_retired as f64;
        assert!(
            cpi_large > cpi_small,
            "4 MiB sweep must be slower per instruction ({cpi_large} vs {cpi_small})"
        );
    }

    #[test]
    fn topdown_buckets_sum_to_cycles() {
        let s = run(
            Abi::Purecap,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(256),
        );
        let sum = s.stall_frontend + s.stall_backend + s.badspec_cycles;
        assert!(
            sum < s.cpu_cycles,
            "stalls {sum} must leave room for retirement in {}",
            s.cpu_cycles
        );
        let backend = s.bound_mem_l1 + s.bound_mem_l2 + s.bound_mem_ext + s.bound_core;
        assert!((backend as i64 - s.stall_backend as i64).abs() <= 2);
    }

    #[test]
    fn pcc_stalls_gate_on_config_and_abi() {
        let chatty_calls = |b: &mut ProgramBuilder| {
            let lib = b.module("lib");
            let f1 = b.function_in(lib, "ext", 0, |f| {
                let r = f.vreg();
                f.mov_imm(r, 1);
                f.ret(Some(r));
            });
            let main = b.function("main", 0, |f| {
                let n = f.vreg();
                f.mov_imm(n, 500);
                f.for_loop(0, n, 1, |f, _| {
                    let r = f.vreg();
                    f.call(f1, &[], Some(r));
                });
                f.halt();
            });
            b.set_entry(main);
        };
        let morello = UarchConfig::neoverse_n1_morello();
        let aware = morello.with_pcc_aware_bp(true);

        let purecap = run(Abi::Purecap, morello, chatty_calls);
        assert!(purecap.pcc_change_branches >= 1000);
        assert!(purecap.pcc_stall_cycles > 0);

        let purecap_aware = run(Abi::Purecap, aware, chatty_calls);
        assert_eq!(purecap_aware.pcc_stall_cycles, 0);
        assert!(purecap_aware.cpu_cycles < purecap.cpu_cycles);

        let benchmark = run(Abi::Benchmark, morello, chatty_calls);
        assert_eq!(benchmark.pcc_change_branches, 0);
        assert_eq!(benchmark.pcc_stall_cycles, 0);

        let hybrid = run(Abi::Hybrid, morello, chatty_calls);
        assert_eq!(hybrid.pcc_change_branches, 0);
    }

    #[test]
    fn store_buffer_pressure_hits_capability_stores() {
        let store_storm = |b: &mut ProgramBuilder| {
            let g = b.global_zero("buf", 1 << 20);
            let main = b.function("main", 0, |f| {
                let p = f.vreg();
                f.lea_global(p, g, 0);
                let n = f.vreg();
                f.mov_imm(n, 20_000);
                f.for_loop(0, n, 1, |f, i| {
                    let off = f.vreg();
                    f.lsl(off, i, 4);
                    let mask = f.vreg();
                    f.mov_imm(mask, (1 << 20) - 1);
                    f.and(off, off, mask);
                    let q = f.vreg();
                    f.ptr_add(q, p, off);
                    f.store_ptr(p, q, 0);
                });
                f.halt();
            });
            b.set_entry(main);
        };
        let morello = UarchConfig::neoverse_n1_morello();
        let narrow = run(Abi::Purecap, morello, store_storm);
        let wide = run(
            Abi::Purecap,
            morello.with_wide_cap_store_buffer(true),
            store_storm,
        );
        assert!(
            narrow.store_buffer_stalls > wide.store_buffer_stalls,
            "wide store buffer must relieve capability-store pressure ({} vs {})",
            narrow.store_buffer_stalls,
            wide.store_buffer_stalls
        );
    }

    #[test]
    fn mispredict_counting_and_badspec() {
        // A data-dependent unpredictable branch pattern.
        let noisy = |b: &mut ProgramBuilder| {
            let main = b.function("main", 0, |f| {
                let n = f.vreg();
                f.mov_imm(n, 4000);
                let x = f.vreg();
                f.mov_imm(x, 12345);
                let acc = f.vreg();
                f.mov_imm(acc, 0);
                f.for_loop(0, n, 1, |f, _| {
                    // xorshift PRNG
                    let t = f.vreg();
                    f.lsr(t, x, 7);
                    f.eor(x, x, t);
                    f.lsl(t, x, 9);
                    f.eor(x, x, t);
                    let bit = f.vreg();
                    f.and(bit, x, 1);
                    let skip = f.label();
                    f.br(cheri_isa::Cond::Eq, bit, 0, skip);
                    f.add(acc, acc, 1);
                    f.bind(skip);
                });
                f.halt_code(acc);
            });
            b.set_entry(main);
        };
        let s = run(Abi::Hybrid, UarchConfig::neoverse_n1_morello(), noisy);
        let mr = s.br_mis_pred_retired as f64 / s.br_retired as f64;
        assert!(
            mr > 0.05 && mr < 0.5,
            "PRNG branch should mispredict substantially: {mr}"
        );
        assert!(s.badspec_cycles > 0);
    }

    #[test]
    fn tag_table_model_charges_capability_dram_traffic() {
        // A purecap pointer-array sweep larger than the LLC: with the tag
        // table modelled, capability misses also miss the (small) tag
        // cache and pay extra external-memory cycles.
        let cap_sweep = |b: &mut ProgramBuilder| {
            let n: u64 = 256 * 1024; // ptr slots; 4 MiB of capabilities
            let main = b.function("main", 0, |f| {
                let arr = f.vreg();
                f.malloc(arr, n * 16);
                let lim = f.vreg();
                f.mov_imm(lim, n);
                f.for_loop(0, lim, 1, |f, i| {
                    store_ptr_like(f, arr, i);
                });
                f.halt();
            });
            b.set_entry(main);
        };
        fn store_ptr_like(
            f: &mut cheri_isa::FunctionBuilder,
            arr: cheri_isa::VReg,
            i: cheri_isa::VReg,
        ) {
            f.store_ptr_idx(arr, arr, i);
        }
        let base = UarchConfig::neoverse_n1_morello();
        let off = run(Abi::Purecap, base, cap_sweep);
        assert_eq!(off.tag_cache_access, 0, "model disabled by default");
        let on = run(Abi::Purecap, base.with_tag_table_model(true), cap_sweep);
        assert!(on.tag_cache_access > 10_000, "{}", on.tag_cache_access);
        assert!(on.tag_cache_miss > 0);
        assert!(on.tag_cache_miss <= on.tag_cache_access);
        assert!(
            on.cpu_cycles > off.cpu_cycles,
            "tag-table traffic must cost cycles ({} vs {})",
            on.cpu_cycles,
            off.cpu_cycles
        );
        // Hybrid traffic is untouched by the knob.
        let h = run(Abi::Hybrid, base.with_tag_table_model(true), cap_sweep);
        assert_eq!(h.tag_cache_access, 0);
    }

    #[test]
    fn dtlb_walks_appear_with_huge_footprints() {
        let s = run(
            Abi::Hybrid,
            UarchConfig::neoverse_n1_morello(),
            streaming_sum(16 * 1024), // 16 MiB = 4096 pages >> TLB reach
        );
        assert!(s.dtlb_walk > 0, "16 MiB sweep must walk the page table");
        assert!(s.l1d_tlb_refill > 0);
    }

    #[test]
    fn ceil_u64_matches_the_libm_ceil_cast() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let two53 = 2.0 * two52;
        let cases = [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            1e-300,
            0.25,
            0.5,
            0.999_999_999_999_999_9,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            2.5,
            3.5,
            1_234_567.5,
            1e15 + 0.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            1e19,
            18_446_744_073_709_549_568.0, // largest f64 below 2^64
            18_446_744_073_709_551_616.0, // 2^64: saturates
            1e300,
            f64::MAX,
        ];
        for x in cases {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "x = {x:e}");
        }
        for k in 0..2_000_u32 {
            for frac in [0.0, 0.25, 0.5, 0.75] {
                let x = f64::from(k) + frac;
                assert_eq!(ceil_u64(x), x.ceil() as u64, "x = {x}");
            }
        }
    }
}
