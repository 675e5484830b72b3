//! The top-down accounting core: consumes retired-instruction events and
//! charges every stall cycle to one bucket.
//!
//! Two deliveries reach the same per-op charge logic. Events (one by
//! one, batched per superblock, or logged) go through
//! [`TimingCore::retire_event`]; a logged superblock execution goes
//! through the block's [`Plan`], which holds what its events would
//! repeat on every execution (the per-op charges, the counter sums, the
//! same-class run ends and the L1I line crossings) and reads only the
//! loads' and stores' payloads. Both call [`TimingCore::charge_op`] for
//! every op, in op order, so every f64 accumulator sees the same
//! additions in the same order either way.

use crate::branch::{Btb, Gshare, ReturnStack};
use crate::cache::{Cache, CacheGeometry, Tlb};
use crate::config::UarchConfig;
use crate::stats::UarchStats;
use cheri_isa::{
    BranchKind, EventSink, InstClass, LogItem, MemAccess, OpClass, RetireLog, RetiredEvent,
    RetiredInfo,
};
use std::cell::RefCell;

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

/// The state every op's charges read and write: the running cycle
/// clock, the ops charged so far (their issue slots reach the retire
/// bucket through [`IssueSlots`]), the core bucket, whether the previous
/// op was a multiply (for `cap_madd_fusion`) and the cycles attributed
/// so far. It is `Copy` so each [`EventSink`] entry point loads it once
/// into locals, threads it through the inlined per-op helpers and writes
/// it back before returning: the charges then accumulate in registers
/// instead of through `self`. The other seven buckets stay in the core's
/// [`Stalls`]: only an op that stalls charges them, and leaving them out
/// keeps the ledger small enough for the registers.
#[derive(Clone, Copy, Debug, Default)]
struct Ledger {
    cycle: f64,
    ops: u64,
    core: f64,
    prev_was_mul: bool,
    // `cycles()` as of the previous opcode-class attribution: buckets
    // only change while retiring, so the next attribution's "cycles
    // before" is the previous one's "cycles after" — caching it halves
    // the number of bucket summations without changing any value.
    attributed: u64,
}

/// The top-down buckets an op charges only when it stalls.
#[derive(Clone, Copy, Debug, Default)]
struct Stalls {
    mem_l1: f64,
    frontend: f64,
    pcc: f64,
    mem_l2: f64,
    mem_ext: f64,
    sb_stall: f64,
    badspec: f64,
}

impl Stalls {
    /// All nine buckets, with the retire and core buckets given.
    #[inline(always)]
    fn buckets(&self, retire: f64, core: f64) -> Buckets {
        Buckets {
            retire,
            frontend: self.frontend,
            pcc: self.pcc,
            mem_l1: self.mem_l1,
            mem_l2: self.mem_l2,
            mem_ext: self.mem_ext,
            core,
            sb_stall: self.sb_stall,
            badspec: self.badspec,
        }
    }
}

/// The retire bucket: every op adds its issue slot, `1 / issue_width`,
/// one after another, so after `n` ops it holds a value that depends on
/// `n` alone. The ledger counts ops and the bucket is summed when it is
/// read; each op still adds its slot to the cycle clock at once.
#[derive(Clone, Copy, Debug)]
struct IssueSlots {
    cost: f64,
    /// `cost` is a power of two: every partial sum `k * cost` is an
    /// exact f64, so the sum of `n` slots is `n * cost`, bit for bit.
    exact: bool,
    /// Otherwise the sum of the first `n` slots, extended slot by slot
    /// (in the order the ops charged them) as `n` grows.
    n: u64,
    sum: f64,
}

impl IssueSlots {
    fn new(issue_width: u32) -> IssueSlots {
        let cost = 1.0 / issue_width as f64;
        IssueSlots {
            cost,
            exact: cost.is_normal() && cost.to_bits() & ((1 << 52) - 1) == 0,
            n: 0,
            sum: 0.0,
        }
    }

    /// The retire bucket after `n` ops (`n` never decreasing between
    /// calls).
    #[inline(always)]
    fn sum_after(&mut self, n: u64) -> f64 {
        if self.exact {
            // `n < 2^53`, so the conversion is exact too.
            n as i64 as f64 * self.cost
        } else {
            self.extend(n)
        }
    }

    #[inline(never)]
    fn extend(&mut self, n: u64) -> f64 {
        debug_assert!(n >= self.n, "the op count never decreases");
        while self.n < n {
            self.sum += self.cost;
            self.n += 1;
        }
        self.sum
    }
}

/// `x.ceil() as u64` for finite `x >= 0`, without the libm call: round
/// to an integer exactly, and one compare says whether that cut a
/// fraction off. Below 2^52 (every cycle count a run reaches) the
/// rounding is one addition and needs no float-to-integer conversion;
/// above, the `as` cast truncates exactly and saturates at `u64::MAX`
/// as `x.ceil() as u64` does.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    const TWO52: f64 = 4_503_599_627_370_496.0;
    debug_assert!(x >= 0.0 || x.is_nan(), "ceil_u64 of a negative value");
    if x < TWO52 {
        // In [2^52, 2^53) the f64s are the integers: `x + 2^52` rounds
        // `x` to an integer, whose value its mantissa bits spell; taking
        // 2^52 back off is exact.
        let m = x + TWO52;
        let nearest = m.to_bits() - TWO52.to_bits();
        nearest + u64::from(m - TWO52 < x)
    } else {
        let t = x as u64;
        t.saturating_add(u64::from((t as f64) < x))
    }
}

/// Charges a stall: adds `amount` to one of the core's [`Stalls`]
/// buckets, then to the ledger's cycle clock.
macro_rules! stall {
    ($core:ident, $l:ident, $amount:expr, $field:ident) => {{
        let amount = $amount;
        $core.stalls.$field += amount;
        $l.cycle += amount;
    }};
}

/// The counters an event bumps by its static kind alone, including its
/// opcode class's retired count. Events bump them one at a time; a plan
/// holds a block's sums, scaled by its execution count when read.
#[derive(Clone, Copy, Debug, Default)]
struct RetireCounts {
    /// Retired per [`OpClass`], indexed in [`OpClass::ALL`] order.
    opc: [u64; 8],
    inst: u64,
    dp: u64,
    vfp: u64,
    ase: u64,
    br_immed: u64,
    br_indirect: u64,
    br_return: u64,
    ld: u64,
    st: u64,
    cap_ld: u64,
    cap_st: u64,
    cap_manip: u64,
}

impl RetireCounts {
    #[inline]
    fn add(&mut self, info: &RetiredInfo, class: OpClass) {
        self.opc[class as usize] += 1;
        self.inst += 1;
        match *info {
            RetiredInfo::CapManip => {
                self.dp += 1;
                self.cap_manip += 1;
            }
            RetiredInfo::Load { is_cap, .. } => {
                self.ld += 1;
                self.cap_ld += u64::from(is_cap);
            }
            RetiredInfo::Store { is_cap, .. } => {
                self.st += 1;
                self.cap_st += u64::from(is_cap);
            }
            _ => match info.class() {
                InstClass::Dp => self.dp += 1,
                InstClass::Vfp => self.vfp += 1,
                InstClass::Ase => self.ase += 1,
                InstClass::Ld | InstClass::St => {}
                InstClass::BrImmed => self.br_immed += 1,
                InstClass::BrIndirect => self.br_indirect += 1,
                InstClass::BrReturn => self.br_return += 1,
            },
        }
    }

    /// Adds `k` times `o`.
    fn add_scaled(&mut self, o: &RetireCounts, k: u64) {
        for (a, b) in self.opc.iter_mut().zip(o.opc) {
            *a += b * k;
        }
        self.inst += o.inst * k;
        self.dp += o.dp * k;
        self.vfp += o.vfp * k;
        self.ase += o.ase * k;
        self.br_immed += o.br_immed * k;
        self.br_indirect += o.br_indirect * k;
        self.br_return += o.br_return * k;
        self.ld += o.ld * k;
        self.st += o.st * k;
        self.cap_ld += o.cap_ld * k;
        self.cap_st += o.cap_st * k;
        self.cap_manip += o.cap_manip * k;
    }

    fn fold_into(&self, s: &mut UarchStats) {
        s.inst_retired = self.inst;
        s.inst_spec = self.inst;
        s.dp_spec = self.dp;
        s.vfp_spec = self.vfp;
        s.ase_spec = self.ase;
        s.br_immed_spec = self.br_immed;
        s.br_indirect_spec = self.br_indirect;
        s.br_return_spec = self.br_return;
        s.ld_spec = self.ld;
        s.mem_access_rd = self.ld;
        s.cap_mem_access_rd = self.cap_ld;
        s.mem_access_rd_ctag = self.cap_ld;
        s.st_spec = self.st;
        s.mem_access_wr = self.st;
        s.cap_mem_access_wr = self.cap_st;
        s.mem_access_wr_ctag = self.cap_st;
        s.cap_manip_spec = self.cap_manip;
    }
}

/// What one op charges beyond its issue slot, as far as its static
/// payload and the configuration decide it.
#[derive(Clone, Copy, Debug)]
enum Charge {
    /// Nothing (a branch's costs come from [`TimingCore::on_branch`]).
    Free,
    /// A fixed core cost; `mul` marks a multiply for `cap_madd_fusion`.
    Core {
        cost: f64,
        mul: bool,
    },
    /// The capability-manipulation cost, unless fused with a multiply
    /// just before.
    CapManip,
    /// A load or store: the payload's address decides the cost.
    Load {
        is_cap: bool,
    },
    Store {
        is_cap: bool,
    },
}

impl Charge {
    /// The charge of an op with payload `info` under `cfg`.
    #[inline]
    fn of(cfg: &UarchConfig, info: &RetiredInfo) -> Charge {
        match *info {
            RetiredInfo::Simple(class) => {
                let cost = match class {
                    InstClass::Dp => cfg.dp_core_cost,
                    InstClass::Vfp | InstClass::Ase => cfg.vfp_core_cost,
                    _ => 0.0,
                };
                if cost > 0.0 {
                    Charge::Core { cost, mul: false }
                } else {
                    Charge::Free
                }
            }
            // Long-latency ops expose a fraction of their latency as
            // execution-resource pressure (out-of-order execution
            // overlaps independent long ops).
            RetiredInfo::LongLatency { class, extra } => Charge::Core {
                cost: extra as f64 * 0.3,
                mul: class == InstClass::Dp && extra == 1,
            },
            RetiredInfo::CapManip => Charge::CapManip,
            RetiredInfo::Load { is_cap, .. } => Charge::Load { is_cap },
            RetiredInfo::Store { is_cap, .. } => Charge::Store { is_cap },
            RetiredInfo::Branch { .. } => Charge::Free,
        }
    }
}

/// One op of a [`Plan`].
#[derive(Clone, Copy, Debug)]
struct Step {
    pc: u64,
    charge: Charge,
    class: OpClass,
    /// The op may fetch a new L1I line: the block's entry op (whatever
    /// ran before decides) and every op whose line differs from its
    /// predecessor's. Any other op's fetch finds its line current.
    fetch: bool,
    /// The op ends a maximal run of same-class ops: attribute the run.
    run_end: bool,
}

/// A superblock's retire plan under this core's configuration, built
/// from the block's first execution in a run.
#[derive(Clone, Debug)]
struct Plan {
    /// The block's steps: `steps[start..start + len]` of [`Plans`].
    start: u32,
    len: u32,
    /// Loads and stores among them (payloads per execution).
    mem_ops: u32,
    /// The block's counter sums ...
    counts: RetireCounts,
    /// ... and how many times the plan was walked.
    execs: u64,
}

/// Every plan of the run, indexed by program-wide block id, plus the
/// static events they were built from (to retire a block a fault cut
/// short event by event).
#[derive(Default)]
struct Plans {
    by_block: Vec<u32>,
    plans: Vec<Plan>,
    steps: Vec<Step>,
    events: Vec<(RetiredEvent, OpClass)>,
}

impl Plans {
    const NONE: u32 = u32::MAX;

    fn clear(&mut self) {
        self.by_block.clear();
        self.plans.clear();
        self.steps.clear();
        self.events.clear();
    }

    /// Builds the plan of block `id` from its logged events, replacing
    /// any earlier one (from an earlier run that used the same id).
    #[inline(never)]
    fn build(&mut self, cfg: &UarchConfig, id: u32, items: &[LogItem]) {
        let event = |item: &LogItem| match *item {
            LogItem::Event(ev, class) => (ev, class),
            _ => unreachable!("a described block is described by its events"),
        };
        let line_mask = !(cfg.l1i.line - 1);
        let start = self.steps.len() as u32;
        debug_assert_eq!(start as usize, self.events.len());
        let mut counts = RetireCounts::default();
        let mut mem_ops = 0;
        for (i, item) in items.iter().enumerate() {
            let (ev, class) = event(item);
            debug_assert_eq!(class, OpClass::of(ev.pc, &ev.info));
            counts.add(&ev.info, class);
            mem_ops += u32::from(matches!(
                ev.info,
                RetiredInfo::Load { .. } | RetiredInfo::Store { .. }
            ));
            self.steps.push(Step {
                pc: ev.pc,
                charge: Charge::of(cfg, &ev.info),
                class,
                fetch: i == 0 || ev.pc & line_mask != event(&items[i - 1]).0.pc & line_mask,
                run_end: items.get(i + 1).is_none_or(|next| event(next).1 != class),
            });
            self.events.push((ev, class));
        }
        let id = id as usize;
        if self.by_block.len() <= id {
            self.by_block.resize(id + 1, Plans::NONE);
        }
        self.by_block[id] = self.plans.len() as u32;
        self.plans.push(Plan {
            start,
            len: items.len() as u32,
            mem_ops,
            counts,
            execs: 0,
        });
    }
}

/// The store buffer's entries: their completion cycles, oldest first,
/// in a ring of a power-of-two size, so pushes and pops are a mask and
/// never a capacity check.
struct StoreBuffer {
    slots: Box<[f64]>,
    head: usize,
    len: usize,
}

impl StoreBuffer {
    /// A buffer of `entries` entries (two more fit, for a capability
    /// store arriving at a full one).
    fn new(entries: usize) -> StoreBuffer {
        StoreBuffer {
            slots: vec![0.0; (entries + 2).next_power_of_two()].into(),
            head: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn front(&self) -> Option<f64> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    #[inline(always)]
    fn pop_front(&mut self) -> Option<f64> {
        let t = self.front()?;
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(t)
    }

    #[inline(always)]
    fn push_back(&mut self, t: f64) {
        let i = (self.head + self.len) & self.mask();
        self.slots[i] = t;
        self.len += 1;
        debug_assert!(self.len <= self.slots.len());
    }
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
    arena: CoreArena,
    itlb: Tlb,
    dtlb: Tlb,
    l2tlb: Tlb,
    gshare: Gshare,
    btb: Btb,
    ras: ReturnStack,
    store_buffer: StoreBuffer,
    last_store_completion: f64,
    ledger: Ledger,
    stalls: Stalls,
    dram_next_free: f64,
    last_fetch_line: u64,
    last_fetch_page: u64,
    issue_slots: IssueSlots,
    /// The counters of events retired one by one (plans hold the rest).
    counts: RetireCounts,
    /// Attributed cycles per [`OpClass`], in [`OpClass::ALL`] order.
    opc_cycles: [u64; 8],
    s: UarchStats,
}

/// The per-core state that is costly to allocate: the L1I, L1D, L2, LLC
/// and tag-cache line arrays (two of them 256 KiB under the Morello
/// configuration) and the plan storage. Recycled through a thread-local
/// pool and reset in place, so a thread that runs many cores (a suite
/// worker, the serving profiler) allocates them once per geometry.
struct CoreArena {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    tag_cache: Cache,
    plans: Plans,
}

impl CoreArena {
    /// The cache geometries `cfg` asks for, in field order.
    fn geometries(cfg: &UarchConfig) -> [CacheGeometry; 5] {
        [
            cfg.l1i,
            cfg.l1d,
            cfg.l2,
            cfg.llc,
            // One tag byte covers 128 data bytes; model the tag cache as
            // a set-associative cache over tag-granule addresses.
            CacheGeometry::new(cfg.tag_cache_bytes.max(1024), 4, 64),
        ]
    }

    fn caches(&self) -> [&Cache; 5] {
        [&self.l1i, &self.l1d, &self.l2, &self.llc, &self.tag_cache]
    }

    /// A post-reset arena for `cfg`: a pooled one of the same geometry,
    /// reset in place, or a fresh one.
    fn acquire(cfg: &UarchConfig) -> CoreArena {
        let geo = CoreArena::geometries(cfg);
        let pooled = CORE_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            let i = pool
                .iter()
                .position(|a| a.caches().map(Cache::geometry) == geo)?;
            Some(pool.swap_remove(i))
        });
        match pooled {
            Some(mut a) => {
                for c in [
                    &mut a.l1i,
                    &mut a.l1d,
                    &mut a.l2,
                    &mut a.llc,
                    &mut a.tag_cache,
                ] {
                    c.reset();
                }
                a.plans.clear();
                a
            }
            None => {
                let [l1i, l1d, l2, llc, tag_cache] = geo.map(Cache::new);
                CoreArena {
                    l1i,
                    l1d,
                    l2,
                    llc,
                    tag_cache,
                    plans: Plans::default(),
                }
            }
        }
    }

    fn release(self) {
        CORE_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < CORE_POOL_CAP {
                pool.push(self);
            }
        });
    }
}

/// Upper bound on pooled arenas per thread; beyond this, arenas drop.
/// One covers a thread that runs its cores one after another.
const CORE_POOL_CAP: usize = 1;

thread_local! {
    static CORE_POOL: RefCell<Vec<CoreArena>> = const { RefCell::new(Vec::new()) };
}

impl Drop for TimingCore {
    /// Returns the arena to this thread's pool (a core dropped on
    /// another thread than the one that made it feeds that thread's).
    fn drop(&mut self) {
        let placeholder = CoreArena {
            l1i: Cache::detached(),
            l1d: Cache::detached(),
            l2: Cache::detached(),
            llc: Cache::detached(),
            tag_cache: Cache::detached(),
            plans: Plans::default(),
        };
        std::mem::replace(&mut self.arena, placeholder).release();
    }
}

impl TimingCore {
    /// Creates a core in its post-reset state.
    pub fn new(cfg: UarchConfig) -> TimingCore {
        TimingCore {
            arena: CoreArena::acquire(&cfg),
            itlb: Tlb::new(cfg.l1i_tlb_entries),
            dtlb: Tlb::new(cfg.l1d_tlb_entries),
            l2tlb: Tlb::new(cfg.l2_tlb_entries),
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_entries),
            store_buffer: StoreBuffer::new(cfg.store_buffer_entries as usize),
            last_store_completion: 0.0,
            ledger: Ledger::default(),
            stalls: Stalls::default(),
            dram_next_free: 0.0,
            last_fetch_line: u64::MAX,
            last_fetch_page: u64::MAX,
            issue_slots: IssueSlots::new(cfg.issue_width),
            cfg,
            counts: RetireCounts::default(),
            opc_cycles: [0; 8],
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
        let b = self.buckets();
        let mut s = self.s;
        let mut counts = self.counts;
        for p in &self.arena.plans.plans {
            counts.add_scaled(&p.counts, p.execs);
        }
        counts.fold_into(&mut s);
        for class in OpClass::ALL {
            let i = class as usize;
            s.opc_attribute(class, counts.opc[i], self.opc_cycles[i]);
        }
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
        let a = &self.arena;
        s.l1i_cache = a.l1i.stats().accesses;
        s.l1i_cache_refill = a.l1i.stats().refills;
        s.l1d_cache = a.l1d.stats().accesses;
        s.l1d_cache_refill = a.l1d.stats().refills;
        s.l2d_cache = a.l2.stats().accesses;
        s.l2d_cache_refill = a.l2.stats().refills;
        s.l1i_tlb = self.itlb.stats().accesses;
        s.l1i_tlb_refill = self.itlb.stats().refills;
        s.l1d_tlb = self.dtlb.stats().accesses;
        s.l1d_tlb_refill = self.dtlb.stats().refills;
        s.l2d_tlb = self.l2tlb.stats().accesses;
        s.l2d_tlb_refill = self.l2tlb.stats().refills;
        s
    }

    /// Total cycles accounted so far (cheap; no counter materialisation):
    /// every entry point ends on an opcode-class attribution, which has
    /// just computed them.
    #[inline]
    pub fn cycles(&self) -> u64 {
        debug_assert_eq!(self.ledger.attributed, ceil_u64(self.buckets().total()));
        self.ledger.attributed
    }

    /// The nine buckets as of now.
    fn buckets(&self) -> Buckets {
        let mut slots = self.issue_slots;
        let retire = slots.sum_after(self.ledger.ops);
        self.stalls.buckets(retire, self.ledger.core)
    }

    // ---- Instruction fetch -------------------------------------------------

    #[inline(always)]
    fn fetch(&mut self, l: &mut Ledger, pc: u64) {
        let line = pc & !(self.cfg.l1i.line - 1);
        if line == self.last_fetch_line {
            return;
        }
        self.last_fetch_line = line;
        if !self.arena.l1i.access(line, false) {
            // Instruction refill through the unified L2 (and below).
            let served = self.lower_levels(line, false);
            let pen = match served {
                Served::L2 => self.cfg.lat_l2,
                Served::Llc => self.cfg.lat_llc,
                _ => self.cfg.lat_dram,
            } as f64;
            // Fetch-ahead hides part of the refill latency.
            stall!(self, l, pen * 0.7, frontend);
        }
        let page = pc >> 12;
        if page != self.last_fetch_page {
            self.last_fetch_page = page;
            if !self.itlb.access(pc) {
                if self.l2tlb.access(pc) {
                    stall!(self, l, self.cfg.lat_l2_tlb as f64, frontend);
                } else {
                    self.s.itlb_walk += 1;
                    stall!(self, l, self.cfg.tlb_walk_cycles as f64, frontend);
                }
            }
        }
    }

    /// Walks L2 → LLC → DRAM after an L1 miss, updating all counters, and
    /// reports which level served the line. Only reads count toward the
    /// LLC read counters (the paper only uses the read-side LLC events).
    fn lower_levels(&mut self, addr: u64, write: bool) -> Served {
        if self.arena.l2.access(addr, write) {
            return Served::L2;
        }
        if !write {
            self.s.ll_cache_rd += 1;
        }
        if self.arena.llc.access(addr, write) {
            return Served::Llc;
        }
        if !write {
            self.s.ll_cache_miss_rd += 1;
        }
        Served::Dram
    }

    // ---- Data side -----------------------------------------------------------

    #[inline(always)]
    fn dtlb_lookup(&mut self, l: &mut Ledger, addr: u64) {
        if !self.dtlb.access(addr) {
            if self.l2tlb.access(addr) {
                stall!(self, l, self.cfg.lat_l2_tlb as f64, mem_l1);
            } else {
                self.s.dtlb_walk += 1;
                stall!(self, l, self.cfg.tlb_walk_cycles as f64, mem_ext);
            }
        }
    }

    #[inline(always)]
    fn data_access(&mut self, l: &mut Ledger, addr: u64, write: bool, dep: bool) -> Served {
        self.dtlb_lookup(l, addr);
        match self.arena.l1d.access_wb(addr, write) {
            (true, _) => Served::L1,
            (false, victim) => self.l1d_miss(addr, write, dep, victim),
        }
    }

    /// The rest of an L1D miss: the victim's write-back, the walk down
    /// the hierarchy and the next-line prefetch. Out of line, like every
    /// other rare path: the per-op loop stays small enough for the
    /// ledger to keep its registers.
    #[inline(never)]
    fn l1d_miss(&mut self, addr: u64, write: bool, dep: bool, victim: Option<u64>) -> Served {
        let a = &mut self.arena;
        if let Some(wb) = victim {
            // The evicted dirty line is written back into the L2 (and
            // cascades further on an L2 dirty eviction). Write-backs are
            // off the load/store critical path, so they count as traffic
            // but cost no core cycles.
            let (_, l2_victim) = a.l2.access_wb(wb, true);
            if let Some(wb2) = l2_victim {
                a.llc.access(wb2, true);
            }
        }
        let served = self.lower_levels(addr, write);
        if self.cfg.prefetch_next_line && !dep {
            let next = addr.wrapping_add(self.cfg.l1d.line);
            self.arena.l1d.prefetch(next);
            self.arena.l2.prefetch(next);
        }
        served
    }

    /// Capability traffic that reaches DRAM must also fetch/update its tag
    /// line from the in-DRAM tag table (extension model; the baseline
    /// folds this into the DRAM latency constant).
    #[inline(never)]
    fn tag_table_access(&mut self, l: &mut Ledger, addr: u64) {
        if !self.cfg.tag_table_model {
            return;
        }
        self.s.tag_cache_access += 1;
        // One tag byte covers 8 granules (128 data bytes).
        let tag_addr = addr >> 7;
        if !self.arena.tag_cache.access(tag_addr, false) {
            self.s.tag_cache_miss += 1;
            let extra = self.cfg.tag_miss_penalty as f64 / self.cfg.mlp_streaming as f64;
            stall!(self, l, extra, mem_ext);
        }
    }

    #[inline]
    fn dram_queue_delay(&mut self, l: &Ledger) -> f64 {
        let start = l.cycle.max(self.dram_next_free);
        let delay = start - l.cycle;
        self.dram_next_free = start + self.cfg.dram_line_cycles as f64;
        delay
    }

    #[inline(always)]
    fn on_load(&mut self, l: &mut Ledger, addr: u64, is_cap: bool, dep: bool) {
        // Exposed latency: a dependent (pointer-chasing) access pays the
        // full level latency plus the chase penalty; a streaming access
        // amortises it across the memory-level parallelism window. The
        // common case — a non-dependent L1 hit — charges nothing, so its
        // (zero) exposed latency is never computed.
        match self.data_access(l, addr, false, dep) {
            Served::L1 => {
                if dep {
                    stall!(self, l, 0.0 + self.cfg.chase_l1_penalty, mem_l1);
                }
            }
            served => self.load_miss(l, addr, is_cap, dep, served),
        }
    }

    /// The charges of a load the L1D missed (out of line, see
    /// [`TimingCore::l1d_miss`]).
    #[inline(never)]
    fn load_miss(&mut self, l: &mut Ledger, addr: u64, is_cap: bool, dep: bool, served: Served) {
        if is_cap && served == Served::Dram {
            self.tag_table_access(l, addr);
        }
        let (lat, l2) = match served {
            Served::L1 => unreachable!("an L1 hit is no miss"),
            Served::L2 => (self.cfg.lat_l2, true),
            Served::Llc => (self.cfg.lat_llc, false),
            Served::Dram => (self.cfg.lat_dram, false),
        };
        let mut base = (lat - self.cfg.lat_l1) as f64;
        if served == Served::Dram {
            base += self.dram_queue_delay(l);
        }
        let exposed = if dep {
            base + self.cfg.chase_l1_penalty
        } else {
            base / self.cfg.mlp_streaming as f64
        };
        if l2 {
            stall!(self, l, exposed, mem_l2);
        } else {
            stall!(self, l, exposed, mem_ext);
        }
    }

    #[inline(always)]
    fn on_store(&mut self, l: &mut Ledger, addr: u64, is_cap: bool) {
        let served = self.data_access(l, addr, true, false);
        if is_cap && served == Served::Dram {
            self.tag_table_access(l, addr);
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
        while let Some(front) = self.store_buffer.front() {
            if front <= l.cycle {
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
            if t > l.cycle {
                let stall = t - l.cycle;
                stall!(self, l, stall, sb_stall);
            }
        }
        let completion = l.cycle.max(self.last_store_completion) + service;
        self.last_store_completion = completion;
        for _ in 0..entries {
            self.store_buffer.push_back(completion);
        }
    }

    // ---- Branches --------------------------------------------------------------

    #[inline(always)]
    fn on_branch(
        &mut self,
        l: &mut Ledger,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        target: u64,
        pcc: bool,
    ) {
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
            stall!(self, l, self.cfg.mispredict_penalty as f64, badspec);
        }
        if pcc {
            self.s.pcc_change_branches += 1;
            if !self.cfg.pcc_aware_branch_predictor {
                stall!(self, l, self.cfg.pcc_change_stall as f64, pcc);
            }
        }
        if taken {
            // Redirect: the next fetch group starts at the target line.
            self.last_fetch_line = u64::MAX;
            self.btb.note_path(target);
        }
    }
}

impl TimingCore {
    /// The one definition of what an op costs after its fetch: its issue
    /// slot, then its [`Charge`] (reading the load/store payload from
    /// `mem` only when it has one). Both deliveries call it for every op.
    #[inline(always)]
    fn charge_op(&mut self, l: &mut Ledger, charge: Charge, mem: impl FnOnce() -> MemAccess) {
        // Every instruction consumes one issue slot (the retire bucket
        // sums them when it is read).
        l.ops += 1;
        l.cycle += self.issue_slots.cost;
        let mut is_mul = false;
        match charge {
            Charge::Free => {}
            Charge::Core { cost, mul } => {
                l.core += cost;
                l.cycle += cost;
                is_mul = mul;
            }
            Charge::CapManip => {
                let fused = self.cfg.cap_madd_fusion && l.prev_was_mul;
                if !fused {
                    l.core += self.cfg.cap_manip_core_cost;
                    l.cycle += self.cfg.cap_manip_core_cost;
                }
            }
            Charge::Load { is_cap } => {
                let m = mem();
                self.on_load(l, m.addr, is_cap, m.dep_load);
            }
            Charge::Store { is_cap } => self.on_store(l, mem().addr, is_cap),
        }
        l.prev_was_mul = is_mul;
    }

    /// The per-event retire body behind every event entry point:
    /// charges one instruction (fetch, issue, execute, memory, resteers)
    /// but leaves its opcode-class cycles to
    /// [`attribute`](TimingCore::attribute).
    #[inline(always)]
    fn retire_event(&mut self, l: &mut Ledger, ev: RetiredEvent, class: OpClass) {
        debug_assert_eq!(class, OpClass::of(ev.pc, &ev.info));
        self.counts.add(&ev.info, class);
        self.fetch(l, ev.pc);
        let mem = match ev.info {
            RetiredInfo::Load { addr, dep_load, .. } => MemAccess { addr, dep_load },
            RetiredInfo::Store { addr, .. } => MemAccess {
                addr,
                dep_load: false,
            },
            _ => MemAccess {
                addr: 0,
                dep_load: false,
            },
        };
        self.charge_op(l, Charge::of(&self.cfg, &ev.info), || mem);
        if let RetiredInfo::Branch {
            kind,
            taken,
            target,
            pcc_change,
        } = ev.info
        {
            self.on_branch(l, ev.pc, kind, taken, target, pcc_change);
        }
    }

    /// Per-opcode-class attribution of the instructions of `opclass`
    /// retired since the last attribution: everything they charged lands
    /// in the cycles() delta since then, so per-class cycles telescope
    /// exactly to CPU_CYCLES — whether the delta covers one instruction
    /// or a run of same-class ones.
    #[inline]
    fn attribute(&mut self, l: &mut Ledger, opclass: OpClass) {
        let retire = self.issue_slots.sum_after(l.ops);
        let cycles_after = ceil_u64(self.stalls.buckets(retire, l.core).total());
        self.opc_cycles[opclass as usize] += cycles_after - l.attributed;
        l.attributed = cycles_after;
    }

    /// Retires `evs` event by event, attributing once per maximal run of
    /// same-class events: the per-event cycle deltas of a run telescope
    /// to the run's delta.
    fn retire_events(&mut self, l: &mut Ledger, evs: &[(RetiredEvent, OpClass)]) {
        for run in evs.chunk_by(|a, b| a.1 == b.1) {
            for &(ev, class) in run {
                self.retire_event(l, ev, class);
            }
            self.attribute(l, run[0].1);
        }
    }

    /// Walks plan `plan` once: per step, the fetch where a line may
    /// change, the op's charges with the next payload of `mem` where it
    /// has one, and the attribution where a run ends.
    fn walk_plan(&mut self, l: &mut Ledger, plan: usize, mem: &[MemAccess]) {
        let p = &mut self.arena.plans.plans[plan];
        p.execs += 1;
        let steps = p.start as usize..(p.start + p.len) as usize;
        let mut mem = mem.iter();
        for i in steps {
            let st = self.arena.plans.steps[i];
            if st.fetch {
                self.fetch(l, st.pc);
            }
            self.charge_op(l, st.charge, || {
                *mem.next().expect("a payload for every load and store")
            });
            if st.run_end {
                self.attribute(l, st.class);
            }
        }
        debug_assert!(mem.next().is_none(), "a payload without its op");
    }

    /// Retires the first `retired` ops of plan `plan`'s block, cut short
    /// by a fault, event by event (the events rebuilt from the plan's and
    /// the payloads in `mem`); returns the payloads used.
    #[inline(never)]
    fn retire_cut_block(
        &mut self,
        l: &mut Ledger,
        plan: usize,
        retired: u32,
        mem: &[MemAccess],
    ) -> usize {
        let plans = &self.arena.plans;
        let start = plans.plans[plan].start as usize;
        let payloads = mem.len();
        let mut mem = mem.iter();
        let evs: Vec<_> = plans.events[start..start + retired as usize]
            .iter()
            .map(|&(mut ev, class)| {
                match &mut ev.info {
                    RetiredInfo::Load { addr, dep_load, .. } => {
                        let m = mem.next().expect("a payload for every load");
                        (*addr, *dep_load) = (m.addr, m.dep_load);
                    }
                    RetiredInfo::Store { addr, .. } => {
                        *addr = mem.next().expect("a payload for every store").addr;
                    }
                    _ => {}
                }
                (ev, class)
            })
            .collect();
        let used = payloads - mem.len();
        self.retire_events(l, &evs);
        used
    }
}

impl EventSink for TimingCore {
    /// The timing core takes the fast engine's retire log: a block
    /// execution costs its load/store payloads, not its events.
    const WANTS_BLOCK_PLANS: bool = true;

    fn retire(&mut self, ev: RetiredEvent) {
        self.retire_classified(ev, OpClass::of(ev.pc, &ev.info));
    }

    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        let mut l = self.ledger;
        self.retire_event(&mut l, ev, class);
        self.attribute(&mut l, class);
        self.ledger = l;
    }

    /// Batched delivery walks the block's events through the *same*
    /// per-event retire body in the same order, attributing once per
    /// maximal run of same-class events, so `UarchStats` is
    /// bit-identical whichever delivery mode the engine picks (locked by
    /// the `differential_timing` harness).
    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        let mut l = self.ledger;
        self.retire_events(&mut l, evs);
        self.ledger = l;
    }

    /// Logged delivery: events retire one by one, attributed per run of
    /// same-class events; a described block gets its plan, which every
    /// later execution walks; a block a fault cut short retires event by
    /// event.
    fn retire_log(&mut self, log: RetireLog<'_>) {
        let mut l = self.ledger;
        let mut mem = 0;
        for (i, item) in log.items.iter().enumerate() {
            match *item {
                LogItem::Event(ev, class) => {
                    self.retire_event(&mut l, ev, class);
                    match log.items.get(i + 1) {
                        Some(LogItem::Event(_, next)) if *next == class => {}
                        _ => self.attribute(&mut l, class),
                    }
                }
                LogItem::Described { id, len } => {
                    let evs = &log.items[i - len as usize..i];
                    self.arena.plans.build(&self.cfg, id, evs);
                }
                LogItem::Block { id, retired } => {
                    let plan = self.arena.plans.by_block[id as usize] as usize;
                    let p = &self.arena.plans.plans[plan];
                    if retired == p.len {
                        let end = mem + p.mem_ops as usize;
                        self.walk_plan(&mut l, plan, &log.mem[mem..end]);
                        mem = end;
                    } else {
                        mem += self.retire_cut_block(&mut l, plan, retired, &log.mem[mem..]);
                    }
                }
            }
        }
        debug_assert_eq!(mem, log.mem.len());
        self.ledger = l;
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
    fn a_recycled_core_times_like_a_fresh_one() {
        let cfg = UarchConfig::neoverse_n1_morello();
        let pooled = || CORE_POOL.with(|p| p.borrow().len());
        CORE_POOL.with(|p| p.borrow_mut().clear());
        let fresh = run(Abi::Purecap, cfg, streaming_sum(256));
        assert_eq!(pooled(), 1, "a finished core's arena goes to the pool");
        // Another program's lines and plans, then the first again.
        let other = run(Abi::Purecap, cfg, streaming_sum_passes(64, 3));
        assert_ne!(other, fresh);
        let recycled = run(Abi::Purecap, cfg, streaming_sum(256));
        assert_eq!(recycled, fresh, "a recycled arena is reset in place");
        // A core of another geometry neither takes nor keeps it.
        let big_l2 = UarchConfig {
            l2: CacheGeometry::new(2 << 20, 8, 64),
            ..cfg
        };
        let core = TimingCore::new(big_l2);
        assert_eq!(pooled(), 1, "a different geometry allocates afresh");
        drop(core);
        assert_eq!(pooled(), 1, "the pool keeps one arena per thread");
    }

    #[test]
    fn issue_slots_sum_like_one_add_per_op() {
        for width in 1..=8 {
            let mut slots = IssueSlots::new(width);
            assert_eq!(slots.exact, width.is_power_of_two(), "width {width}");
            let mut sum = 0.0_f64;
            let mut n = 0_u64;
            // Reads at irregular op counts, as attributions come.
            for step in (0..20_000_u64).map(|k| k % 7) {
                for _ in 0..step {
                    sum += 1.0 / width as f64;
                    n += 1;
                }
                assert_eq!(
                    slots.sum_after(n).to_bits(),
                    sum.to_bits(),
                    "width {width}, {n} ops"
                );
            }
        }
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
            // 2^63, where the signed path hands over to the unsigned
            // one, and the f64s either side of it.
            9_223_372_036_854_774_784.0,
            9_223_372_036_854_775_808.0,
            9_223_372_036_854_777_856.0,
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
