//! Splits a timed run into its engine and timing-core parts: a sink that
//! records the engine's classified event stream and replays it into a
//! fresh [`TimingCore`] in bounded chunks, timing only the replay.
//!
//! Chunked replay keeps memory flat on long cells. Chunk boundaries do
//! not matter to the result: the core retires a batch exactly as it
//! retires the same events one by one.

use cheri_isa::{EventSink, OpClass, RetiredEvent};
use morello_uarch::{TimingCore, UarchConfig, UarchStats};
use std::time::{Duration, Instant};

/// Events buffered before a replay chunk runs.
const CHUNK: usize = 1 << 16;

/// Records events and replays them into its own timing core.
pub struct ReplaySink {
    core: TimingCore,
    buf: Vec<(RetiredEvent, OpClass)>,
    replay: Duration,
    events: u64,
}

/// What a record/replay run measured.
pub struct Replayed {
    /// The timing core's statistics after the whole stream.
    pub stats: UarchStats,
    /// Host time spent inside the timing core.
    pub replay: Duration,
    /// Events replayed.
    pub events: u64,
}

impl ReplaySink {
    pub fn new(cfg: UarchConfig) -> ReplaySink {
        ReplaySink {
            core: TimingCore::new(cfg),
            buf: Vec::with_capacity(CHUNK + 256),
            replay: Duration::ZERO,
            events: 0,
        }
    }

    fn flush(&mut self) {
        let t = Instant::now();
        self.core.retire_block_classified(&self.buf);
        self.replay += t.elapsed();
        self.events += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Replays what is still buffered and returns the measurement.
    pub fn finish(mut self) -> Replayed {
        self.flush();
        let t = Instant::now();
        let stats = self.core.finish();
        self.replay += t.elapsed();
        Replayed {
            stats,
            replay: self.replay,
            events: self.events,
        }
    }
}

impl EventSink for ReplaySink {
    const WANTS_BLOCK_EVENTS: bool = true;

    fn retire(&mut self, ev: RetiredEvent) {
        self.retire_classified(ev, OpClass::of(ev.pc, &ev.info));
    }

    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.buf.push((ev, class));
        if self.buf.len() >= CHUNK {
            self.flush();
        }
    }

    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        self.buf.extend_from_slice(evs);
        if self.buf.len() >= CHUNK {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{lower, Abi, Interp};
    use cheri_workloads::{by_key, Scale};
    use morello_sim::{fold_heap_stats, Platform, Runner};

    #[test]
    fn replay_reproduces_the_timed_run() {
        let platform = Platform::morello().with_scale(Scale::Test);
        for (key, abi) in [("omnetpp_520", Abi::Purecap), ("lbm_519", Abi::Hybrid)] {
            let w = by_key(key).expect("registry workload");
            let prog = lower(&w.build(abi, platform.scale));
            let timed = Runner::new(platform)
                .run_lowered(&w, abi, &prog)
                .expect("clean run");
            let mut sink = ReplaySink::new(platform.uarch);
            let result = Interp::new(platform.interp)
                .run(&prog, &mut sink)
                .expect("clean run");
            let mut replayed = sink.finish();
            fold_heap_stats(&mut replayed.stats, &result.heap_stats);
            assert_eq!(replayed.stats, timed.stats, "{key}/{abi}");
            assert_eq!(replayed.events, timed.retired);
        }
    }
}
