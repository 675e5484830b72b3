//! A bounded work-stealing pool for independent experiment cells.
//!
//! The suite's workload × ABI matrix is embarrassingly parallel: every
//! cell is a pure simulation. The engine deals the cells round-robin
//! over `jobs` worker queues; a worker drains its own queue from the
//! front and, when empty, steals from the back of its neighbours', so
//! long-running cells (one slow workload) do not leave the other
//! workers idle. Results land in per-cell slots, which makes the
//! reduction deterministic: callers always read outcomes in cell-index
//! order, regardless of which worker finished which cell when.
//!
//! A panicking cell is isolated: it poisons neither the pool nor its
//! siblings, and surfaces as [`CellOutcome::Panicked`] with the payload
//! message so the caller can turn it into a typed error
//! ([`RunError::WorkerPanicked`](crate::RunError::WorkerPanicked)).
//! Lock poisoning is likewise recovered rather than propagated: a cell
//! that panics between a sibling's lock and unlock must never cascade
//! into a pool-wide panic, so every acquisition strips the poison and
//! proceeds with the (still consistent — all critical sections are
//! single assignments or pops) protected data.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What became of one scheduled cell.
#[derive(Debug)]
pub enum CellOutcome<T> {
    /// The cell ran to completion (which may still be a domain error).
    Done(T),
    /// The cell's closure panicked; the payload message is attached.
    Panicked(String),
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Locks a pool mutex, recovering from poison: the pool's critical
/// sections never leave the data mid-mutation, so the inner value is
/// valid even when a panicking thread left the lock poisoned.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `run(cell)` for every cell index in `0..n_cells` on a pool of at
/// most `jobs` std threads and returns the outcomes **in cell order**.
///
/// `jobs` is clamped to `[1, n_cells]`; `jobs == 1` drains the cells in
/// order on the calling thread (the sequential reference the
/// determinism tests compare against). Spawning no worker for it keeps a
/// pool nested inside another pool's cell from starting a thread, and
/// with it a further allocator arena, per call.
pub fn run_cells<T, F>(n_cells: usize, jobs: usize, run: F) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n_cells.max(1));
    if jobs == 1 {
        return (0..n_cells).map(|cell| run_one(&run, cell)).collect();
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((0..n_cells).filter(|c| c % jobs == w).collect()))
        .collect();
    let slots: Vec<Mutex<Option<CellOutcome<T>>>> =
        (0..n_cells).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for me in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            let run = &run;
            scope.spawn(move || {
                while let Some(cell) = next_cell(queues, me) {
                    *lock_unpoisoned(&slots[cell]) = Some(run_one(run, cell));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every scheduled cell ran")
        })
        .collect()
}

/// Runs one cell, isolating a panic into [`CellOutcome::Panicked`].
fn run_one<T>(run: &impl Fn(usize) -> T, cell: usize) -> CellOutcome<T> {
    match catch_unwind(AssertUnwindSafe(|| run(cell))) {
        Ok(v) => CellOutcome::Done(v),
        Err(payload) => CellOutcome::Panicked(panic_message(payload)),
    }
}

/// Pops the next cell for worker `me`: own queue front first, then steal
/// from the back of the other workers' queues. Cells never enqueue new
/// cells, so one full scan finding nothing means the matrix is drained.
fn next_cell(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(c) = lock_unpoisoned(&queues[me]).pop_front() {
        return Some(c);
    }
    let n = queues.len();
    for d in 1..n {
        if let Some(c) = lock_unpoisoned(&queues[(me + d) % n]).pop_back() {
            return Some(c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outcomes_come_back_in_cell_order() {
        for jobs in [1, 2, 4, 7] {
            let out = run_cells(13, jobs, |i| i * i);
            let values: Vec<usize> = out
                .into_iter()
                .map(|o| match o {
                    CellOutcome::Done(v) => v,
                    CellOutcome::Panicked(m) => panic!("unexpected panic: {m}"),
                })
                .collect();
            assert_eq!(values, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_cells(100, 4, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 100);
        assert_eq!(ran.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_panicking_cell_is_isolated() {
        let out = run_cells(5, 2, |i| {
            assert!(i != 3, "cell 3 exploded");
            i
        });
        for (i, o) in out.iter().enumerate() {
            match o {
                CellOutcome::Done(v) => {
                    assert_eq!(*v, i);
                    assert!(i != 3);
                }
                CellOutcome::Panicked(msg) => {
                    assert_eq!(i, 3);
                    assert!(msg.contains("cell 3 exploded"), "got: {msg}");
                }
            }
        }
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_cells(3, 1, |i| {
            assert!(i != 1, "cell 1 exploded");
            std::thread::current().id()
        });
        assert!(matches!(out[0], CellOutcome::Done(id) if id == caller));
        assert!(matches!(&out[1], CellOutcome::Panicked(m) if m.contains("cell 1 exploded")));
        assert!(matches!(out[2], CellOutcome::Done(id) if id == caller));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let out = run_cells(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        // A mutex poisoned by a panicking holder still yields its data.
        let m = Mutex::new(7_u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        // And the pool keeps delivering every outcome even when many
        // cells panic concurrently (each panic can poison slot locks).
        let out = run_cells(64, 8, |i| {
            assert!(i % 3 != 0, "cell {i} exploded");
            i
        });
        assert_eq!(out.len(), 64);
        for (i, o) in out.iter().enumerate() {
            match o {
                CellOutcome::Done(v) => assert_eq!(*v, i),
                CellOutcome::Panicked(_) => assert_eq!(i % 3, 0),
            }
        }
    }
}
