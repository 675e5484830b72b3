//! The shared fuel watchdog: one bounded-budget, doubling-retry helper
//! behind every engine that must survive a runaway run.
//!
//! Two subsystems used to carry near-identical copies of this logic —
//! the fault-coverage campaign (`morello_fault::run_coverage`) and the
//! serving profiler (`morello_serve`'s shape profiling) — each clamping
//! `interp.max_insts` to an attempt budget and, where retries apply,
//! doubling that budget per attempt. This module is the single
//! implementation they now share: a [`Watchdog`] is a fuel budget plus
//! a bounded retry count, the budget doubling per attempt
//! (deterministic backoff — the simulator has no wall-clock jitter to
//! wait out, only budgets to widen).

use crate::runner::Platform;

/// A per-cell fuel watchdog: an instruction budget for the first
/// attempt and a bounded number of retries, the budget doubling
/// (saturating) on every retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchdog {
    fuel: u64,
    max_retries: u32,
}

impl Watchdog {
    /// A watchdog whose first attempt must finish within `fuel`
    /// retired instructions.
    pub fn budgeted(fuel: u64) -> Watchdog {
        Watchdog {
            fuel,
            max_retries: 0,
        }
    }

    /// Sets the bounded retry count (budget doubles per retry).
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Watchdog {
        self.max_retries = max_retries;
        self
    }

    /// The first-attempt fuel budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Retries allowed beyond the first attempt.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The fuel budget for a given attempt (1-based): the watchdog
    /// deadline doubled per retry, saturating.
    pub fn budget_for_attempt(&self, attempt: u32) -> u64 {
        let mult = 1_u64
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX);
        self.fuel.saturating_mul(mult)
    }

    /// `platform` with `interp.max_insts` clamped to the attempt's
    /// budget (never *raised* above the platform's own limit).
    pub fn cap_platform(&self, platform: &Platform, attempt: u32) -> Platform {
        let mut capped = *platform;
        capped.interp.max_insts = capped
            .interp
            .max_insts
            .min(self.budget_for_attempt(attempt));
        capped
    }

    /// Drives the retry ladder: runs `attempt_fn(attempt, capped)` with
    /// the attempt number (1-based) and the budget-capped platform,
    /// retrying on `Err` up to [`Watchdog::max_retries`] times. Returns
    /// the final result and the attempts consumed.
    pub fn run<T, E>(
        &self,
        platform: &Platform,
        mut attempt_fn: impl FnMut(u32, &Platform) -> Result<T, E>,
    ) -> (Result<T, E>, u32) {
        let mut attempt = 1_u32;
        loop {
            let capped = self.cap_platform(platform, attempt);
            match attempt_fn(attempt, &capped) {
                Ok(v) => return (Ok(v), attempt),
                Err(e) if attempt > self.max_retries => return (Err(e), attempt),
                Err(_) => attempt += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_doubles_per_attempt_and_saturates() {
        let wd = Watchdog::budgeted(1000).with_retries(3);
        assert_eq!(wd.budget_for_attempt(1), 1000);
        assert_eq!(wd.budget_for_attempt(2), 2000);
        assert_eq!(wd.budget_for_attempt(3), 4000);
        // Far past any shift width the multiplier saturates instead of
        // wrapping.
        assert_eq!(wd.budget_for_attempt(100), u64::MAX);
        let near_max = Watchdog::budgeted(u64::MAX / 2);
        assert_eq!(near_max.budget_for_attempt(3), u64::MAX);
    }

    #[test]
    fn cap_platform_clamps_but_never_raises() {
        let platform = Platform::morello();
        let small = Watchdog::budgeted(42);
        assert_eq!(small.cap_platform(&platform, 1).interp.max_insts, 42);
        // A budget above the platform limit leaves the limit alone.
        let huge = Watchdog::budgeted(u64::MAX);
        assert_eq!(
            huge.cap_platform(&platform, 1).interp.max_insts,
            platform.interp.max_insts
        );
    }

    #[test]
    fn run_retries_until_success_and_counts_attempts() {
        let wd = Watchdog::budgeted(100).with_retries(5);
        let platform = Platform::morello();
        // Succeeds once the doubled budget reaches 400.
        let (result, attempts) = wd.run(&platform, |_, p| {
            if p.interp.max_insts >= 400 {
                Ok(p.interp.max_insts)
            } else {
                Err("budget exhausted")
            }
        });
        assert_eq!(result, Ok(400));
        assert_eq!(attempts, 3);
    }

    #[test]
    fn run_gives_up_after_bounded_retries() {
        let wd = Watchdog::budgeted(1).with_retries(2);
        let platform = Platform::morello();
        let mut calls = 0;
        let (result, attempts) = wd.run(&platform, |_, _| -> Result<(), &str> {
            calls += 1;
            Err("always fails")
        });
        assert_eq!(result, Err("always fails"));
        assert_eq!(attempts, 3, "first attempt plus two retries");
        assert_eq!(calls, 3);
    }
}
