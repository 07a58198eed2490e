//! Unified scheduler core.
//!
//! This crate separates *when* components run from *what* they do.  A
//! [`Component`] exposes three hooks — [`Component::dispatch`] (start any work
//! that is ready at the current instant), [`Component::next_event`] (the next
//! instant at which something it owns completes), and [`Component::advance`]
//! (move internal state to a later instant, retiring finished work) — and a
//! [`Scheduler`] drives an arbitrary set of components as a discrete-event
//! loop: it jumps straight to the earliest pending event, which is the
//! behavior of the original `gpusim` engine loop, the serve batcher, and the
//! cluster shard loop.  When a single component is driven this way the
//! schedule it produces is *bit-identical* to the legacy hand-rolled loops:
//! the scheduler hands the component back the exact `f64` it reported from
//! `next_event`, and components cache the `dt` they used to compute that
//! target so no `(t + dt) - t` float round-trip occurs.
//!
//! Every dispatch point in the ported subsystems consults an
//! [`inject::Injector`], which resolves a seeded [`inject::FaultPlan`] into
//! actions (kill / pause / slow-link / shard-loss).  The no-op injector is
//! guaranteed side-effect free (multiplies bandwidth by exactly `1.0`, adds
//! `0.0` seconds), so fault-free runs through the hooks stay bit-identical.

#![forbid(unsafe_code)]

pub mod inject;
pub mod queue;

pub use inject::{
    chaos_seed, chaos_seed_count, Action, DispatchSite, FaultPlan, Injector, Kill, PauseAt,
    Scenario, ShardLoss, SlowLink,
};
pub use queue::EventQueue;

/// Simulated time, in seconds.  `f64` to match the rate-based engine.
pub type Time = f64;

/// A schedulable unit of work with its own internal state.
///
/// Contract (upheld by [`Scheduler::run`]):
/// 1. `dispatch` is called to a fixpoint across all components before time
///    advances, so work released by one component can be picked up by another
///    at the same instant.
/// 2. `next_event(now)` is always called before the `advance(next, ..)` that
///    consumes it, with no dispatches in between; a component may therefore
///    cache rate computations (and the exact completion target) between the
///    two calls.
/// 3. `advance` is called with `next >= now`, bit-equal to some component's
///    reported `next_event`.
pub trait Component {
    /// Short label for stall diagnostics.
    fn label(&self) -> String;

    /// Start any work that is ready at `now`.  Returns `true` if anything new
    /// was dispatched (the scheduler loops dispatch to a fixpoint).
    fn dispatch(&mut self, now: Time, inj: &Injector) -> bool;

    /// The next instant at which this component retires work, or `None` if it
    /// has nothing in flight.
    fn next_event(&mut self, now: Time) -> Option<Time>;

    /// Move internal state to `next`, retiring anything that completes by
    /// then.  Returns `true` if any work was retired.
    fn advance(&mut self, next: Time, inj: &Injector) -> bool;

    /// `true` once the component has no pending or in-flight work left.
    fn is_done(&self) -> bool;

    /// Human-readable description of blocked work, used in [`Stall`] errors.
    fn stuck(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Successful scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Final scheduler time (max over component completion times).
    pub makespan: Time,
    /// Number of time-advancing rounds executed.
    pub rounds: usize,
}

/// The scheduler could not make progress: no component could dispatch, none
/// reported a pending event, and at least one is not done.  This is the
/// unified deadlock/stall signal; callers turn it into their legacy error
/// shape (e.g. `gpusim` panics with its historical message).
#[derive(Debug, Clone, PartialEq)]
pub struct Stall {
    /// Time at which progress stopped.
    pub at: Time,
    /// Per-component descriptions of blocked work.
    pub stuck: Vec<String>,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheduler stall at t={}: {:?}", self.at, self.stuck)
    }
}

impl std::error::Error for Stall {}

/// Drives a set of [`Component`]s to completion, jumping from event to
/// event.
#[derive(Debug, Default)]
pub struct Scheduler {
    now: Time,
}

impl Scheduler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current scheduler time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Run all components to completion.
    ///
    /// Returns [`Stall`] if no component can dispatch, none has an event
    /// pending, and at least one is not done — or if a round neither advanced
    /// time nor retired work (zero-duration livelock guard).
    pub fn run(
        &mut self,
        comps: &mut [&mut dyn Component],
        inj: &Injector,
    ) -> Result<Outcome, Stall> {
        let mut rounds = 0usize;
        loop {
            // Dispatch to a fixpoint: work retired or released by one
            // component may unblock another at the same instant.
            loop {
                let mut any = false;
                for c in comps.iter_mut() {
                    any |= c.dispatch(self.now, inj);
                }
                if !any {
                    break;
                }
            }

            if comps.iter().all(|c| c.is_done()) {
                return Ok(Outcome { makespan: self.now, rounds });
            }

            // Earliest pending event across components.
            let mut eta: Option<Time> = None;
            for c in comps.iter_mut() {
                if let Some(t) = c.next_event(self.now) {
                    debug_assert!(!t.is_nan(), "component {} reported NaN event", c.label());
                    eta = Some(match eta {
                        None => t,
                        Some(e) if t < e => t,
                        Some(e) => e,
                    });
                }
            }

            // Hand back the reported f64 unchanged: components that cached
            // the dt behind it will recognize it bit-for-bit.
            let Some(next) = eta else {
                return Err(self.stall(comps));
            };

            let mut retired = false;
            for c in comps.iter_mut() {
                retired |= c.advance(next, inj);
            }

            // Zero-duration ops make `next == now` legal, but only if
            // something actually retired; otherwise we are livelocked.
            if next <= self.now && !retired {
                return Err(self.stall(comps));
            }
            self.now = next;
            rounds += 1;
        }
    }

    fn stall(&self, comps: &mut [&mut dyn Component]) -> Stall {
        Stall { at: self.now, stuck: comps.iter().flat_map(|c| c.stuck()).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-duration jobs on one lane, FIFO.  Mirrors the shape of the
    /// gpusim port at miniature scale.
    struct Lane {
        jobs: Vec<Time>,
        head: usize,
        running: Option<(Time, Time)>, // (started_at, ends_at)
        finished: Vec<Time>,           // completion times
    }

    impl Lane {
        fn new(jobs: Vec<Time>) -> Self {
            Lane { jobs, head: 0, running: None, finished: Vec::new() }
        }
    }

    impl Component for Lane {
        fn label(&self) -> String {
            "lane".into()
        }
        fn dispatch(&mut self, now: Time, _inj: &Injector) -> bool {
            if self.running.is_none() && self.head < self.jobs.len() {
                let dur = self.jobs[self.head];
                self.head += 1;
                self.running = Some((now, now + dur));
                true
            } else {
                false
            }
        }
        fn next_event(&mut self, _now: Time) -> Option<Time> {
            self.running.map(|(_, end)| end)
        }
        fn advance(&mut self, next: Time, _inj: &Injector) -> bool {
            if let Some((_, end)) = self.running {
                if end <= next {
                    self.running = None;
                    self.finished.push(end);
                    return true;
                }
            }
            false
        }
        fn is_done(&self) -> bool {
            self.running.is_none() && self.head >= self.jobs.len()
        }
        fn stuck(&self) -> Vec<String> {
            if self.is_done() {
                Vec::new()
            } else {
                vec![format!("lane head job {}", self.head)]
            }
        }
    }

    /// Never dispatches, never reports an event: stalls the scheduler.
    struct Wedge;
    impl Component for Wedge {
        fn label(&self) -> String {
            "wedge".into()
        }
        fn dispatch(&mut self, _now: Time, _inj: &Injector) -> bool {
            false
        }
        fn next_event(&mut self, _now: Time) -> Option<Time> {
            None
        }
        fn advance(&mut self, _next: Time, _inj: &Injector) -> bool {
            false
        }
        fn is_done(&self) -> bool {
            false
        }
        fn stuck(&self) -> Vec<String> {
            vec!["wedged".into()]
        }
    }

    #[test]
    fn discrete_event_runs_fifo_lane() {
        let inj = Injector::none();
        let mut lane = Lane::new(vec![1.0, 2.0, 0.5]);
        let mut s = Scheduler::new();
        let out = s.run(&mut [&mut lane], &inj).unwrap();
        assert_eq!(out.makespan, 3.5);
        assert_eq!(lane.finished, vec![1.0, 3.0, 3.5]);
    }

    #[test]
    fn zero_duration_jobs_terminate() {
        let inj = Injector::none();
        let mut lane = Lane::new(vec![0.0, 0.0, 1.0]);
        let mut s = Scheduler::new();
        let out = s.run(&mut [&mut lane], &inj).unwrap();
        assert_eq!(out.makespan, 1.0);
        assert_eq!(lane.finished.len(), 3);
    }

    #[test]
    fn two_components_interleave_deterministically() {
        let inj = Injector::none();
        let mut a = Lane::new(vec![1.0, 1.0]);
        let mut b = Lane::new(vec![0.5, 0.5, 0.5]);
        let mut s = Scheduler::new();
        let out = s.run(&mut [&mut a, &mut b], &inj).unwrap();
        assert_eq!(out.makespan, 2.0);
        assert_eq!(a.finished, vec![1.0, 2.0]);
        assert_eq!(b.finished, vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn stall_reports_stuck_components() {
        let inj = Injector::none();
        let mut lane = Lane::new(vec![1.0]);
        let mut wedge = Wedge;
        let mut s = Scheduler::new();
        let err = s.run(&mut [&mut lane, &mut wedge], &inj).unwrap_err();
        assert_eq!(err.at, 1.0);
        assert_eq!(err.stuck, vec!["wedged".to_string()]);
    }
}
