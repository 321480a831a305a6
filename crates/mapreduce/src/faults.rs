//! Deterministic fault injection for the MapReduce engine.
//!
//! Cluster MapReduce earns its keep by surviving task failures; an
//! in-process reproduction has to *manufacture* them to prove the same
//! property. A [`FaultPlan`] describes a chaos schedule — probabilities of
//! an attempt panicking at start, stalling (straggling), or dying mid-emit
//! — and a [`FaultInjector`] resolves each task attempt's fate as a pure
//! function of `(seed, job, phase, task, attempt)` via
//! [`crh_core::rng::hash_rng`]. The fate therefore does **not** depend on
//! thread scheduling, wave order, or how many other tasks failed first:
//! the same plan replays the same faults, and the chaos tests can assert
//! the recovered output is bit-identical to a fault-free run.
//!
//! `fault_free_after` bounds the chaos: attempts at or beyond that index
//! are always healthy, so every task eventually succeeds within the
//! engine's retry budget (keep `fault_free_after < max_attempts`).

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crh_core::rng::{check_classes, hash_rng, pick_class, FaultClass, Rng};

use crate::error::MapReduceError;

/// Panic-payload marker carried by every injected failure, letting the
/// engine's panic hook suppress the expected backtrace noise while real
/// (non-injected) panics still print.
pub const INJECTED_PANIC: &str = "crh-injected-fault";

/// Which phase a task belongs to (also used in error reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Mapper task (runs map + optional combine over one input split).
    Map,
    /// Reducer task (folds one shuffle partition).
    Reduce,
}

/// The resolved fate of one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFate {
    /// Run normally.
    Healthy,
    /// Panic immediately at attempt start (process-level task death).
    Panic,
    /// Straggle: sleep this long before doing the work, then complete
    /// normally. Speculative execution exists to beat these.
    Stall(Duration),
    /// Die after emitting this many records (map) or folding this many
    /// keys (reduce) — a mid-flight crash with partial output that must
    /// be discarded, not merged.
    DieMidWork(u64),
}

/// A seeded chaos schedule. All probabilities are per-attempt and
/// mutually exclusive (their sum must be ≤ 1).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed from which every fate is derived.
    pub seed: u64,
    /// Probability an attempt panics at start.
    pub panic_prob: f64,
    /// Probability an attempt straggles.
    pub stall_prob: f64,
    /// Probability an attempt dies mid-work.
    pub die_mid_work_prob: f64,
    /// How long a straggler stalls before working.
    pub stall_for: Duration,
    /// Mid-work deaths happen after `1..=max_work_before_death` units.
    pub max_work_before_death: u64,
    /// Attempts with index `>= fault_free_after` are always healthy,
    /// guaranteeing forward progress under a finite retry budget.
    pub fault_free_after: usize,
    /// Restrict injection to jobs whose index (per injector, counted in
    /// [`FaultInjector::begin_job`] order) falls in this range. `None`
    /// targets every job.
    pub only_jobs: Option<Range<usize>>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; switch on the
    /// fault classes you want with the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_prob: 0.0,
            stall_prob: 0.0,
            die_mid_work_prob: 0.0,
            stall_for: Duration::from_millis(30),
            max_work_before_death: 8,
            fault_free_after: 2,
            only_jobs: None,
        }
    }

    /// Set the start-of-attempt panic probability.
    pub fn panics(mut self, prob: f64) -> Self {
        self.panic_prob = prob;
        self
    }

    /// Set the straggler probability and stall duration.
    pub fn stalls(mut self, prob: f64, stall_for: Duration) -> Self {
        self.stall_prob = prob;
        self.stall_for = stall_for;
        self
    }

    /// Set the mid-work death probability.
    pub fn dies_mid_work(mut self, prob: f64) -> Self {
        self.die_mid_work_prob = prob;
        self
    }

    /// Guarantee attempts `>= n` are healthy.
    pub fn fault_free_after(mut self, n: usize) -> Self {
        self.fault_free_after = n;
        self
    }

    /// Inject only into jobs with index in `jobs`.
    pub fn only_jobs(mut self, jobs: Range<usize>) -> Self {
        self.only_jobs = Some(jobs);
        self
    }

    /// The fault classes in draw order (see [`pick_class`]).
    fn classes(&self) -> [FaultClass<'static>; 3] {
        [
            ("panic_prob", self.panic_prob),
            ("stall_prob", self.stall_prob),
            ("die_mid_work_prob", self.die_mid_work_prob),
        ]
    }

    /// Reject a plan whose probabilities are not a valid split of one
    /// draw, or whose mid-work deaths have no work unit to die after.
    fn validate(&self) -> Result<(), MapReduceError> {
        let invalid = |reason| MapReduceError::InvalidConfig {
            field: "faults",
            reason,
        };
        check_classes(&self.classes()).map_err(invalid)?;
        if self.die_mid_work_prob > 0.0 && self.max_work_before_death == 0 {
            return Err(invalid("max_work_before_death must be >= 1".into()));
        }
        Ok(())
    }
}

/// Resolves attempt fates from a [`FaultPlan`].
///
/// Cloning shares the job counter, so one injector threaded through a
/// multi-job driver (two jobs per CRH iteration) numbers the jobs
/// globally — `only_jobs` can then target, say, exactly the truth job of
/// iteration 3.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    jobs_started: Arc<AtomicUsize>,
}

impl FaultInjector {
    /// Wrap a plan.
    ///
    /// # Panics
    /// Panics if a probability is outside `[0, 1]`, the probabilities sum
    /// past 1, or mid-work deaths are enabled with
    /// `max_work_before_death == 0`.
    pub fn new(plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("{e}");
        }
        Self {
            plan: Arc::new(plan),
            jobs_started: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The plan this injector resolves from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Called by the engine at job start; returns this job's index.
    pub fn begin_job(&self) -> usize {
        self.jobs_started.fetch_add(1, Ordering::SeqCst)
    }

    /// The fate of attempt `attempt` of `task` in `phase` of job `job`.
    ///
    /// Pure in its arguments (plus the plan's seed): independent of call
    /// order, thread interleaving, and the fates of other attempts.
    pub fn fate(&self, job: usize, phase: Phase, task: usize, attempt: usize) -> AttemptFate {
        let p = &self.plan;
        if attempt >= p.fault_free_after {
            return AttemptFate::Healthy;
        }
        if let Some(jobs) = &p.only_jobs {
            if !jobs.contains(&job) {
                return AttemptFate::Healthy;
            }
        }
        let phase_tag = match phase {
            Phase::Map => 0u64,
            Phase::Reduce => 1u64,
        };
        let mut rng = hash_rng(
            p.seed,
            &[job as u64, phase_tag, task as u64, attempt as u64],
        );
        match pick_class(&mut rng, &p.classes()) {
            Some(0) => AttemptFate::Panic,
            Some(1) => AttemptFate::Stall(p.stall_for),
            Some(_) => AttemptFate::DieMidWork(rng.random_range(0..p.max_work_before_death) + 1),
            None => AttemptFate::Healthy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic(seed: u64) -> FaultInjector {
        FaultInjector::new(
            FaultPlan::new(seed)
                .panics(0.3)
                .stalls(0.2, Duration::from_millis(5))
                .dies_mid_work(0.3),
        )
    }

    #[test]
    fn fates_are_deterministic_and_order_free() {
        let a = chaotic(42);
        let b = chaotic(42);
        // query b in reverse order: fates must still agree pointwise
        let keys: Vec<(usize, Phase, usize, usize)> = (0..50)
            .flat_map(|t| {
                (0..2).flat_map(move |a| [(0, Phase::Map, t, a), (1, Phase::Reduce, t, a)])
            })
            .collect();
        let fwd: Vec<_> = keys
            .iter()
            .map(|&(j, p, t, at)| a.fate(j, p, t, at))
            .collect();
        let rev: Vec<_> = keys
            .iter()
            .rev()
            .map(|&(j, p, t, at)| b.fate(j, p, t, at))
            .collect();
        let rev: Vec<_> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = chaotic(1);
        let b = chaotic(2);
        let fates = |inj: &FaultInjector| {
            (0..200)
                .map(|t| inj.fate(0, Phase::Map, t, 0))
                .collect::<Vec<_>>()
        };
        assert_ne!(fates(&a), fates(&b));
    }

    #[test]
    fn fault_free_after_guarantees_progress() {
        let inj = chaotic(7);
        for t in 0..100 {
            assert_eq!(inj.fate(0, Phase::Map, t, 2), AttemptFate::Healthy);
            assert_eq!(inj.fate(0, Phase::Reduce, t, 5), AttemptFate::Healthy);
        }
    }

    #[test]
    fn only_jobs_scopes_injection() {
        let inj = FaultInjector::new(FaultPlan::new(3).panics(1.0).only_jobs(2..3));
        assert_eq!(inj.fate(0, Phase::Map, 0, 0), AttemptFate::Healthy);
        assert_eq!(inj.fate(2, Phase::Map, 0, 0), AttemptFate::Panic);
        assert_eq!(inj.fate(3, Phase::Map, 0, 0), AttemptFate::Healthy);
    }

    #[test]
    fn job_counter_is_shared_across_clones() {
        let inj = chaotic(9);
        let other = inj.clone();
        assert_eq!(inj.begin_job(), 0);
        assert_eq!(other.begin_job(), 1);
        assert_eq!(inj.begin_job(), 2);
    }

    #[test]
    fn fate_mix_tracks_probabilities() {
        let inj = chaotic(11);
        let n = 10_000;
        let mut panics = 0;
        let mut stalls = 0;
        let mut deaths = 0;
        for t in 0..n {
            match inj.fate(0, Phase::Map, t, 0) {
                AttemptFate::Panic => panics += 1,
                AttemptFate::Stall(_) => stalls += 1,
                AttemptFate::DieMidWork(k) => {
                    assert!((1..=8).contains(&k));
                    deaths += 1;
                }
                AttemptFate::Healthy => {}
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(panics) - 0.3).abs() < 0.03, "{panics}");
        assert!((frac(stalls) - 0.2).abs() < 0.03, "{stalls}");
        assert!((frac(deaths) - 0.3).abs() < 0.03, "{deaths}");
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn overfull_probabilities_rejected() {
        FaultInjector::new(FaultPlan::new(0).panics(0.7).dies_mid_work(0.7));
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn negative_probability_rejected() {
        FaultInjector::new(
            FaultPlan::new(3)
                .panics(-0.5)
                .stalls(1.0, Duration::from_millis(1)),
        );
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn nan_probability_rejected() {
        FaultInjector::new(FaultPlan::new(3).stalls(f64::NAN, Duration::from_millis(1)));
    }

    #[test]
    #[should_panic(expected = "max_work_before_death")]
    fn zero_work_before_death_rejected() {
        FaultInjector::new(FaultPlan {
            max_work_before_death: 0,
            ..FaultPlan::new(1).dies_mid_work(1.0)
        });
    }
}
