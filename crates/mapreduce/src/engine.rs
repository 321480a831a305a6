//! A small in-process MapReduce engine (§2.7's substrate), fault-tolerant.
//!
//! Deliberately structured like Hadoop so the parallel-CRH experiments keep
//! their shape:
//!
//! 1. **map** — the input is split into `num_mappers` contiguous splits;
//!    one mapper task per split emits `(key, value)` pairs, hash-partitioned
//!    by key into `num_reducers` partitions;
//! 2. **combine** (optional) — each mapper pre-aggregates its own output per
//!    partition, "quite similar to the Reducer … just part of the partial
//!    error pairs within each Mapper" (§2.7.3);
//! 3. **shuffle + sort** — each partition's pairs from all mappers are
//!    merged and sorted by key ("they will be sorted by Hadoop");
//! 4. **reduce** — one reducer task per partition folds each key's values.
//!
//! Tasks run on real OS threads (`std::thread::scope`) under a slot-limited
//! scheduler, and — like the cluster systems being modeled — survive task
//! death:
//!
//! * every attempt runs under `catch_unwind`, so a panicking task kills the
//!   attempt, not the job;
//! * failed tasks are retried with capped exponential backoff, up to
//!   [`max_attempts`](JobConfig::max_attempts) before the job reports
//!   [`MapReduceError::TaskFailed`];
//! * a straggling task (running far beyond the median of its completed
//!   peers) gets one **speculative** backup attempt; the first finisher
//!   wins and the loser's output is discarded;
//! * a task that dies mid-emit leaves no partial output behind — results
//!   are only installed from attempts that ran to completion.
//!
//! Because mapper/combiner/reducer are pure functions of their split, a
//! retried or speculated attempt recomputes exactly the bytes the failed
//! one would have produced, and results are installed into per-task slots
//! — so the job output is **bit-identical** regardless of which faults
//! fired (see the chaos tests in `tests/chaos.rs`).
//!
//! A configurable per-attempt [`startup_cost`](JobConfig::startup_cost)
//! models cluster task launch latency (JVM spin-up, container allocation)
//! — the dominant term in Table 6 at small inputs; it defaults to zero for
//! library use. Deterministic fault injection is supplied by a
//! [`FaultInjector`](crate::faults::FaultInjector) in
//! [`JobConfig::faults`].

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Once;
use std::time::{Duration, Instant};

use crate::error::MapReduceError;
use crate::faults::{AttemptFate, FaultInjector, Phase, INJECTED_PANIC};

/// The scheduler's one wall-clock seam.
///
/// The engine reads real time only for *scheduling*: retry backoff,
/// speculation re-checks, simulated stalls, and elapsed-time stats.
/// Attempt fates are a pure function of `(seed, job, phase, task,
/// attempt)` and speculation losers are discarded, so job *output*
/// never depends on these reads — wall-clock here affects latency,
/// not results. Keeping every read behind this seam keeps that
/// argument auditable (and greppable) as the engine grows.
#[expect(
    clippy::disallowed_methods,
    reason = "scheduling-only: fates are pure in (seed, job, phase, task, attempt); wall-clock affects latency, never output"
)]
pub(crate) fn sched_now() -> Instant {
    Instant::now()
}

/// Parallelism, overhead, and fault-tolerance knobs for one job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Number of mapper tasks (input splits).
    pub num_mappers: usize,
    /// Number of reducer tasks (= shuffle partitions).
    pub num_reducers: usize,
    /// Simulated per-attempt startup latency (map and reduce tasks alike).
    pub startup_cost: Duration,
    /// Whether to run the combiner (when one is supplied).
    pub use_combiner: bool,
    /// Concurrent task slots of the simulated cluster: at most this many
    /// attempts run at once, so scheduling more tasks than slots pays
    /// extra startup waves — the mechanism behind Fig 8's "more reducers
    /// is not always faster". `usize::MAX` = unlimited.
    pub task_slots: usize,
    /// Maximum attempts per task before the job fails with
    /// [`MapReduceError::TaskFailed`].
    pub max_attempts: usize,
    /// Base delay before re-running a failed attempt; doubles per failure.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// Launch speculative backups for straggler tasks.
    pub speculation: bool,
    /// A task is a straggler once it has run `speculation_slack` times the
    /// median duration of completed peer tasks.
    pub speculation_slack: f64,
    /// Completed peers required before the median is trusted.
    pub speculation_min_peers: usize,
    /// Deterministic fault injection (chaos testing); `None` = healthy.
    pub faults: Option<FaultInjector>,
}

/// Stragglers are never declared before this much absolute runtime, so
/// microsecond-scale tasks don't trigger speculation storms.
pub const SPECULATION_MIN_RUNTIME: Duration = Duration::from_millis(10);

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            num_mappers: 4,
            num_reducers: 4,
            startup_cost: Duration::ZERO,
            use_combiner: true,
            task_slots: usize::MAX,
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            speculation: true,
            speculation_slack: 4.0,
            speculation_min_peers: 3,
            faults: None,
        }
    }
}

impl JobConfig {
    /// Validate the configuration in place.
    pub fn validate(&self) -> Result<(), MapReduceError> {
        if self.num_mappers == 0 {
            return Err(MapReduceError::InvalidConfig {
                field: "num_mappers",
                reason: "must be >= 1".into(),
            });
        }
        if self.num_reducers == 0 {
            return Err(MapReduceError::InvalidConfig {
                field: "num_reducers",
                reason: "must be >= 1".into(),
            });
        }
        if self.task_slots == 0 {
            return Err(MapReduceError::InvalidConfig {
                field: "task_slots",
                reason: "must be >= 1".into(),
            });
        }
        if self.max_attempts == 0 {
            return Err(MapReduceError::InvalidConfig {
                field: "max_attempts",
                reason: "must be >= 1".into(),
            });
        }
        if !(self.speculation_slack.is_finite() && self.speculation_slack >= 1.0) {
            return Err(MapReduceError::InvalidConfig {
                field: "speculation_slack",
                reason: format!("must be finite and >= 1, got {}", self.speculation_slack),
            });
        }
        if let Some(inj) = &self.faults {
            if inj.plan().fault_free_after >= self.max_attempts {
                return Err(MapReduceError::InvalidConfig {
                    field: "faults",
                    reason: format!(
                        "fault_free_after ({}) must be < max_attempts ({}) or tasks may never succeed",
                        inj.plan().fault_free_after,
                        self.max_attempts
                    ),
                });
            }
        }
        Ok(())
    }

    /// Validate, passing the configuration through on success.
    pub fn validated(self) -> Result<Self, MapReduceError> {
        self.validate()?;
        Ok(self)
    }
}

/// Phase timings, record counts, and failure accounting of one job run.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Wall time of the map (+combine) phase.
    pub map_time: Duration,
    /// Wall time of shuffle-sort.
    pub shuffle_time: Duration,
    /// Wall time of the reduce phase.
    pub reduce_time: Duration,
    /// Records emitted by mappers (before combining).
    pub map_output_records: usize,
    /// Records after combining (equals `map_output_records` without a
    /// combiner).
    pub shuffled_records: usize,
    /// Distinct keys reduced.
    pub reduced_keys: usize,
    /// Task attempts launched (map + reduce, including speculative).
    pub attempts: usize,
    /// Attempts re-queued after a failure.
    pub retries: usize,
    /// Speculative backup attempts launched for stragglers.
    pub speculative_launched: usize,
    /// Tasks whose winning attempt was the speculative backup.
    pub speculative_wins: usize,
}

impl JobStats {
    /// Total wall time across phases.
    pub fn total_time(&self) -> Duration {
        self.map_time + self.shuffle_time + self.reduce_time
    }
}

/// Per-attempt context handed to task bodies so injected mid-work deaths
/// can fire at a deterministic emit count.
pub struct AttemptCtx {
    die_after: Option<u64>,
    work_done: Cell<u64>,
}

impl AttemptCtx {
    fn healthy() -> Self {
        Self {
            die_after: None,
            work_done: Cell::new(0),
        }
    }

    fn dies_after(n: u64) -> Self {
        Self {
            die_after: Some(n),
            work_done: Cell::new(0),
        }
    }

    /// Record one unit of work (an emit or a folded key); panics if this
    /// attempt's injected fate says it dies here.
    fn on_work(&self) {
        if let Some(k) = self.die_after {
            let c = self.work_done.get() + 1;
            self.work_done.set(c);
            if c >= k {
                panic!("{INJECTED_PANIC}: attempt killed mid-work after {k} emits");
            }
        }
    }
}

/// The deterministic 64-bit hash point every partitioning decision in the
/// workspace derives from: reducers here, entry-shard ranges in `crh-serve`.
/// `DefaultHasher::new()` is keyed with fixed constants, so the mapping is
/// stable across processes and restarts — a requirement for shard maps that
/// must agree between a router, N shard groups, and a recovery replay.
pub fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn partition_of<K: Hash>(key: &K, parts: usize) -> usize {
    (key_hash(key) as usize) % parts
}

/// Group a sorted `(K, V)` run into per-key value vectors and fold each with
/// `f`. The sort is stable, so values keep their arrival order per key.
fn fold_groups<K: Ord, V, O>(
    mut pairs: Vec<(K, V)>,
    mut f: impl FnMut(&K, Vec<V>) -> O,
) -> Vec<(K, O)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::new();
    let mut iter = pairs.into_iter();
    let Some((mut cur_key, first_v)) = iter.next() else {
        return out;
    };
    let mut values = vec![first_v];
    for (k, v) in iter {
        if k == cur_key {
            values.push(v);
        } else {
            let folded = f(&cur_key, std::mem::take(&mut values));
            out.push((cur_key, folded));
            cur_key = k;
            values.push(v);
        }
    }
    let folded = f(&cur_key, values);
    out.push((cur_key, folded));
    out
}

/// Convert a panic payload into a displayable message.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked with a non-string payload".into()
    }
}

/// Injected faults panic by design; silence their default-hook backtrace
/// spam while leaving real panics loud. Installed once per process, and
/// chains to the previous hook for everything non-injected.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Capped exponential backoff for the `n`-th failure (1-based).
fn backoff(cfg: &JobConfig, nth_failure: usize) -> Duration {
    let factor = 1u32 << (nth_failure.saturating_sub(1)).min(16) as u32;
    (cfg.backoff_base * factor).min(cfg.backoff_cap)
}

fn median(durations: &[Duration]) -> Duration {
    let mut d = durations.to_vec();
    d.sort_unstable();
    d[d.len() / 2]
}

/// Failure accounting for one phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseAcc {
    attempts: usize,
    retries: usize,
    speculative_launched: usize,
    speculative_wins: usize,
}

impl PhaseAcc {
    fn add_into(self, stats: &mut JobStats) {
        stats.attempts += self.attempts;
        stats.retries += self.retries;
        stats.speculative_launched += self.speculative_launched;
        stats.speculative_wins += self.speculative_wins;
    }
}

struct AttemptDone<T> {
    task: usize,
    speculative: bool,
    outcome: Result<T, String>,
    elapsed: Duration,
}

/// Run one phase's tasks under the fault-tolerant scheduler: slot-limited
/// concurrency, per-attempt `catch_unwind` isolation, capped-backoff
/// retries, and speculative backups for stragglers. Results land in
/// per-task slots, so output order is independent of completion order.
fn run_phase<T, F>(
    cfg: &JobConfig,
    job_idx: usize,
    phase: Phase,
    num_tasks: usize,
    task: F,
) -> Result<(Vec<T>, PhaseAcc), MapReduceError>
where
    T: Send,
    F: Fn(usize, &AttemptCtx) -> T + Sync,
{
    let mut acc = PhaseAcc::default();
    if num_tasks == 0 {
        return Ok((Vec::new(), acc));
    }
    let slots = cfg.task_slots.max(1);
    let injector = cfg.faults.as_ref();
    if injector.is_some() {
        silence_injected_panics();
    }

    // One flag per task, raised by the scheduler once the task has a winning
    // result (or the phase aborts). Hadoop kills the losing attempt of a
    // speculated task; threads cannot be killed, so injected stalls poll this
    // flag and abandon the attempt instead — otherwise `thread::scope`'s
    // implicit join would let an already-beaten straggler gate the phase.
    let cancelled: Vec<AtomicBool> = (0..num_tasks).map(|_| AtomicBool::new(false)).collect();

    let results = std::thread::scope(|scope| -> Result<Vec<Option<T>>, MapReduceError> {
        let (tx, rx) = mpsc::channel::<AttemptDone<T>>();
        let task = &task;
        let cancelled = &cancelled;

        // Fate is resolved on the scheduler thread (it is a pure function
        // of (seed, job, phase, task, attempt), so this changes nothing),
        // then the attempt runs isolated under catch_unwind.
        let spawn_attempt = |t: usize, attempt: usize, speculative: bool| {
            let fate = injector
                .map(|i| i.fate(job_idx, phase, t, attempt))
                .unwrap_or(AttemptFate::Healthy);
            let tx = tx.clone();
            let startup = cfg.startup_cost;
            scope.spawn(move || {
                let t0 = sched_now();
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    if !startup.is_zero() {
                        std::thread::sleep(startup);
                    }
                    let ctx = match fate {
                        AttemptFate::Healthy => AttemptCtx::healthy(),
                        AttemptFate::Panic => panic!(
                            "{INJECTED_PANIC}: {phase:?} task {t} attempt {attempt} killed at start"
                        ),
                        AttemptFate::Stall(d) => {
                            let deadline = sched_now() + d;
                            loop {
                                if cancelled[t].load(Ordering::Relaxed) {
                                    panic!(
                                        "{INJECTED_PANIC}: {phase:?} task {t} attempt \
                                         {attempt} cancelled while stalled"
                                    );
                                }
                                let left = deadline.saturating_duration_since(sched_now());
                                if left.is_zero() {
                                    break;
                                }
                                std::thread::sleep(left.min(Duration::from_millis(2)));
                            }
                            AttemptCtx::healthy()
                        }
                        AttemptFate::DieMidWork(k) => AttemptCtx::dies_after(k),
                    };
                    task(t, &ctx)
                }))
                .map_err(panic_message);
                // the scheduler may have exited on a terminal error; a dead
                // receiver is fine
                let _ = tx.send(AttemptDone {
                    task: t,
                    speculative,
                    outcome,
                    elapsed: t0.elapsed(),
                });
            });
        };

        let n = num_tasks;
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut next_attempt = vec![0usize; n];
        let mut failures = vec![0usize; n];
        let mut running = vec![0usize; n];
        let mut started_at: Vec<Option<Instant>> = vec![None; n];
        let mut speculated = vec![false; n];
        let mut retry_at: Vec<Option<Instant>> = vec![None; n];
        let mut done = vec![false; n];
        let mut durations: Vec<Duration> = Vec::new();
        let mut completed = 0usize;
        let mut running_total = 0usize;

        while completed < n {
            // ---- launch whatever the free slots allow ----
            let now = sched_now();
            while running_total < slots {
                // primary attempts first: tasks with nothing in flight
                // whose backoff (if any) has elapsed
                let primary = (0..n)
                    .find(|&t| !done[t] && running[t] == 0 && retry_at[t].is_none_or(|d| d <= now));
                if let Some(t) = primary {
                    let attempt = next_attempt[t];
                    next_attempt[t] += 1;
                    retry_at[t] = None;
                    if started_at[t].is_none() {
                        started_at[t] = Some(now);
                    }
                    spawn_attempt(t, attempt, false);
                    running[t] += 1;
                    running_total += 1;
                    acc.attempts += 1;
                    continue;
                }
                // then speculative backups for stragglers
                if cfg.speculation && durations.len() >= cfg.speculation_min_peers {
                    let threshold = median(&durations)
                        .mul_f64(cfg.speculation_slack)
                        .max(SPECULATION_MIN_RUNTIME);
                    let straggler = (0..n).find(|&t| {
                        !done[t]
                            && running[t] == 1
                            && !speculated[t]
                            && started_at[t].is_some_and(|s| now.duration_since(s) > threshold)
                    });
                    if let Some(t) = straggler {
                        let attempt = next_attempt[t];
                        next_attempt[t] += 1;
                        speculated[t] = true;
                        spawn_attempt(t, attempt, true);
                        running[t] += 1;
                        running_total += 1;
                        acc.attempts += 1;
                        acc.speculative_launched += 1;
                        continue;
                    }
                }
                break;
            }

            // ---- wait for a completion, a retry deadline, or a
            //      speculation re-check ----
            let now = sched_now();
            let mut deadline: Option<Instant> = (0..n)
                .filter(|&t| !done[t] && running[t] == 0)
                .filter_map(|t| retry_at[t])
                .min();
            let may_speculate = cfg.speculation
                && durations.len() >= cfg.speculation_min_peers
                && (0..n).any(|t| !done[t] && running[t] == 1 && !speculated[t]);
            if may_speculate && running_total < slots {
                let poll = now + Duration::from_millis(2);
                deadline = Some(deadline.map_or(poll, |d| d.min(poll)));
            }
            let msg = match deadline {
                Some(d) => match rx.recv_timeout(d.saturating_duration_since(now)) {
                    Ok(msg) => msg,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("scheduler holds a sender")
                    }
                },
                None => rx.recv().expect("attempts in flight hold senders"),
            };

            // ---- install / retry ----
            running[msg.task] -= 1;
            running_total -= 1;
            match msg.outcome {
                Ok(value) => {
                    if !done[msg.task] {
                        done[msg.task] = true;
                        cancelled[msg.task].store(true, Ordering::Relaxed);
                        completed += 1;
                        results[msg.task] = Some(value);
                        durations.push(msg.elapsed);
                        if msg.speculative {
                            acc.speculative_wins += 1;
                        }
                    }
                    // else: this task already finished (speculation race
                    // loser) — identical output, safely discarded
                }
                Err(message) => {
                    if !done[msg.task] {
                        failures[msg.task] += 1;
                        if failures[msg.task] >= cfg.max_attempts {
                            // release any stalled attempts so the scope's
                            // implicit join doesn't drag out the error path
                            for c in cancelled.iter() {
                                c.store(true, Ordering::Relaxed);
                            }
                            return Err(MapReduceError::TaskFailed {
                                phase,
                                task: msg.task,
                                attempts: failures[msg.task],
                                message,
                            });
                        }
                        acc.retries += 1;
                        retry_at[msg.task] = Some(sched_now() + backoff(cfg, failures[msg.task]));
                    }
                }
            }
        }
        Ok(results)
    })?;

    let results = results
        .into_iter()
        .map(|r| r.expect("scheduler completed every task"))
        .collect();
    Ok((results, acc))
}

/// Run one MapReduce job.
///
/// * `inputs` — the input records; split contiguously across mappers.
/// * `mapper` — called per record with an `emit(key, value)` sink.
/// * `combiner` — optional per-mapper pre-aggregation `(key, values) →
///   value`; must be algebraically mergeable with itself and the reducer
///   (e.g. partial sums).
/// * `reducer` — `(key, values) → output`, called once per distinct key.
///
/// Returns outputs sorted by key plus phase statistics, or a typed error
/// if the configuration is invalid or a task exhausts its retry budget.
/// `K`/`V` are `Clone` so a failed or speculated attempt can re-run from
/// the retained inputs.
pub fn map_reduce<I, K, V, O, M, C, R>(
    cfg: &JobConfig,
    inputs: &[I],
    mapper: M,
    combiner: Option<C>,
    reducer: R,
) -> Result<(Vec<(K, O)>, JobStats), MapReduceError>
where
    I: Sync,
    K: Hash + Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    O: Send,
    M: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
    C: Fn(&K, Vec<V>) -> V + Sync,
    R: Fn(&K, Vec<V>) -> O + Sync,
{
    cfg.validate()?;
    let mut stats = JobStats::default();
    let num_mappers = cfg.num_mappers.max(1).min(inputs.len().max(1));
    let num_reducers = cfg.num_reducers.max(1);
    let job_idx = cfg.faults.as_ref().map_or(0, |i| i.begin_job());

    // ---- map (+ combine) phase ----
    let t0 = sched_now();
    let split_len = inputs.len().div_ceil(num_mappers);
    let combiner = combiner.as_ref();
    let (map_results, map_acc) = run_phase(
        cfg,
        job_idx,
        Phase::Map,
        num_mappers,
        |m: usize, ctx: &AttemptCtx| {
            // ceil-splitting can exhaust the input before the last mapper;
            // trailing mappers get an empty split
            let lo = (m * split_len).min(inputs.len());
            let hi = ((m + 1) * split_len).min(inputs.len());
            let mut parts: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
            let mut emitted = 0usize;
            for rec in &inputs[lo..hi] {
                mapper(rec, &mut |k, v| {
                    ctx.on_work();
                    let p = partition_of(&k, num_reducers);
                    parts[p].push((k, v));
                    emitted += 1;
                });
            }
            if cfg.use_combiner {
                if let Some(comb) = combiner {
                    parts = parts
                        .into_iter()
                        .map(|pairs| fold_groups(pairs, |k, vs| comb(k, vs)))
                        .collect();
                }
            }
            (parts, emitted)
        },
    )?;
    stats.map_time = t0.elapsed();
    map_acc.add_into(&mut stats);

    // ---- shuffle ----
    let t1 = sched_now();
    let mut partitions: Vec<Vec<(K, V)>> = (0..num_reducers).map(|_| Vec::new()).collect();
    for (parts, emitted) in map_results {
        stats.map_output_records += emitted;
        for (p, pairs) in parts.into_iter().enumerate() {
            partitions[p].extend(pairs);
        }
    }
    stats.shuffled_records = partitions.iter().map(Vec::len).sum();
    stats.shuffle_time = t1.elapsed();

    // ---- reduce phase ----
    let t2 = sched_now();
    let partitions = &partitions;
    let reducer = &reducer;
    let (reduce_results, reduce_acc) = run_phase(
        cfg,
        job_idx,
        Phase::Reduce,
        num_reducers,
        |p: usize, ctx: &AttemptCtx| {
            // clone the partition so the master copy survives for retries
            fold_groups(partitions[p].clone(), |k, vs| {
                ctx.on_work();
                reducer(k, vs)
            })
        },
    )?;
    stats.reduce_time = t2.elapsed();
    reduce_acc.add_into(&mut stats);

    let mut flat: Vec<(K, O)> = reduce_results.into_iter().flatten().collect();
    stats.reduced_keys = flat.len();
    // Deterministic global order regardless of partitioning.
    flat.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((flat, stats))
}

/// A `combiner` argument for jobs that don't use one, fixing `C` so type
/// inference succeeds: `no_combiner::<K, V>()`.
pub fn no_combiner<K, V>() -> Option<fn(&K, Vec<V>) -> V> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    /// Classic word count.
    fn word_count(cfg: &JobConfig, docs: &[&str]) -> Vec<(String, usize)> {
        try_word_count(cfg, docs).expect("word count job")
    }

    fn try_word_count(
        cfg: &JobConfig,
        docs: &[&str],
    ) -> Result<Vec<(String, usize)>, MapReduceError> {
        map_reduce(
            cfg,
            docs,
            |doc: &&str, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_string(), 1usize);
                }
            },
            Some(|_k: &String, vs: Vec<usize>| vs.into_iter().sum::<usize>()),
            |_k, vs| vs.into_iter().sum::<usize>(),
        )
        .map(|(out, _)| out)
    }

    #[test]
    fn word_count_correct() {
        let docs = ["a b a", "b c", "a"];
        let cfg = JobConfig::default();
        let out = word_count(&cfg, &docs);
        let get = |w: &str| out.iter().find(|(k, _)| k == w).map(|(_, c)| *c);
        assert_eq!(get("a"), Some(3));
        assert_eq!(get("b"), Some(2));
        assert_eq!(get("c"), Some(1));
    }

    #[test]
    fn result_independent_of_parallelism() {
        let docs = ["x y z x", "y x", "z z z", "w"];
        let base = word_count(&JobConfig::default(), &docs);
        for mappers in [1, 2, 7] {
            for reducers in [1, 3, 16] {
                let cfg = JobConfig {
                    num_mappers: mappers,
                    num_reducers: reducers,
                    ..JobConfig::default()
                };
                assert_eq!(word_count(&cfg, &docs), base, "{mappers}x{reducers}");
            }
        }
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let docs = vec!["a a a a a a a a"; 10];
        let run = |use_combiner: bool| {
            let cfg = JobConfig {
                num_mappers: 2,
                use_combiner,
                ..JobConfig::default()
            };
            map_reduce(
                &cfg,
                &docs,
                |doc: &&str, emit| {
                    for w in doc.split_whitespace() {
                        emit(w.to_string(), 1usize);
                    }
                },
                Some(|_k: &String, vs: Vec<usize>| vs.into_iter().sum::<usize>()),
                |_k, vs| vs.into_iter().sum::<usize>(),
            )
            .unwrap()
            .1
        };
        let s1 = run(true);
        let s2 = run(false);
        assert_eq!(s1.map_output_records, s2.map_output_records);
        assert!(
            s1.shuffled_records < s2.shuffled_records,
            "{} !< {}",
            s1.shuffled_records,
            s2.shuffled_records
        );
    }

    #[test]
    fn ceil_split_overflow_regression() {
        // 6 inputs across 5 mappers: ceil split is 2, so mapper 4 would
        // start at index 8 — past the input. Found by the randomized tests.
        let docs = ["a", "b", "c", "d", "e", "f"];
        let cfg = JobConfig {
            num_mappers: 5,
            ..JobConfig::default()
        };
        let out = word_count(&cfg, &docs);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let docs: Vec<&str> = vec![];
        let out = word_count(&JobConfig::default(), &docs);
        assert!(out.is_empty());
    }

    #[test]
    fn no_combiner_helper_type_checks() {
        let nums = [1u32, 2, 3, 4];
        let (out, _) = map_reduce(
            &JobConfig::default(),
            &nums,
            |n: &u32, emit| emit(*n % 2, *n as u64),
            no_combiner::<u32, u64>(),
            |_k, vs| vs.into_iter().sum::<u64>(),
        )
        .unwrap();
        assert_eq!(out, vec![(0, 6), (1, 4)]);
    }

    #[test]
    fn startup_cost_adds_latency() {
        let docs = ["a"];
        let cfg = JobConfig {
            num_mappers: 1,
            num_reducers: 2,
            startup_cost: Duration::from_millis(20),
            ..JobConfig::default()
        };
        let t = sched_now();
        word_count(&cfg, &docs);
        assert!(
            t.elapsed() >= Duration::from_millis(40),
            "1 map + 2 reduce tasks"
        );
    }

    #[test]
    fn stats_counts() {
        let docs = ["a b", "a"];
        let (_, stats) = map_reduce(
            &JobConfig {
                use_combiner: false,
                ..JobConfig::default()
            },
            &docs,
            |doc: &&str, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_string(), 1usize);
                }
            },
            no_combiner::<String, usize>(),
            |_k, vs| vs.into_iter().sum::<usize>(),
        )
        .unwrap();
        assert_eq!(stats.map_output_records, 3);
        assert_eq!(stats.shuffled_records, 3);
        assert_eq!(stats.reduced_keys, 2);
        assert!(stats.total_time() >= stats.map_time);
        // healthy run: one attempt per task, nothing retried or speculated
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.speculative_wins, 0);
        assert!(stats.attempts >= 2);
    }

    #[test]
    fn validated_rejects_bad_configs() {
        assert!(matches!(
            JobConfig {
                num_mappers: 0,
                ..JobConfig::default()
            }
            .validated(),
            Err(MapReduceError::InvalidConfig {
                field: "num_mappers",
                ..
            })
        ));
        assert!(matches!(
            JobConfig {
                max_attempts: 0,
                ..JobConfig::default()
            }
            .validated(),
            Err(MapReduceError::InvalidConfig {
                field: "max_attempts",
                ..
            })
        ));
        assert!(JobConfig::default().validated().is_ok());
    }

    #[test]
    fn validated_rejects_unwinnable_fault_plans() {
        let cfg = JobConfig {
            max_attempts: 2,
            faults: Some(FaultInjector::new(
                FaultPlan::new(1).panics(1.0).fault_free_after(2),
            )),
            ..JobConfig::default()
        };
        assert!(matches!(
            cfg.validated(),
            Err(MapReduceError::InvalidConfig {
                field: "faults",
                ..
            })
        ));
    }

    #[test]
    fn fold_groups_on_unsorted_input() {
        let pairs = vec![(2, 1), (1, 10), (2, 2), (1, 20)];
        let out = fold_groups(pairs, |_k, vs| vs.into_iter().sum::<i32>());
        assert_eq!(out, vec![(1, 30), (2, 3)]);
    }

    #[test]
    fn injected_panics_are_retried_to_the_same_answer() {
        let docs = ["x y z x", "y x", "z z z", "w", "q r s", "t u v"];
        let healthy = word_count(&JobConfig::default(), &docs);
        for seed in 0..10 {
            let cfg = JobConfig {
                num_mappers: 3,
                num_reducers: 5,
                faults: Some(FaultInjector::new(FaultPlan::new(seed).panics(0.6))),
                ..JobConfig::default()
            };
            let (out, stats) = map_reduce(
                &cfg,
                &docs,
                |doc: &&str, emit| {
                    for w in doc.split_whitespace() {
                        emit(w.to_string(), 1usize);
                    }
                },
                Some(|_k: &String, vs: Vec<usize>| vs.into_iter().sum::<usize>()),
                |_k, vs| vs.into_iter().sum::<usize>(),
            )
            .unwrap();
            assert_eq!(out, healthy, "seed {seed}");
            // every attempt beyond the 8 task wins was a retry or a
            // speculation loser
            assert!(
                stats.attempts >= 8 + stats.retries,
                "seed {seed}: {stats:?}"
            );
        }
    }

    #[test]
    fn mid_work_deaths_leave_no_partial_output() {
        let docs = vec!["a b c d e f g h"; 8];
        let healthy = word_count(&JobConfig::default(), &docs);
        for seed in 0..10 {
            let cfg = JobConfig {
                num_mappers: 4,
                faults: Some(FaultInjector::new(FaultPlan::new(seed).dies_mid_work(0.7))),
                ..JobConfig::default()
            };
            let out = try_word_count(&cfg, &docs).unwrap();
            assert_eq!(out, healthy, "seed {seed}");
        }
    }

    #[test]
    fn unwinnable_injected_plans_are_rejected_up_front() {
        // fault_free_after >= max_attempts would panic every attempt in
        // the budget; validate() refuses to start such a job
        let cfg = JobConfig {
            max_attempts: 3,
            num_mappers: 2,
            num_reducers: 2,
            faults: Some(FaultInjector::new(
                FaultPlan::new(5).panics(1.0).fault_free_after(100),
            )),
            ..JobConfig::default()
        };
        match try_word_count(&cfg, &["a b", "c d"]) {
            Err(MapReduceError::InvalidConfig { field, .. }) => assert_eq!(field, "faults"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn hundred_percent_panics_within_window_still_succeed() {
        // 100% panic probability on attempts 0 and 1, healthy from 2: the
        // retry path recovers every task
        let cfg = JobConfig {
            max_attempts: 3,
            num_mappers: 2,
            num_reducers: 2,
            faults: Some(FaultInjector::new(
                FaultPlan::new(5).panics(1.0).fault_free_after(2),
            )),
            ..JobConfig::default()
        };
        let (out, stats) = map_reduce(
            &cfg,
            &["a b", "c d"],
            |doc: &&str, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_string(), 1usize);
                }
            },
            no_combiner::<String, usize>(),
            |_k, vs| vs.into_iter().sum::<usize>(),
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        // 2 map + 2 reduce tasks, each failing exactly twice
        assert_eq!(stats.retries, 8, "{stats:?}");
    }

    #[test]
    fn exhausted_retries_surface_as_task_failed() {
        // a genuine user-code bug: the mapper panics on one record, every
        // attempt. After max_attempts the job reports which task died.
        // (The injector is a no-op; it just installs the quiet panic hook,
        // and the marker in the message keeps the expected panics silent.)
        let cfg = JobConfig {
            max_attempts: 3,
            num_mappers: 2,
            num_reducers: 2,
            backoff_base: Duration::from_micros(100),
            faults: Some(FaultInjector::new(FaultPlan::new(0))),
            ..JobConfig::default()
        };
        let err = map_reduce(
            &cfg,
            &["ok", "poison"],
            |doc: &&str, emit| {
                if *doc == "poison" {
                    panic!("{INJECTED_PANIC}: bad record");
                }
                emit(doc.to_string(), 1usize);
            },
            no_combiner::<String, usize>(),
            |_k, vs| vs.into_iter().sum::<usize>(),
        )
        .unwrap_err();
        match err {
            MapReduceError::TaskFailed {
                phase,
                attempts,
                message,
                ..
            } => {
                assert_eq!(phase, Phase::Map);
                assert_eq!(attempts, 3);
                assert!(message.contains("bad record"), "{message}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn stragglers_are_beaten_by_speculation() {
        // 8 map tasks; stalled attempts sleep 400ms but their speculative
        // backups (attempt >= 1 is fault-free) finish instantly. Fates are
        // deterministic, so scan for a seed whose schedule stalls some —
        // but not most — map tasks (enough healthy peers to establish the
        // straggler median) and leaves the 2 reduce tasks healthy (too few
        // peers there for speculation to ever engage).
        let plan = |seed: u64| {
            FaultPlan::new(seed)
                .stalls(0.4, Duration::from_millis(400))
                .fault_free_after(1)
        };
        let seed = (0..200)
            .find(|&s| {
                let inj = FaultInjector::new(plan(s));
                let stalled = (0..8)
                    .filter(|&t| matches!(inj.fate(0, Phase::Map, t, 0), AttemptFate::Stall(_)))
                    .count();
                let reduce_healthy =
                    (0..2).all(|t| inj.fate(0, Phase::Reduce, t, 0) == AttemptFate::Healthy);
                (1..=4).contains(&stalled) && reduce_healthy
            })
            .expect("some seed in 0..200 fits");
        let docs: Vec<String> = (0..8).map(|i| format!("w{i}")).collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let cfg = JobConfig {
            num_mappers: 8,
            num_reducers: 2,
            startup_cost: Duration::from_millis(2),
            speculation_slack: 2.0,
            speculation_min_peers: 3,
            faults: Some(FaultInjector::new(plan(seed))),
            ..JobConfig::default()
        };
        let t = sched_now();
        let (out, stats) = map_reduce(
            &cfg,
            &doc_refs,
            |doc: &&str, emit| emit(doc.to_string(), 1usize),
            no_combiner::<String, usize>(),
            |_k, vs| vs.into_iter().sum::<usize>(),
        )
        .unwrap();
        assert_eq!(out.len(), 8);
        assert!(
            stats.speculative_launched > 0,
            "expected speculation, {stats:?}"
        );
        assert!(stats.speculative_wins > 0, "{stats:?}");
        // the stalled originals (400ms each) never gate completion
        assert!(
            t.elapsed() < Duration::from_millis(350),
            "speculation should beat the 400ms stalls, took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let docs = ["a b c", "d e f", "a d g", "h i"];
        let run = |seed: u64| {
            let cfg = JobConfig {
                num_mappers: 4,
                num_reducers: 3,
                faults: Some(FaultInjector::new(
                    FaultPlan::new(seed).panics(0.4).dies_mid_work(0.3),
                )),
                ..JobConfig::default()
            };
            map_reduce(
                &cfg,
                &docs,
                |doc: &&str, emit| {
                    for w in doc.split_whitespace() {
                        emit(w.to_string(), 1usize);
                    }
                },
                no_combiner::<String, usize>(),
                |_k, vs| vs.into_iter().sum::<usize>(),
            )
            .unwrap()
        };
        let (out_a, stats_a) = run(17);
        let (out_b, stats_b) = run(17);
        assert_eq!(out_a, out_b);
        // retry counts replay exactly: the fault schedule is pure
        assert_eq!(stats_a.retries, stats_b.retries);
    }
}
