//! A paper-transcription oracle for CRH: Algorithm 1 and Algorithm 2
//! written out again from the paper's equations, with dense loops over an
//! `objects × properties × sources` array.
//!
//! It reads the claims out of the `ObservationTable` once and from then on
//! shares no code with the solvers: no `Pool`, no `PreparedProblem`, no
//! `crh_core::kernels`, no `Loss` impl, no weight assigner, and its own
//! entry std. It transcribes:
//!
//! * Eq 8, the 0-1 loss, and Eq 9, the weighted vote it is minimized by
//!   (ties go to the smaller label id);
//! * Eq 13, the squared loss normalized by the entry's std, and Eq 14, the
//!   weighted mean;
//! * Eq 15, the absolute loss normalized by the entry's std, and Eq 16,
//!   the weighted median;
//! * the log-max weights of §2.3 and the log-sum weights of Eq 5;
//! * §2.5's per-property normalization and count normalization;
//! * Algorithm 2's decayed accumulated distances (§2.6).
//!
//! The entry std is the population std of the entry's claims, floored at
//! `1e-9`. That is Eq 13 / Eq 15 as the paper writes them. Reference
//! implementations differ here: trustfuse divides the squared loss by
//! `max(std, 0.1)`, so an entry whose sources nearly agree weighs far less
//! there than in this repo. The floor of the per-source losses (`1e-12`)
//! and the `+1e-5` offset of the log-max weights are this repo's choices,
//! transcribed as constants below.
//!
//! Algorithm 1 runs with the paper's stopping rule (§2.5: the objective's
//! relative decrease is at most `1e-6`, checked from the second iteration
//! on). The solvers' float programs differ from the oracle's: they sum in
//! chunk or mapper order and merge partials in a tree. So values agree
//! within [`TOL`] rather than to the bit.
//!
//! The crh-core, crh-mapreduce and crh-stream suites each include this
//! file with `#[path]`, next to `random_table` from `mod.rs`.

use crh_core::ids::{ObjectId, PropertyId};
use crh_core::solver::CrhResult;
use crh_core::table::{ObservationTable, TruthTable};
use crh_core::value::{PropertyType, Truth, Value};

/// Relative tolerance of every comparison: truths, weights and the
/// objective trace must agree to `TOL · max(|x|, 1)`.
pub const TOL: f64 = 1e-9;
/// Iteration cap of every run (the solver's default).
pub const MAX_ITERS: usize = 100;
/// Relative-decrease tolerance of the stopping rule (the solver's default).
pub const STOP_TOL: f64 = 1e-6;
/// Floor of an entry's std (Eqs 13, 15).
pub const STD_FLOOR: f64 = 1e-9;
/// Floor of a source's loss before its logarithm is taken.
pub const LOSS_FLOOR: f64 = 1e-12;
/// Additive offset of the log-max weights.
pub const LOG_MAX_OFFSET: f64 = 1e-5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// `w_k = −log(L_k / max_k' L_k') + ε` (§2.3).
    LogMax,
    /// `w_k = −log(L_k / Σ_k' L_k')` (Eq 5).
    LogSum,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Norm {
    None,
    SumToOne,
    MaxToOne,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumLoss {
    /// Eq 15 / Eq 16.
    Absolute,
    /// Eq 13 / Eq 14.
    Squared,
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub scheme: Scheme,
    pub norm: Norm,
    pub count_normalize: bool,
    pub num_loss: NumLoss,
}

/// The paper's defaults, which are also the solver's.
pub const DEFAULTS: Config = Config {
    scheme: Scheme::LogMax,
    norm: Norm::SumToOne,
    count_normalize: true,
    num_loss: NumLoss::Absolute,
};

/// The claims as a dense array: `claims[o][m][k]` is source `k`'s claim on
/// property `m` of object `o`. Categorical labels are stored as their ids,
/// which are small integers and exact in an `f64`.
pub struct Dense {
    continuous: Vec<bool>,
    claims: Vec<Vec<Vec<Option<f64>>>>,
    sources: usize,
}

impl Dense {
    fn new(table: &ObservationTable) -> Self {
        let continuous: Vec<bool> = table
            .schema()
            .properties()
            .map(|(_, def)| def.ptype == PropertyType::Continuous)
            .collect();
        let (m, k) = (continuous.len(), table.num_sources());
        let mut claims = vec![vec![vec![None; k]; m]; table.num_objects()];
        for (_, entry, obs) in table.iter_entries() {
            for (s, v) in obs {
                let x = match v {
                    Value::Num(x) => *x,
                    Value::Cat(c) => f64::from(*c),
                    Value::Text(_) => panic!("the oracle has no text loss"),
                };
                claims[entry.object.index()][entry.property.index()][s.index()] = Some(x);
            }
        }
        Self {
            continuous,
            claims,
            sources: k,
        }
    }

    /// The observed `(source, claim)` pairs of entry `(o, m)`, in source
    /// order.
    fn entry(&self, o: usize, m: usize) -> Vec<(usize, f64)> {
        (self.claims[o][m].iter().enumerate())
            .filter_map(|(k, x)| x.map(|x| (k, x)))
            .collect()
    }
}

/// Population std of an entry's claims, floored.
pub fn entry_std(claims: &[(usize, f64)]) -> f64 {
    let n = claims.len() as f64;
    let mean = claims.iter().map(|c| c.1).sum::<f64>() / n;
    let var = claims
        .iter()
        .map(|c| (c.1 - mean) * (c.1 - mean))
        .sum::<f64>()
        / n;
    var.sqrt().max(STD_FLOOR)
}

/// `d_m(v*, v)`: Eq 8, Eq 13 or Eq 15.
pub fn loss(cfg: &Config, continuous: bool, truth: f64, v: f64, std: f64) -> f64 {
    match (continuous, cfg.num_loss) {
        (false, _) => f64::from(u8::from(truth != v)),
        (true, NumLoss::Squared) => (truth - v) * (truth - v) / std,
        (true, NumLoss::Absolute) => (truth - v).abs() / std,
    }
}

/// `v*` minimizing `Σ_k w_k d_m(v*, v_k)`: Eq 9, Eq 14 or Eq 16.
pub fn fit(cfg: &Config, continuous: bool, claims: &[(usize, f64)], w: &[f64]) -> f64 {
    let total: f64 = claims.iter().map(|&(k, _)| w[k]).sum();
    if !continuous {
        // Eq 9: the label with the largest total weight, ties to the
        // smaller id.
        let mut best = (f64::NEG_INFINITY, f64::INFINITY);
        for &(_, label) in claims {
            let votes: f64 = (claims.iter())
                .filter(|c| c.1 == label)
                .map(|&(k, _)| w[k])
                .sum();
            if votes > best.0 || (votes == best.0 && label < best.1) {
                best = (votes, label);
            }
        }
        return best.1;
    }
    match cfg.num_loss {
        NumLoss::Squared if total > 0.0 => {
            claims.iter().map(|&(k, x)| w[k] * x).sum::<f64>() / total
        }
        NumLoss::Squared => claims.iter().map(|c| c.1).sum::<f64>() / claims.len() as f64,
        NumLoss::Absolute => {
            // Eq 16: the smallest claim `v` with less than half the total
            // weight strictly below it and at most half strictly above.
            // Non-positive total weight counts every claim once.
            let unit = total <= 0.0;
            let wt = |k: usize| if unit { 1.0 } else { w[k] };
            let half = if unit { claims.len() as f64 } else { total } / 2.0;
            let mut values: Vec<f64> = claims.iter().map(|c| c.1).collect();
            values.sort_by(f64::total_cmp);
            let side = |keep: &dyn Fn(f64) -> bool| -> f64 {
                (claims.iter().filter(|c| keep(c.1)))
                    .map(|&(k, _)| wt(k))
                    .sum()
            };
            for &v in &values {
                if side(&|x| x < v) < half && side(&|x| x > v) <= half {
                    return v;
                }
            }
            values[values.len() - 1]
        }
    }
}

/// Per-source losses `L_k` of `truths` (§2.5): deviations summed per
/// property, each property rescaled by `norm`, then each source divided
/// by its claim count.
pub fn source_losses(cfg: &Config, d: &Dense, truths: &[Vec<Option<f64>>]) -> Vec<f64> {
    let m = d.continuous.len();
    let mut dev = vec![vec![0.0; d.sources]; m];
    let mut count = vec![0usize; d.sources];
    for (o, row) in truths.iter().enumerate() {
        for (p, truth) in row.iter().enumerate() {
            let Some(truth) = *truth else { continue };
            let claims = d.entry(o, p);
            let std = entry_std(&claims);
            for &(k, v) in &claims {
                dev[p][k] += loss(cfg, d.continuous[p], truth, v, std);
                count[k] += 1;
            }
        }
    }
    let mut total = vec![0.0; d.sources];
    for row in &dev {
        let factor = match cfg.norm {
            Norm::None => 1.0,
            Norm::SumToOne => row.iter().sum(),
            Norm::MaxToOne => row.iter().fold(0.0, |a: f64, &b| a.max(b)),
        };
        let factor = if factor > 0.0 { factor } else { 1.0 };
        for (t, x) in total.iter_mut().zip(row) {
            *t += x / factor;
        }
    }
    if cfg.count_normalize {
        for (t, &c) in total.iter_mut().zip(&count) {
            if c > 0 {
                *t /= c as f64;
            }
        }
    }
    total
}

/// Step I: the weights minimizing the objective for fixed truths.
pub fn weights(cfg: &Config, losses: &[f64]) -> Vec<f64> {
    let l: Vec<f64> = losses.iter().map(|x| x.max(LOSS_FLOOR)).collect();
    match cfg.scheme {
        Scheme::LogSum => {
            let sum: f64 = l.iter().sum();
            l.iter().map(|x| -(x / sum).ln()).collect()
        }
        Scheme::LogMax => {
            let max = l.iter().fold(LOSS_FLOOR, |a, &b| a.max(b));
            l.iter().map(|x| -(x / max).ln() + LOG_MAX_OFFSET).collect()
        }
    }
}

/// Step II: every entry's truth under `w`; `None` where no source claims.
pub fn truths(cfg: &Config, d: &Dense, w: &[f64]) -> Vec<Vec<Option<f64>>> {
    (0..d.claims.len())
        .map(|o| {
            (0..d.continuous.len())
                .map(|p| {
                    let claims = d.entry(o, p);
                    (!claims.is_empty()).then(|| fit(cfg, d.continuous[p], &claims, w))
                })
                .collect()
        })
        .collect()
}

pub struct Run {
    pub truths: Vec<Vec<Option<f64>>>,
    pub weights: Vec<f64>,
    pub trace: Vec<f64>,
}

/// Algorithm 1 from the uniform-weight fit (§2.5 "Initialization") until
/// the objective's relative decrease is at most [`STOP_TOL`].
pub fn oracle(cfg: &Config, table: &ObservationTable) -> Run {
    oracle_capped(cfg, table, MAX_ITERS)
}

/// [`oracle`] stopped after at most `max_iters` iterations.
pub fn oracle_capped(cfg: &Config, table: &ObservationTable, max_iters: usize) -> Run {
    let d = Dense::new(table);
    let mut w = vec![1.0; d.sources];
    let mut x = truths(cfg, &d, &w);
    let mut trace: Vec<f64> = Vec::new();
    for _ in 0..max_iters {
        w = weights(cfg, &source_losses(cfg, &d, &x));
        x = truths(cfg, &d, &w);
        let l = source_losses(cfg, &d, &x);
        let f = w.iter().zip(&l).map(|(w, l)| w * l).sum();
        let prev = trace.last().copied();
        trace.push(f);
        if prev.is_some_and(|prev| stop(prev, f)) {
            break;
        }
    }
    Run {
        truths: x,
        weights: w,
        trace,
    }
}

/// The stopping rule of §2.5.
pub fn stop(prev: f64, f: f64) -> bool {
    (prev - f).abs() / prev.abs().max(1.0) <= STOP_TOL
}

/// Algorithm 2 (I-CRH) over `chunks` in order, one [`Run`] per chunk with
/// an empty trace. Line 3 fits the chunk's truths under the current
/// weights, line 4 folds the chunk's per-source losses into the decayed
/// accumulated distances `a_k ← α·a_k + L_k`, and line 5 derives the
/// weights from `a` with the Step-I scheme. A source first seen in a chunk
/// joins at weight 1 with `a_k = 0` (line 1). The run's weights are those
/// after the chunk.
pub fn incremental(cfg: &Config, chunks: &[ObservationTable], alpha: f64) -> Vec<Run> {
    let mut w: Vec<f64> = Vec::new();
    let mut a: Vec<f64> = Vec::new();
    let mut runs = Vec::new();
    for chunk in chunks {
        let d = Dense::new(chunk);
        let k = d.sources.max(w.len());
        w.resize(k, 1.0);
        a.resize(k, 0.0);
        let x = truths(cfg, &d, &w);
        let l = source_losses(cfg, &d, &x);
        for (s, acc) in a.iter_mut().enumerate() {
            *acc = alpha * *acc + l.get(s).copied().unwrap_or(0.0);
        }
        w = weights(cfg, &a);
        runs.push(Run {
            truths: x,
            weights: w.clone(),
            trace: Vec::new(),
        });
    }
    runs
}

/// `Σ_k w_k L_k` (Eq 1) of a solver's own weights and truths, priced by
/// the oracle's losses: how a driver that reports no trace is held to the
/// oracle's objective.
pub fn objective(cfg: &Config, table: &ObservationTable, w: &[f64], truths: &TruthTable) -> f64 {
    let d = Dense::new(table);
    let x: Vec<Vec<Option<f64>>> = (0..d.claims.len())
        .map(|o| {
            (0..d.continuous.len())
                .map(|p| {
                    let e = table.entry_id(ObjectId::from_index(o), PropertyId::from_index(p))?;
                    match truths.get(e) {
                        Truth::Point(Value::Num(v)) => Some(*v),
                        Truth::Point(Value::Cat(c)) => Some(f64::from(*c)),
                        t => panic!("truth of {e:?} has unexpected shape {t:?}"),
                    }
                })
                .collect()
        })
        .collect();
    let l = source_losses(cfg, &d, &x);
    w.iter().zip(&l).map(|(w, l)| w * l).sum()
}

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(1.0)
}

/// A solver's answer: truths, weights and objective trace.
pub struct Answer<'a> {
    pub truths: &'a TruthTable,
    pub weights: &'a [f64],
    pub trace: &'a [f64],
}

impl<'a> From<&'a CrhResult> for Answer<'a> {
    fn from(res: &'a CrhResult) -> Self {
        Self {
            truths: &res.truths,
            weights: &res.weights,
            trace: &res.objective_trace,
        }
    }
}

/// The first disagreement between the oracle and a solver's answer, if
/// any.
pub fn divergence(want: &Run, table: &ObservationTable, got: &Answer<'_>) -> Option<String> {
    if got.trace.len() != want.trace.len() {
        let (got, want) = (got.trace.len(), want.trace.len());
        return Some(format!("{got} iterations, oracle {want}"));
    }
    for (i, (a, b)) in want.trace.iter().zip(got.trace).enumerate() {
        if !close(*a, *b) {
            return Some(format!("objective at iteration {i}: {b} vs oracle {a}"));
        }
    }
    for (k, (a, b)) in want.weights.iter().zip(got.weights).enumerate() {
        if !close(*a, *b) {
            return Some(format!("weight of source {k}: {b} vs oracle {a}"));
        }
    }
    for (o, row) in want.truths.iter().enumerate() {
        for (p, x) in row.iter().enumerate() {
            let Some(x) = *x else { continue };
            let e = table
                .entry_id(ObjectId::from_index(o), PropertyId::from_index(p))
                .expect("the oracle fits observed entries only");
            let v = match got.truths.get(e) {
                Truth::Point(Value::Num(v)) => *v,
                Truth::Point(Value::Cat(c)) => f64::from(*c),
                t => return Some(format!("truth of {e:?} has unexpected shape {t:?}")),
            };
            if !close(x, v) {
                return Some(format!("truth of {e:?}: {v} vs oracle {x}"));
            }
        }
    }
    None
}

/// Panic with the first disagreement between the oracle and a solver.
pub fn assert_agrees(what: &str, seed: u64, want: &Run, table: &ObservationTable, got: Answer<'_>) {
    if let Some(why) = divergence(want, table, &got) {
        panic!("{what}, table {seed}: {why}");
    }
}
