//! The CRH block-coordinate-descent solver (Algorithm 1).
//!
//! Starting from a Voting/Averaging initialization of the truths (§2.5
//! "Initialization"), the solver alternates:
//!
//! * **Step I — weight update** (Eq 2): per-source total deviations are
//!   accumulated, optionally normalized per property (§2.5 "Normalization")
//!   and by each source's observation count (§2.5 "Missing values"), and the
//!   configured [`WeightAssigner`] maps them to weights.
//! * **Step II — truth update** (Eq 3): each entry's truth is recomputed by
//!   its property's [`Loss`] closed form.
//!
//! Iteration stops when the relative decrease of the objective falls below
//! the tolerance ("the decrease in the objective function is small enough
//! compared with the previous iteration", §2.5) or `max_iters` is reached.
//!
//! ## Execution model
//!
//! Both steps decompose over entries (§2.7), so the hot path runs as
//! **entry-sharded kernels** on a deterministic [`Pool`]: each chunk of the
//! entry range fits its truths and accumulates its per-source deviations
//! into a private partial buffer, and the partials are merged with a fixed
//! pairwise tree over the chunk index — bit-identical output for every
//! thread count (see [`par`](crate::par) and
//! [`kernels`](crate::kernels)). The iteration loop is **fused**: the
//! deviation pass that prices the freshly-fitted truths for the
//! convergence check is the same pass whose losses feed the next
//! iteration's weight update, so deviations are computed once per
//! iteration instead of twice. All per-iteration state lives in a
//! [`SolverScratch`] (flat row-major deviation matrix + per-chunk
//! partials + fit scratch) and a reusable [`TruthTable`] buffer, both
//! allocated once per run.
//!
//! ## One layout, one loop
//!
//! Every [`PreparedProblem`] carries a [`ColumnarPlan`]: the claims
//! mirrored column-by-property (dense ids, contiguous `f64`, validity
//! bitmaps — see [`columnar`](crate::columnar)). Inside each chunk,
//! properties whose loss advertises a fast [`KernelClass`] run as flat
//! sweeps from [`kernels`](crate::kernels) instead of per-observation
//! `Value`/vtable dispatch; everything else (distribution losses, text
//! medoids, anchors with unexpected types, type-mixed properties) runs the
//! per-entry body over the row table, which calls the property's [`Loss`]
//! directly. The fast sweeps replay those `Loss` float programs to the bit.
//!
//! [`Crh::run`], [`FineGrainedCrh::run`](crate::finegrained::FineGrainedCrh::run)
//! and [`SemiSupervisedCrh::run`](crate::semisupervised::SemiSupervisedCrh::run)
//! share one fused loop; they differ only in the kernel weights, the
//! anchors and the Step-I grouping they pass in. Three checks pin it: golden
//! digests per variant (recorded before the row-layout mode was removed),
//! a fixed-point check that every returned truth equals its `Loss::fit`
//! under the returned weights, and a dense transcription of the paper's
//! equations that shares no code with the solver (`tests/oracle.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::columnar::{ColumnarPlan, PropertyColumn};
use crate::error::{CrhError, Result};
use crate::ids::{EntryId, ObjectId, PropertyId};
use crate::kernels::{self, FitScratch, KernelClass};
use crate::loss::{default_loss_for, Loss};
use crate::par::Pool;
use crate::stats::EntryStats;
use crate::table::{ObservationTable, TruthTable};
use crate::value::{Truth, Value};
use crate::weights::{LogMax, WeightAssigner};

/// Cross-property normalization of per-source deviations (§2.5
/// "Normalization"): rescale each property's deviation column so no property
/// dominates the weight update just because its loss has a bigger range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropertyNorm {
    /// No rescaling. Use when all losses are already on a common scale
    /// (also the configuration under which the convergence guarantee is
    /// exact).
    None,
    /// Divide property `m`'s deviations by `Σ_k D_mk` so each property
    /// contributes a unit total across sources (default).
    #[default]
    SumToOne,
    /// Divide property `m`'s deviations by `max_k D_mk`.
    MaxToOne,
}

/// The settings every solver variant shares: the Step-I scheme and its
/// normalization (§2.3, §2.5), the stopping rule and the kernel threads.
pub(crate) struct LoopSettings {
    pub(crate) assigner: Box<dyn WeightAssigner>,
    pub(crate) property_norm: PropertyNorm,
    pub(crate) count_normalize: bool,
    pub(crate) max_iters: usize,
    pub(crate) tol: f64,
    pub(crate) threads: usize,
}

impl Default for LoopSettings {
    /// Paper defaults: log-max weights, per-property sum normalization,
    /// count normalization, 100-iteration cap, 1e-6 relative tolerance,
    /// all available cores.
    fn default() -> Self {
        Self {
            assigner: Box::new(LogMax),
            property_norm: PropertyNorm::SumToOne,
            count_normalize: true,
            max_iters: 100,
            tol: 1e-6,
            threads: 0,
        }
    }
}

impl LoopSettings {
    /// Per-source losses `L_k` of the deviation rows `rows` (§2.5).
    pub(crate) fn losses<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a [f64]>,
        source_counts: &[usize],
    ) -> Vec<f64> {
        source_losses_rows(
            rows,
            source_counts,
            self.property_norm,
            self.count_normalize,
        )
    }
}

/// The stopping rule of every solver loop (§2.5): the objective's decrease
/// relative to the previous iteration, `|f_prev − f| / max(|f_prev|, 1)`,
/// is at most `tol`. The MapReduce and out-of-core drivers stop on it too.
pub fn within_tol(prev: f64, f: f64, tol: f64) -> bool {
    (prev - f).abs() / prev.abs().max(1.0) <= tol
}

/// Configuration builder for [`Crh`].
pub struct CrhBuilder {
    settings: LoopSettings,
    loss_overrides: HashMap<PropertyId, Arc<dyn Loss>>,
}

impl Default for CrhBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CrhBuilder {
    /// Paper defaults: 0-1 loss / weighted median (chosen per property type),
    /// log-max weights, per-property sum normalization, count normalization,
    /// 100-iteration cap, 1e-6 relative tolerance, all available cores.
    pub fn new() -> Self {
        Self {
            settings: LoopSettings::default(),
            loss_overrides: HashMap::new(),
        }
    }

    /// Cap the number of iterations.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.settings.max_iters = n;
        self
    }

    /// Relative-objective-decrease convergence tolerance.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.settings.tol = tol;
        self
    }

    /// Replace the weight-assignment scheme (§2.3).
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.settings.assigner = Box::new(a);
        self
    }

    /// Select the cross-property normalization (§2.5).
    pub fn property_norm(mut self, norm: PropertyNorm) -> Self {
        self.settings.property_norm = norm;
        self
    }

    /// Enable/disable dividing each source's total deviation by its
    /// observation count (§2.5 "Missing values"; default on).
    pub fn count_normalize(mut self, on: bool) -> Self {
        self.settings.count_normalize = on;
        self
    }

    /// Worker threads for the entry-sharded kernels: `0` (default) uses the
    /// machine's available parallelism, `1` is the exact sequential path.
    /// Results are bit-identical for every value — the knob trades wall
    /// clock only (see [`Pool`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.settings.threads = n;
        self
    }

    /// Override the loss for one property (defaults are chosen by type:
    /// 0-1 for categorical, normalized absolute for continuous,
    /// edit distance for text).
    pub fn loss_for(mut self, property: PropertyId, loss: impl Loss + 'static) -> Self {
        self.loss_overrides.insert(property, Arc::new(loss));
        self
    }

    /// Validate and freeze the configuration.
    pub fn build(self) -> Result<Crh> {
        if self.settings.max_iters == 0 {
            return Err(CrhError::InvalidParameter("max_iters must be >= 1".into()));
        }
        if self.settings.tol.is_nan() || self.settings.tol < 0.0 {
            return Err(CrhError::InvalidParameter("tolerance must be >= 0".into()));
        }
        Ok(Crh { cfg: self })
    }
}

impl std::fmt::Debug for CrhBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.settings;
        f.debug_struct("CrhBuilder")
            .field("max_iters", &s.max_iters)
            .field("tol", &s.tol)
            .field("assigner", &s.assigner.name())
            .field("property_norm", &s.property_norm)
            .field("count_normalize", &s.count_normalize)
            .field("threads", &s.threads)
            .finish()
    }
}

/// The configured CRH solver.
#[derive(Debug)]
pub struct Crh {
    cfg: CrhBuilder,
}

/// Result of a CRH run.
#[derive(Debug, Clone)]
pub struct CrhResult {
    /// The estimated truth table `X^(*)`, parallel to the input's entries.
    pub truths: TruthTable,
    /// The estimated source weights `W` (indexed by `SourceId`).
    pub weights: Vec<f64>,
    /// Objective value `f(X*, W)` after each iteration.
    pub objective_trace: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance criterion was met before `max_iters`.
    pub converged: bool,
}

/// Result of a run with one weight vector per group: the fine-grained and
/// object-grouped variants (re-exported from
/// [`finegrained`](crate::finegrained)).
#[derive(Debug, Clone)]
pub struct FineGrainedResult {
    /// The estimated truth table.
    pub truths: TruthTable,
    /// `weights[g][k]`: weight of source `k` on property group `g`.
    pub weights: Vec<Vec<f64>>,
    /// Objective (summed over groups) per iteration.
    pub objective_trace: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether convergence was reached before the iteration cap.
    pub converged: bool,
}

/// A prepared problem: per-property losses and per-entry stats, reusable
/// across runs over the same table (and by the streaming / parallel
/// variants).
pub struct PreparedProblem<'t> {
    /// The input table.
    pub table: &'t ObservationTable,
    /// One loss per property (by `PropertyId` index).
    pub losses: Vec<Arc<dyn Loss>>,
    /// Per-entry statistics, parallel to the table's entries.
    pub stats: Vec<EntryStats>,
    /// Columnar mirror + per-property kernel classes.
    plan: ColumnarPlan,
}

impl<'t> PreparedProblem<'t> {
    /// Build default (or overridden) losses and entry stats for `table`,
    /// plus the columnar mirror the kernels sweep. Overridden losses must
    /// match their property's declared type.
    pub fn new(
        table: &'t ObservationTable,
        overrides: &HashMap<PropertyId, Arc<dyn Loss>>,
    ) -> Result<Self> {
        let mut losses: Vec<Arc<dyn Loss>> = Vec::with_capacity(table.num_properties());
        for (pid, def) in table.schema().properties() {
            match overrides.get(&pid) {
                Some(l) => {
                    if l.property_type() != def.ptype {
                        return Err(CrhError::TypeMismatch {
                            property: pid,
                            expected: def.ptype,
                            got: l.property_type(),
                        });
                    }
                    losses.push(Arc::clone(l));
                }
                None => losses.push(default_loss_for(def.ptype).into()),
            }
        }
        let (plan, stats) = ColumnarPlan::new(table, &losses)?;
        Ok(Self {
            table,
            losses,
            stats,
            plan,
        })
    }

    /// The loss configured for `property`.
    pub fn loss(&self, property: PropertyId) -> &dyn Loss {
        self.losses[property.index()].as_ref()
    }
}

/// Row-major flat deviation matrix `D[r][k] = Σ_i d(v*_i, v_i^(k))`.
///
/// For the plain solver a row is a property; the object-grouped variant
/// stacks one `M`-row block per group. The flat layout keeps the whole
/// matrix in one allocation that a [`SolverScratch`] reuses across
/// iterations (the old `Vec<Vec<f64>>` reallocated `M + 1` vectors per
/// pass).
#[derive(Debug, Clone)]
pub struct DevMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DevMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows (properties, or groups × properties).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (sources).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate the rows in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Copy out to the nested layout (compatibility with the MapReduce
    /// wrapper format and older call sites).
    pub fn to_nested(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }

    fn reset(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }
}

/// Reusable per-run solver state: the merged flat [`DevMatrix`] plus one
/// private partial buffer per deterministic chunk. Allocated once per
/// `run()` (or session) and reused by every iteration — the steady-state
/// iteration loop performs no heap allocation in the kernels.
#[derive(Debug)]
pub struct SolverScratch {
    dev: DevMatrix,
    /// Chunk-major partial deviations: chunk `c` owns
    /// `partials[c * rows * cols ..][.. rows * cols]`.
    partials: Vec<f64>,
    /// One columnar fit scratch (vote tallies) per chunk, so the fused and
    /// fit-only kernels stay allocation-free in steady state.
    pub(crate) fit: Vec<FitScratch>,
}

impl SolverScratch {
    /// Scratch for `entries` items and a `dev_rows × sources` deviation
    /// matrix.
    pub fn new(entries: usize, dev_rows: usize, sources: usize) -> Self {
        let cell = dev_rows * sources;
        let chunks = Pool::num_chunks(entries);
        Self {
            dev: DevMatrix::zeros(dev_rows, sources),
            partials: vec![0.0; chunks * cell],
            fit: vec![FitScratch::default(); chunks],
        }
    }

    /// Scratch sized for a plain (per-property) solve over `table`.
    pub fn for_table(table: &ObservationTable) -> Self {
        Self::new(
            table.num_entries(),
            table.num_properties(),
            table.num_sources(),
        )
    }

    /// The most recently merged deviation matrix.
    pub fn dev(&self) -> &DevMatrix {
        &self.dev
    }

    /// Grow/shrink for a (possibly) different problem shape. A no-op when
    /// the shape is unchanged, so per-iteration calls are free.
    fn ensure(&mut self, entries: usize, dev_rows: usize, sources: usize) {
        if self.dev.rows != dev_rows || self.dev.cols != sources {
            self.dev = DevMatrix::zeros(dev_rows, sources);
        }
        let chunks = Pool::num_chunks(entries);
        let want = chunks * dev_rows * sources;
        if self.partials.len() != want {
            self.partials.resize(want, 0.0);
        }
        if self.fit.len() < chunks {
            self.fit.resize(chunks, FitScratch::default());
        }
    }

    /// Fold the per-chunk partials into `dev` with the **fixed pairwise
    /// tree** of [`kernels::pairwise_accumulate`]: the reduction order is a
    /// pure function of the chunk count (itself a pure function of the
    /// entry count), so the merged deviations are bit-identical for every
    /// thread count.
    fn merge_partials(&mut self) {
        let cell = self.dev.data.len();
        kernels::pairwise_accumulate(&mut self.partials, cell);
        if cell > 0 && self.partials.len() >= cell {
            self.dev.data.copy_from_slice(&self.partials[..cell]);
        } else {
            self.dev.reset();
        }
    }
}

/// How a kernel resolves the weight vector for an entry.
pub(crate) enum KernelWeights<'a> {
    /// One shared weight vector (plain CRH).
    Shared(&'a [f64]),
    /// Per-property-group weights (fine-grained variant).
    ByProperty {
        /// `per_group[g][k]`.
        per_group: &'a [Vec<f64>],
        /// property index → group index.
        group_of: &'a [usize],
    },
    /// Per-entry-group weights (object-grouped variant).
    ByEntry {
        /// `per_group[g][k]`.
        per_group: &'a [Vec<f64>],
        /// entry index → group index.
        entry_group: &'a [usize],
    },
}

impl<'a> KernelWeights<'a> {
    fn for_entry(&self, entry_idx: usize, prop_idx: usize) -> &'a [f64] {
        match self {
            KernelWeights::Shared(w) => w,
            KernelWeights::ByProperty {
                per_group,
                group_of,
            } => per_group[group_of[prop_idx]].as_slice(),
            KernelWeights::ByEntry {
                per_group,
                entry_group,
            } => per_group[entry_group[entry_idx]].as_slice(),
        }
    }
}

/// Semi-supervised anchoring: entries present in `anchors` have their truth
/// pinned to the known value and their loss terms scaled by `boost`.
#[derive(Clone, Copy)]
pub(crate) struct AnchorBoost<'a> {
    pub(crate) anchors: &'a HashMap<(ObjectId, PropertyId), Value>,
    pub(crate) boost: f64,
}

/// Full parameterization of the fused fit + deviation kernel.
pub(crate) struct KernelSpec<'a> {
    pub(crate) weights: KernelWeights<'a>,
    pub(crate) anchors: Option<AnchorBoost<'a>>,
}

/// The anchor pinned to entry `i`, if any, with its loss boost.
#[inline]
fn anchor_of<'s>(
    table: &ObservationTable,
    spec: &'s KernelSpec<'_>,
    i: usize,
) -> Option<(&'s Value, f64)> {
    let a = spec.anchors.as_ref()?;
    let entry = table.entry(EntryId::from_index(i));
    a.anchors
        .get(&(entry.object, entry.property))
        .map(|v| (v, a.boost))
}

/// The per-entry body of the fused kernel, the `Generic` fallback: fit
/// under the entry's weights with the property's [`Loss`], apply any
/// anchor, then accumulate the per-source loss row. The fast sweeps replay
/// this float program to the bit.
#[inline]
fn fused_entry(
    prepared: &PreparedProblem<'_>,
    spec: &KernelSpec<'_>,
    k: usize,
    i: usize,
    cell: &mut Truth,
    partial: &mut [f64],
) {
    let table = prepared.table;
    let e = EntryId::from_index(i);
    let entry = table.entry(e);
    let obs = table.observations(e);
    let loss = prepared.loss(entry.property);
    let stats = &prepared.stats[i];
    let w = spec.weights.for_entry(i, entry.property.index());
    let mut truth = loss.fit(obs, w, stats);
    let mut scale = 1.0;
    if let Some(a) = &spec.anchors {
        if let Some(v) = a.anchors.get(&(entry.object, entry.property)) {
            truth = Truth::Point(v.clone());
            scale = a.boost;
        }
    }
    let start = entry.property.index() * k;
    let row = &mut partial[start..start + k];
    for (s, v) in obs {
        row[s.index()] += scale * loss.loss(&truth, v, stats);
    }
    *cell = truth;
}

/// The fused body for one chunk: property-major sweeps over the chunk's
/// slice of each column, dispatched by kernel class. Entries whose class
/// is `Generic` — and fast-class rows that hit an unexpected shape (anchor
/// of a different type, empty fit) — drop to [`fused_entry`]. Deviation
/// rows accumulate in entry order: within a property, column rows ascend
/// by entry index, and distinct properties touch distinct deviation rows.
#[expect(
    clippy::too_many_arguments,
    reason = "one chunk's read-only inputs and its output slots, passed apart so workers borrow disjointly"
)]
fn fused_chunk(
    prepared: &PreparedProblem<'_>,
    spec: &KernelSpec<'_>,
    m: usize,
    k: usize,
    range: &std::ops::Range<usize>,
    cells: &mut [Truth],
    partial: &mut [f64],
    fit: &mut FitScratch,
) {
    let table = prepared.table;
    let plan = &prepared.plan;
    for p in 0..m {
        let column = plan.table.column(p);
        let rows = column.rows();
        let lo = rows.partition_point(|&r| (r as usize) < range.start);
        let hi = rows.partition_point(|&r| (r as usize) < range.end);
        if lo == hi {
            continue;
        }
        match (column, plan.class[p]) {
            (PropertyColumn::Num(col), KernelClass::Mean) => {
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let vals = col.values_row(r, k);
                    let valid = col.valid_row(r);
                    let (truth, scale) = match anchor_of(table, spec, i) {
                        Some((v, boost)) => match v.as_num() {
                            Some(t) => (t, boost),
                            None => {
                                fused_entry(
                                    prepared,
                                    spec,
                                    k,
                                    i,
                                    &mut cells[i - range.start],
                                    partial,
                                );
                                continue;
                            }
                        },
                        None => {
                            let w = spec.weights.for_entry(i, p);
                            (kernels::fit_mean(vals, valid, w), 1.0)
                        }
                    };
                    cells[i - range.start] = Truth::Point(Value::Num(truth));
                    let row = &mut partial[p * k..][..k];
                    kernels::dev_sweep_squared(
                        vals,
                        valid,
                        truth,
                        prepared.stats[i].std,
                        scale,
                        row,
                    );
                }
            }
            (PropertyColumn::Num(col), KernelClass::Median) => {
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let vals = col.values_row(r, k);
                    let valid = col.valid_row(r);
                    let fitted = match anchor_of(table, spec, i) {
                        Some((v, boost)) => v.as_num().map(|t| (t, boost)),
                        None => {
                            let w = spec.weights.for_entry(i, p);
                            let order = col.order_row(r, k);
                            kernels::fit_median_presorted(vals, valid, order, w).map(|t| (t, 1.0))
                        }
                    };
                    let Some((truth, scale)) = fitted else {
                        fused_entry(prepared, spec, k, i, &mut cells[i - range.start], partial);
                        continue;
                    };
                    cells[i - range.start] = Truth::Point(Value::Num(truth));
                    let row = &mut partial[p * k..][..k];
                    kernels::dev_sweep_absolute(
                        vals,
                        valid,
                        truth,
                        prepared.stats[i].std,
                        scale,
                        row,
                    );
                }
            }
            (PropertyColumn::Coded(col), KernelClass::Vote) => {
                let domain = col.domain();
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let codes = col.codes_row(r, k);
                    let valid = col.valid_row(r);
                    let fitted = match anchor_of(table, spec, i) {
                        Some((v, boost)) => match v {
                            Value::Cat(c) => Some((*c, boost)),
                            _ => None,
                        },
                        None => {
                            let w = spec.weights.for_entry(i, p);
                            kernels::fit_vote(codes, valid, w, fit, domain).map(|c| (c, 1.0))
                        }
                    };
                    let Some((code, scale)) = fitted else {
                        fused_entry(prepared, spec, k, i, &mut cells[i - range.start], partial);
                        continue;
                    };
                    cells[i - range.start] = Truth::Point(Value::Cat(code));
                    let row = &mut partial[p * k..][..k];
                    kernels::dev_sweep_zero_one(codes, valid, code, scale, row);
                }
            }
            _ => {
                for &ri in &rows[lo..hi] {
                    let i = ri as usize;
                    fused_entry(prepared, spec, k, i, &mut cells[i - range.start], partial);
                }
            }
        }
    }
}

/// The fused Step II + deviation pass: one entry-sharded sweep fits every
/// entry's truth under `spec.weights` *and* accumulates the new truths'
/// per-source losses into `scratch` (merged with the fixed pairwise tree).
/// The losses it leaves in `scratch.dev()` price exactly the truths it
/// leaves in `truths`, so they serve both the convergence check and the
/// next iteration's Step I.
pub(crate) fn fused_fit_dev(
    prepared: &PreparedProblem<'_>,
    spec: &KernelSpec<'_>,
    pool: &Pool,
    truths: &mut TruthTable,
    scratch: &mut SolverScratch,
) {
    let table = prepared.table;
    let n = table.num_entries();
    let m = table.num_properties();
    let k = table.num_sources();
    scratch.ensure(n, m, k);
    truths.resize_for_fit(n);

    struct Job<'j> {
        range: std::ops::Range<usize>,
        cells: &'j mut [Truth],
        partial: &'j mut [f64],
        fit: &'j mut FitScratch,
    }
    let cell = scratch.dev.data.len();
    let ranges = Pool::chunk_ranges(n);
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
    let mut rest = truths.as_mut_slice();
    for ((range, partial), fit) in ranges
        .into_iter()
        .zip(scratch.partials.chunks_mut(cell.max(1)))
        .zip(scratch.fit.iter_mut())
    {
        let (cells, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
        rest = tail;
        jobs.push(Job {
            range,
            cells,
            partial,
            fit,
        });
    }

    pool.run_jobs(&mut jobs, |job| {
        for x in job.partial.iter_mut() {
            *x = 0.0;
        }
        fused_chunk(
            prepared,
            spec,
            m,
            k,
            &job.range,
            job.cells,
            job.partial,
            job.fit,
        );
    });
    scratch.merge_partials();
}

/// The per-entry body of the deviation kernel, the `Generic` fallback.
#[inline]
fn dev_entry(
    prepared: &PreparedProblem<'_>,
    truths: &TruthTable,
    block_of: Option<&[usize]>,
    m: usize,
    k: usize,
    i: usize,
    partial: &mut [f64],
) {
    let table = prepared.table;
    let e = EntryId::from_index(i);
    let entry = table.entry(e);
    let obs = table.observations(e);
    let loss = prepared.loss(entry.property);
    let stats = &prepared.stats[i];
    let truth = truths.get(e);
    let block = block_of.map_or(0, |b| b[i]);
    let start = (block * m + entry.property.index()) * k;
    let row = &mut partial[start..start + k];
    for (s, v) in obs {
        row[s.index()] += loss.loss(truth, v, stats);
    }
}

/// The deviation body for one chunk: price the existing truths against
/// each column slice with the branch-free sweeps. A truth whose type
/// doesn't match the column (type confusion the losses price as a unit
/// penalty per observation) runs [`kernels::dev_sweep_unit`]; columns
/// without a fast class drop to [`dev_entry`].
fn dev_chunk(
    prepared: &PreparedProblem<'_>,
    truths: &TruthTable,
    block_of: Option<&[usize]>,
    m: usize,
    k: usize,
    range: &std::ops::Range<usize>,
    partial: &mut [f64],
) {
    let plan = &prepared.plan;
    for p in 0..m {
        let column = plan.table.column(p);
        let rows = column.rows();
        let lo = rows.partition_point(|&r| (r as usize) < range.start);
        let hi = rows.partition_point(|&r| (r as usize) < range.end);
        if lo == hi {
            continue;
        }
        match (column, plan.class[p]) {
            (PropertyColumn::Num(col), class @ (KernelClass::Mean | KernelClass::Median)) => {
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let vals = col.values_row(r, k);
                    let valid = col.valid_row(r);
                    let block = block_of.map_or(0, |b| b[i]);
                    let row = &mut partial[(block * m + p) * k..][..k];
                    match truths.get(EntryId::from_index(i)).as_num() {
                        Some(t) => {
                            let std = prepared.stats[i].std;
                            if class == KernelClass::Mean {
                                kernels::dev_sweep_squared(vals, valid, t, std, 1.0, row);
                            } else {
                                kernels::dev_sweep_absolute(vals, valid, t, std, 1.0, row);
                            }
                        }
                        None => kernels::dev_sweep_unit(valid, 1.0, row),
                    }
                }
            }
            (PropertyColumn::Coded(col), KernelClass::Vote) => {
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let codes = col.codes_row(r, k);
                    let valid = col.valid_row(r);
                    let block = block_of.map_or(0, |b| b[i]);
                    let row = &mut partial[(block * m + p) * k..][..k];
                    // replicate `truth.point().matches(obs)` without the clone
                    let tc = match truths.get(EntryId::from_index(i)) {
                        Truth::Point(Value::Cat(c)) => Some(*c),
                        Truth::Distribution { mode, .. } => Some(*mode),
                        _ => None,
                    };
                    match tc {
                        Some(c) => kernels::dev_sweep_zero_one(codes, valid, c, 1.0, row),
                        None => kernels::dev_sweep_unit(valid, 1.0, row),
                    }
                }
            }
            _ => {
                for &ri in &rows[lo..hi] {
                    dev_entry(prepared, truths, block_of, m, k, ri as usize, partial);
                }
            }
        }
    }
}

/// Deviation-only pass over existing truths (Step I input when the truths
/// were produced elsewhere): entry-sharded, merged with the fixed pairwise
/// tree into `scratch.dev()`. `blocks` optionally routes each entry's row
/// into a per-group block of the matrix (object-grouped variant).
pub(crate) fn dev_kernel(
    prepared: &PreparedProblem<'_>,
    truths: &TruthTable,
    blocks: Option<(&[usize], usize)>,
    pool: &Pool,
    scratch: &mut SolverScratch,
) {
    let table = prepared.table;
    let n = table.num_entries();
    let m = table.num_properties();
    let k = table.num_sources();
    let (block_of, num_blocks) = match blocks {
        Some((b, g)) => (Some(b), g.max(1)),
        None => (None, 1),
    };
    scratch.ensure(n, num_blocks * m, k);

    let cell = scratch.dev.data.len();
    let ranges = Pool::chunk_ranges(n);
    let mut jobs: Vec<(std::ops::Range<usize>, &mut [f64])> = ranges
        .into_iter()
        .zip(scratch.partials.chunks_mut(cell.max(1)))
        .collect();

    pool.run_jobs(&mut jobs, |(range, partial)| {
        for x in partial.iter_mut() {
            *x = 0.0;
        }
        dev_chunk(prepared, truths, block_of, m, k, range, partial);
    });
    scratch.merge_partials();
}

/// The per-entry body of the fit kernel, the `Generic` fallback.
#[inline]
fn fit_entry(
    prepared: &PreparedProblem<'_>,
    weights: &KernelWeights<'_>,
    i: usize,
    cell: &mut Truth,
) {
    let table = prepared.table;
    let e = EntryId::from_index(i);
    let entry = table.entry(e);
    let obs = table.observations(e);
    let loss = prepared.loss(entry.property);
    let w = weights.for_entry(i, entry.property.index());
    *cell = loss.fit(obs, w, &prepared.stats[i]);
}

/// The fit body for one chunk: class-dispatched fast fits, with
/// [`fit_entry`] as the `Generic` fallback.
fn fit_chunk(
    prepared: &PreparedProblem<'_>,
    weights: &KernelWeights<'_>,
    k: usize,
    range: &std::ops::Range<usize>,
    cells: &mut [Truth],
    fit: &mut FitScratch,
) {
    let plan = &prepared.plan;
    for p in 0..plan.table.num_columns() {
        let column = plan.table.column(p);
        let rows = column.rows();
        let lo = rows.partition_point(|&r| (r as usize) < range.start);
        let hi = rows.partition_point(|&r| (r as usize) < range.end);
        if lo == hi {
            continue;
        }
        match (column, plan.class[p]) {
            (PropertyColumn::Num(col), KernelClass::Mean) => {
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let w = weights.for_entry(i, p);
                    let t = kernels::fit_mean(col.values_row(r, k), col.valid_row(r), w);
                    cells[i - range.start] = Truth::Point(Value::Num(t));
                }
            }
            (PropertyColumn::Num(col), KernelClass::Median) => {
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let w = weights.for_entry(i, p);
                    match kernels::fit_median_presorted(
                        col.values_row(r, k),
                        col.valid_row(r),
                        col.order_row(r, k),
                        w,
                    ) {
                        Some(t) => cells[i - range.start] = Truth::Point(Value::Num(t)),
                        None => fit_entry(prepared, weights, i, &mut cells[i - range.start]),
                    }
                }
            }
            (PropertyColumn::Coded(col), KernelClass::Vote) => {
                let domain = col.domain();
                for (r, &ri) in rows.iter().enumerate().take(hi).skip(lo) {
                    let i = ri as usize;
                    let w = weights.for_entry(i, p);
                    match kernels::fit_vote(col.codes_row(r, k), col.valid_row(r), w, fit, domain) {
                        Some(c) => cells[i - range.start] = Truth::Point(Value::Cat(c)),
                        None => fit_entry(prepared, weights, i, &mut cells[i - range.start]),
                    }
                }
            }
            _ => {
                for &ri in &rows[lo..hi] {
                    let i = ri as usize;
                    fit_entry(prepared, weights, i, &mut cells[i - range.start]);
                }
            }
        }
    }
}

/// Fit-only pass (Eq 3): entry-sharded truth update into the reusable
/// `truths` buffer. `fit` holds one scratch per chunk, grown if short.
pub(crate) fn fit_kernel(
    prepared: &PreparedProblem<'_>,
    weights: &KernelWeights<'_>,
    pool: &Pool,
    truths: &mut TruthTable,
    fit: &mut Vec<FitScratch>,
) {
    let table = prepared.table;
    let n = table.num_entries();
    let k = table.num_sources();
    truths.resize_for_fit(n);

    let ranges = Pool::chunk_ranges(n);
    if fit.len() < ranges.len() {
        fit.resize(ranges.len(), FitScratch::default());
    }
    let mut jobs: Vec<(std::ops::Range<usize>, &mut [Truth], &mut FitScratch)> =
        Vec::with_capacity(ranges.len());
    let mut rest = truths.as_mut_slice();
    for (range, fit) in ranges.into_iter().zip(fit.iter_mut()) {
        let (cells, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
        rest = tail;
        jobs.push((range, cells, fit));
    }

    pool.run_jobs(&mut jobs, |(range, cells, fit)| {
        fit_chunk(prepared, weights, k, range, cells, fit);
    });
}

/// Per-source, per-property deviation matrix `D[m][k] = Σ_i d_m(v*_im, v_im^(k))`
/// in the nested compatibility layout. Allocating wrapper around
/// [`deviation_matrix_into`]; hot paths should hold a [`SolverScratch`]
/// and call the `_into` form instead.
pub fn deviation_matrix(prepared: &PreparedProblem<'_>, truths: &TruthTable) -> Vec<Vec<f64>> {
    let mut scratch = SolverScratch::for_table(prepared.table);
    deviation_matrix_into(prepared, truths, &Pool::sequential(), &mut scratch);
    scratch.dev().to_nested()
}

/// Entry-sharded deviation pass into a reusable scratch; the result is in
/// `scratch.dev()`. Bit-identical for every `pool` thread count.
pub fn deviation_matrix_into(
    prepared: &PreparedProblem<'_>,
    truths: &TruthTable,
    pool: &Pool,
    scratch: &mut SolverScratch,
) {
    dev_kernel(prepared, truths, None, pool, scratch);
}

/// The fused Step II + deviation pass with one shared weight vector: fits
/// every entry's truth under `weights` into `truths` and leaves the new
/// truths' deviation matrix in `scratch.dev()` — one sweep instead of a
/// fit pass plus a deviation pass.
pub fn fit_and_deviations_into(
    prepared: &PreparedProblem<'_>,
    weights: &[f64],
    pool: &Pool,
    truths: &mut TruthTable,
    scratch: &mut SolverScratch,
) {
    let spec = KernelSpec {
        weights: KernelWeights::Shared(weights),
        anchors: None,
    };
    fused_fit_dev(prepared, &spec, pool, truths, scratch);
}

/// Collapse deviation rows to per-source losses `L_k`, applying the
/// configured property normalization and count normalization (§2.5).
/// Generic over any row iterator so flat, nested and row-selected layouts
/// share one implementation. The normalization `match` is hoisted out of
/// the row loop; `PropertyNorm::None` skips factor computation entirely.
pub fn source_losses_rows<'a, I>(
    rows: I,
    source_counts: &[usize],
    norm: PropertyNorm,
    count_normalize: bool,
) -> Vec<f64>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let k = source_counts.len();
    let mut total = vec![0.0f64; k];
    match norm {
        PropertyNorm::None => {
            for row in rows {
                for (t, &d) in total.iter_mut().zip(row.iter()) {
                    *t += d;
                }
            }
        }
        PropertyNorm::SumToOne => {
            for row in rows {
                let factor = row.iter().sum::<f64>();
                let factor = if factor > 0.0 { factor } else { 1.0 };
                for (t, &d) in total.iter_mut().zip(row.iter()) {
                    *t += d / factor;
                }
            }
        }
        PropertyNorm::MaxToOne => {
            for row in rows {
                let factor = row.iter().cloned().fold(0.0f64, f64::max);
                let factor = if factor > 0.0 { factor } else { 1.0 };
                for (t, &d) in total.iter_mut().zip(row.iter()) {
                    *t += d / factor;
                }
            }
        }
    }
    if count_normalize {
        for (t, &c) in total.iter_mut().zip(source_counts.iter()) {
            if c > 0 {
                *t /= c as f64;
            }
        }
    }
    total
}

/// [`source_losses_rows`] over the nested deviation layout.
pub fn source_losses(
    dev: &[Vec<f64>],
    source_counts: &[usize],
    norm: PropertyNorm,
    count_normalize: bool,
) -> Vec<f64> {
    source_losses_rows(
        dev.iter().map(Vec::as_slice),
        source_counts,
        norm,
        count_normalize,
    )
}

/// [`source_losses_rows`] over a flat [`DevMatrix`].
pub fn source_losses_mat(
    dev: &DevMatrix,
    source_counts: &[usize],
    norm: PropertyNorm,
    count_normalize: bool,
) -> Vec<f64> {
    source_losses_rows(dev.iter_rows(), source_counts, norm, count_normalize)
}

/// The objective `f(X*, W) = Σ_k w_k L_k` over (normalized) per-source losses.
pub fn objective(weights: &[f64], per_source_loss: &[f64]) -> f64 {
    weights
        .iter()
        .zip(per_source_loss.iter())
        .map(|(w, l)| w * l)
        .sum()
}

/// The Step-I grouping of the fine-grained variant: group `g` learns
/// weight vector `g` from the deviation rows of `members[g]` and from its
/// own per-source observation counts `counts[g]`; `group_of` maps a
/// property index to its group.
pub(crate) struct PropertyGroups<'a> {
    pub(crate) members: &'a [Vec<PropertyId>],
    pub(crate) group_of: &'a [usize],
    pub(crate) counts: &'a [Vec<usize>],
}

/// The kernel parameters of one fused sweep of [`fused_solve`].
fn loop_spec<'a>(
    weights: &'a [Vec<f64>],
    groups: Option<&PropertyGroups<'a>>,
    anchors: Option<AnchorBoost<'a>>,
) -> KernelSpec<'a> {
    let weights = match groups {
        Some(g) => KernelWeights::ByProperty {
            per_group: weights,
            group_of: g.group_of,
        },
        None => KernelWeights::Shared(&weights[0]),
    };
    KernelSpec { weights, anchors }
}

/// What Algorithm 1 carries between iterations: one weight vector per
/// Step-I group, the truths, the scratch whose deviations price them, the
/// kernel pool and the iterations run so far.
pub(crate) struct LoopState {
    pub(crate) weights: Vec<Vec<f64>>,
    pub(crate) truths: TruthTable,
    pub(crate) scratch: SolverScratch,
    pub(crate) pool: Pool,
    pub(crate) iterations: usize,
}

impl LoopState {
    /// `groups` weight vectors of 1 for every source of `table`, no truths.
    pub(crate) fn uniform(table: &ObservationTable, groups: usize, pool: Pool) -> Self {
        Self {
            weights: vec![vec![1.0; table.num_sources()]; groups],
            truths: TruthTable::new(Vec::new()),
            scratch: SolverScratch::for_table(table),
            pool,
            iterations: 0,
        }
    }

    /// Algorithm 1's iteration (lines 2-9), the one loop behind
    /// [`fused_solve`] and `CrhSession::run_to_convergence_with`. Entered
    /// with `scratch.dev()` pricing `truths`, each of at most `max_iters`
    /// iterations polls `cancel`, runs Step I per group and one fused
    /// Step II and deviation sweep, and stops once the objective summed over
    /// groups is [`within_tol`] of the previous one (`prev` prices the entry
    /// state, `None` skips the first check). Returns the objective trace
    /// and whether the tolerance was met.
    pub(crate) fn descend(
        &mut self,
        prepared: &PreparedProblem<'_>,
        settings: &LoopSettings,
        groups: Option<&PropertyGroups<'_>>,
        anchors: Option<AnchorBoost<'_>>,
        mut prev: Option<f64>,
        cancel: &CancelToken,
    ) -> Result<(Vec<f64>, bool)> {
        let losses = |dev: &DevMatrix, g: usize| match groups {
            Some(gr) => settings.losses(
                gr.members[g].iter().map(|p| dev.row(p.index())),
                &gr.counts[g],
            ),
            None => settings.losses(dev.iter_rows(), prepared.table.source_counts()),
        };
        let mut trace: Vec<f64> = Vec::new();
        for _ in 0..settings.max_iters {
            if cancel.is_cancelled() {
                return Err(CrhError::Cancelled);
            }
            // Step I (line 3, Eq 2) per group from the carried deviations.
            for (g, w) in self.weights.iter_mut().enumerate() {
                *w = settings.assigner.assign(&losses(self.scratch.dev(), g));
            }
            // Step II (lines 4-8, Eq 3) fused with the deviation pass.
            self.sweep(prepared, groups, anchors);
            self.iterations += 1;
            // Convergence check (line 9) on the objective summed over groups.
            let f = (self.weights.iter().enumerate()).fold(0.0, |f, (g, w)| {
                f + objective(w, &losses(self.scratch.dev(), g))
            });
            trace.push(f);
            if prev.is_some_and(|p| within_tol(p, f, settings.tol)) {
                return Ok((trace, true));
            }
            prev = Some(f);
        }
        Ok((trace, false))
    }

    /// One fused fit + deviation sweep under the current weights.
    fn sweep(
        &mut self,
        prepared: &PreparedProblem<'_>,
        groups: Option<&PropertyGroups<'_>>,
        anchors: Option<AnchorBoost<'_>>,
    ) {
        let spec = loop_spec(&self.weights, groups, anchors);
        fused_fit_dev(
            prepared,
            &spec,
            &self.pool,
            &mut self.truths,
            &mut self.scratch,
        );
    }
}

/// Algorithm 1 as one fused loop, shared by [`Crh::run`], the fine-grained
/// and the semi-supervised variant. Line 1's uniform-weight fit (voting /
/// averaging / median, §2.5 "Initialization") also prices the truths for
/// the first Step I, whose objective is compared with nothing. `groups =
/// None` learns one weight vector from every property; `anchors` pins
/// known truths and boosts their loss terms.
pub(crate) fn fused_solve(
    prepared: &PreparedProblem<'_>,
    settings: &LoopSettings,
    groups: Option<&PropertyGroups<'_>>,
    anchors: Option<AnchorBoost<'_>>,
) -> Result<FineGrainedResult> {
    let table = prepared.table;
    if table.num_sources() == 0 {
        return Err(CrhError::EmptyTable);
    }
    let num_groups = groups.map_or(1, |g| g.members.len());
    let mut state = LoopState::uniform(table, num_groups, Pool::new(settings.threads));
    state.sweep(prepared, groups, anchors);
    let never = CancelToken::new();
    let (objective_trace, converged) =
        state.descend(prepared, settings, groups, anchors, None, &never)?;
    Ok(FineGrainedResult {
        truths: state.truths,
        weights: state.weights,
        objective_trace,
        iterations: state.iterations,
        converged,
    })
}

impl CrhResult {
    /// The result of an ungrouped [`fused_solve`]: its one weight vector.
    pub(crate) fn from_single(res: FineGrainedResult) -> Self {
        Self {
            truths: res.truths,
            weights: res.weights.into_iter().next().unwrap_or_default(),
            objective_trace: res.objective_trace,
            iterations: res.iterations,
            converged: res.converged,
        }
    }
}

impl Crh {
    /// Run Algorithm 1 on `table`: one fused fit + deviation sweep per
    /// iteration, the losses that price the convergence check carried
    /// forward as the next iteration's Step-I input.
    pub fn run(&self, table: &ObservationTable) -> Result<CrhResult> {
        let prepared = PreparedProblem::new(table, &self.cfg.loss_overrides)?;
        fused_solve(&prepared, &self.cfg.settings, None, None).map(CrhResult::from_single)
    }
}

/// Eq (3) over every entry: fit each entry's truth under `weights`.
/// Allocating wrapper around [`fit_all_into`].
pub fn fit_all(prepared: &PreparedProblem<'_>, weights: &[f64]) -> TruthTable {
    let mut truths = TruthTable::new(Vec::new());
    fit_all_into(prepared, weights, &Pool::sequential(), &mut truths);
    truths
}

/// Eq (3) over every entry into a reusable buffer, entry-sharded on `pool`.
pub fn fit_all_into(
    prepared: &PreparedProblem<'_>,
    weights: &[f64],
    pool: &Pool,
    truths: &mut TruthTable,
) {
    fit_kernel(
        prepared,
        &KernelWeights::Shared(weights),
        pool,
        truths,
        &mut Vec::new(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, PropertyId, SourceId};
    use crate::loss::{ProbVectorLoss, SquaredLoss};
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::weights::{LogSum, TopJ};

    /// Three sources; source 2 lies on everything. 4 objects, 2 properties
    /// (1 continuous + 1 categorical). Sources 0 and 1 agree on the truth.
    fn lying_source_table() -> ObservationTable {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("temp");
        let cond = schema.add_categorical("cond");
        let mut b = TableBuilder::new(schema);
        for i in 0..4u32 {
            let truth_t = 70.0 + i as f64;
            b.add(ObjectId(i), temp, SourceId(0), Value::Num(truth_t))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(1), Value::Num(truth_t + 0.5))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(2), Value::Num(truth_t + 30.0))
                .unwrap();
            b.add_label(ObjectId(i), cond, SourceId(0), "sunny")
                .unwrap();
            b.add_label(ObjectId(i), cond, SourceId(1), "sunny")
                .unwrap();
            b.add_label(ObjectId(i), cond, SourceId(2), "rain").unwrap();
        }
        b.build().unwrap()
    }

    /// A larger randomized mixed table (spans several kernel chunks).
    fn random_table(seed: u64, objects: u32) -> ObservationTable {
        use crate::rng::{Pcg64, Rng};
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut schema = Schema::new();
        let temp = schema.add_continuous("t");
        let cond = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        let labels = ["a", "b", "c"];
        for i in 0..objects {
            let truth_t = (i % 50) as f64;
            for s in 0..6u32 {
                let noise = (rng.next_u64() % 1000) as f64 / 100.0;
                if rng.next_u64() % 10 < 8 {
                    b.add(ObjectId(i), temp, SourceId(s), Value::Num(truth_t + noise))
                        .unwrap();
                }
                if rng.next_u64() % 10 < 8 {
                    let l = labels[(rng.next_u64() % 3) as usize];
                    b.add_label(ObjectId(i), cond, SourceId(s), l).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn plan_stats_equal_compute_entry_stats_bitwise() {
        use crate::rng::{Pcg64, Rng};
        use crate::stats::compute_entry_stats;
        use crate::table::Claim;
        let mut rng = Pcg64::seed_from_u64(0x57A75);
        for case in 0..24u32 {
            let mut schema = Schema::new();
            let temp = schema.add_continuous("t");
            let cond = schema.add_categorical("c");
            let gate = schema.add_text("g");
            let mixed = schema.add_continuous("m");
            for l in ["a", "b", "c"] {
                schema.intern(cond, l).unwrap();
            }
            let k = 1 + rng.next_u64() % 9;
            let pick =
                |rng: &mut Pcg64, xs: &[f64]| xs[(rng.next_u64() % xs.len() as u64) as usize];
            let nums = [-0.0, 0.0, 1.5, -2.25, 1e-310, 3.0, 1e12, 0.1];
            let mut claims = Vec::new();
            for o in 0..1 + (rng.next_u64() % 40) as u32 {
                for s in 0..k as u32 {
                    let mut push = |property, value| {
                        claims.push(Claim {
                            object: ObjectId(o),
                            property,
                            source: SourceId(s),
                            value,
                        })
                    };
                    // object 0: every temp claim is -0.0; object 1: one claim
                    let temp_value = match o {
                        0 => Some(-0.0),
                        1 => (s == 0).then(|| pick(&mut rng, &nums)),
                        _ => (!rng.next_u64().is_multiple_of(4)).then(|| pick(&mut rng, &nums)),
                    };
                    if let Some(x) = temp_value {
                        push(temp, Value::Num(x));
                    }
                    if !rng.next_u64().is_multiple_of(3) {
                        push(cond, Value::Cat((rng.next_u64() % 3) as u32));
                    }
                    if rng.next_u64().is_multiple_of(3) {
                        push(
                            gate,
                            Value::Text(["x", "", "yz"][(rng.next_u64() % 3) as usize].into()),
                        );
                    }
                    if (o, s) == (0, 0) || rng.next_u64().is_multiple_of(2) {
                        // type confusion only `from_claims` lets through
                        let v = if (o, s) == (0, 0) || rng.next_u64().is_multiple_of(3) {
                            Value::Cat(1)
                        } else {
                            Value::Num(pick(&mut rng, &nums))
                        };
                        push(mixed, v);
                    }
                }
            }
            let table = ObservationTable::from_claims(schema, claims).unwrap();
            let prepared = PreparedProblem::new(&table, &HashMap::new()).unwrap();
            assert!(matches!(
                prepared.plan.table.column(mixed.index()),
                PropertyColumn::Mixed { .. }
            ));
            let want = compute_entry_stats(&table);
            assert_eq!(prepared.stats.len(), want.len());
            for (i, (got, want)) in prepared.stats.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.mean.to_bits(),
                    want.mean.to_bits(),
                    "case {case} entry {i} mean"
                );
                assert_eq!(
                    got.std.to_bits(),
                    want.std.to_bits(),
                    "case {case} entry {i} std"
                );
                assert_eq!(got.count, want.count, "case {case} entry {i} count");
                assert_eq!(
                    got.domain_size, want.domain_size,
                    "case {case} entry {i} domain"
                );
            }
            let all_neg_zero = table.entry_id(ObjectId(0), temp).unwrap();
            assert_eq!(
                want[all_neg_zero.index()].mean.to_bits(),
                (-0.0f64).to_bits()
            );
        }
    }

    #[test]
    fn crh_downweights_the_liar() {
        let table = lying_source_table();
        let res = CrhBuilder::new().build().unwrap().run(&table).unwrap();
        assert!(res.weights[0] > res.weights[2]);
        assert!(res.weights[1] > res.weights[2]);
        // truths follow the two reliable sources
        let cond = table.schema().property_by_name("cond").unwrap();
        let e = table.entry_id(ObjectId(0), cond).unwrap();
        let sunny = table.schema().lookup(cond, "sunny").unwrap();
        assert_eq!(res.truths.get(e).point(), sunny);
        let temp = table.schema().property_by_name("temp").unwrap();
        let e = table.entry_id(ObjectId(0), temp).unwrap();
        let t = res.truths.get(e).as_num().unwrap();
        assert!(
            (t - 70.0).abs() <= 0.5,
            "truth {t} should track reliable sources"
        );
    }

    #[test]
    fn converges_and_traces_objective() {
        let table = lying_source_table();
        let res = CrhBuilder::new()
            .max_iters(50)
            .build()
            .unwrap()
            .run(&table)
            .unwrap();
        assert!(res.converged, "should converge within 50 iterations");
        assert_eq!(res.objective_trace.len(), res.iterations);
        assert!(res.objective_trace.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn objective_nonincreasing_for_exact_convex_config() {
        // LogSum (exact Eq 5) + squared/prob-vector losses (convex) +
        // no property/count normalization = true block coordinate descent,
        // so the objective trace must be non-increasing (§2.5 convergence):
        // within an absolute 1e-9 on the hand-built table, and within
        // 1e-9 relative to the objective on 100 random ones from 1 to ~700
        // entries, whose objectives reach the hundreds.
        let tables = std::iter::once(lying_source_table())
            .chain((0..100u64).map(|seed| random_table(seed, 1 + (seed as u32 * 37) % 350)));
        for (n, table) in tables.enumerate() {
            let res = CrhBuilder::new()
                .weight_assigner(LogSum)
                .property_norm(PropertyNorm::None)
                .count_normalize(false)
                .loss_for(PropertyId(0), SquaredLoss)
                .loss_for(PropertyId(1), ProbVectorLoss)
                .max_iters(30)
                .tolerance(0.0)
                .build()
                .unwrap()
                .run(&table)
                .unwrap();
            for w in res.objective_trace.windows(2) {
                let slack = if n == 0 {
                    1e-9
                } else {
                    1e-9 * w[0].abs().max(1.0)
                };
                assert!(
                    w[1] <= w[0] + slack,
                    "table {n}: objective increased: {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// The fused loop must reproduce, to the bit, the two-pass program of
    /// driving [`CrhSession::step`](crate::session::CrhSession::step) by
    /// hand (a deviation pass for Step I, a fit, a second deviation pass
    /// for the objective) under the same stopping rule: trace, weights,
    /// truths and convergence flag, at several thread counts.
    #[test]
    fn fused_loop_matches_unfused_reference_exactly() {
        let tables = [lying_source_table(), random_table(7, 300)];
        for table in &tables {
            for threads in [1usize, 3] {
                let fused = CrhBuilder::new()
                    .max_iters(40)
                    .tolerance(1e-8)
                    .threads(threads)
                    .build()
                    .unwrap()
                    .run(table)
                    .unwrap();
                let mut session = crate::session::CrhSession::new(table).unwrap();
                session.set_threads(threads);
                let mut trace: Vec<f64> = Vec::new();
                let mut converged = false;
                for _ in 0..40 {
                    let f = session.step();
                    let prev = trace.last().copied();
                    trace.push(f);
                    if prev.is_some_and(|prev| within_tol(prev, f, 1e-8)) {
                        converged = true;
                        break;
                    }
                }
                assert_eq!(fused.iterations, session.iterations());
                assert_eq!(fused.converged, converged);
                let fb: Vec<u64> = fused.objective_trace.iter().map(|f| f.to_bits()).collect();
                let ub: Vec<u64> = trace.iter().map(|f| f.to_bits()).collect();
                assert_eq!(fb, ub, "trace diverged (threads={threads})");
                let fw: Vec<u64> = fused.weights.iter().map(|f| f.to_bits()).collect();
                let uw: Vec<u64> = session.weights().iter().map(|f| f.to_bits()).collect();
                assert_eq!(fw, uw, "weights diverged (threads={threads})");
                for (e, t) in fused.truths.iter() {
                    assert_eq!(t, session.truths().get(e), "truth diverged at {e:?}");
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let table = random_table(11, 400);
        let run = |threads: usize| {
            CrhBuilder::new()
                .threads(threads)
                .max_iters(25)
                .build()
                .unwrap()
                .run(&table)
                .unwrap()
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            let got = run(threads);
            let rb: Vec<u64> = reference.weights.iter().map(|f| f.to_bits()).collect();
            let gb: Vec<u64> = got.weights.iter().map(|f| f.to_bits()).collect();
            assert_eq!(rb, gb, "weights diverged at threads={threads}");
            let rt: Vec<u64> = reference
                .objective_trace
                .iter()
                .map(|f| f.to_bits())
                .collect();
            let gt: Vec<u64> = got.objective_trace.iter().map(|f| f.to_bits()).collect();
            assert_eq!(rt, gt, "trace diverged at threads={threads}");
        }
    }

    #[test]
    fn top_j_selection_zeroes_unselected() {
        let table = lying_source_table();
        let res = CrhBuilder::new()
            .weight_assigner(TopJ::new(2).unwrap())
            .build()
            .unwrap()
            .run(&table)
            .unwrap();
        let selected: Vec<usize> = res
            .weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(selected, vec![0, 1], "the liar must not be selected");
    }

    #[test]
    fn builder_validation() {
        assert!(CrhBuilder::new().max_iters(0).build().is_err());
        assert!(CrhBuilder::new().tolerance(f64::NAN).build().is_err());
        assert!(CrhBuilder::new().tolerance(-1.0).build().is_err());
    }

    #[test]
    fn single_source_degenerate_case() {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("t");
        let mut b = TableBuilder::new(schema);
        b.add(ObjectId(0), temp, SourceId(0), Value::Num(42.0))
            .unwrap();
        let t = b.build().unwrap();
        let res = CrhBuilder::new().build().unwrap().run(&t).unwrap();
        assert_eq!(res.truths.get(crate::ids::EntryId(0)).as_num(), Some(42.0));
        assert!(res.weights[0].is_finite());
    }

    #[test]
    fn missing_values_handled() {
        // source 1 observes only half the entries; count normalization keeps
        // its weight comparable
        let mut schema = Schema::new();
        let temp = schema.add_continuous("t");
        let mut b = TableBuilder::new(schema);
        for i in 0..10u32 {
            b.add(ObjectId(i), temp, SourceId(0), Value::Num(i as f64))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(2), Value::Num(i as f64 + 0.1))
                .unwrap();
            if i < 5 {
                b.add(ObjectId(i), temp, SourceId(1), Value::Num(i as f64))
                    .unwrap();
            }
        }
        let t = b.build().unwrap();
        let res = CrhBuilder::new().build().unwrap().run(&t).unwrap();
        // source 1 is as accurate as source 0 on the entries it covers
        assert!(res.weights[1] > 0.5 * res.weights[0]);
    }

    #[test]
    fn deviation_matrix_shape_and_content() {
        let table = lying_source_table();
        let prepared = PreparedProblem::new(&table, &HashMap::new()).unwrap();
        let truths = fit_all(&prepared, &[1.0; 3]);
        let dev = deviation_matrix(&prepared, &truths);
        assert_eq!(dev.len(), 2); // properties
        assert_eq!(dev[0].len(), 3); // sources
                                     // the liar has the largest categorical deviation
        let cond_row = &dev[1];
        assert!(cond_row[2] > cond_row[0]);
    }

    #[test]
    fn flat_dev_matrix_matches_nested_wrapper() {
        let table = random_table(3, 300);
        let prepared = PreparedProblem::new(&table, &HashMap::new()).unwrap();
        let truths = fit_all(&prepared, &[1.0; 6]);
        let nested = deviation_matrix(&prepared, &truths);
        let mut scratch = SolverScratch::for_table(&table);
        for threads in [1usize, 4] {
            deviation_matrix_into(&prepared, &truths, &Pool::new(threads), &mut scratch);
            let flat = scratch.dev();
            assert_eq!(flat.num_rows(), nested.len());
            for (r, row) in nested.iter().enumerate() {
                let fr: Vec<u64> = flat.row(r).iter().map(|f| f.to_bits()).collect();
                let nr: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
                assert_eq!(fr, nr, "row {r} diverged (threads={threads})");
            }
        }
    }

    #[test]
    fn source_losses_normalizations() {
        let dev = vec![vec![1.0, 3.0], vec![10.0, 30.0]];
        let counts = vec![2usize, 2usize];
        let none = source_losses(&dev, &counts, PropertyNorm::None, false);
        assert_eq!(none, vec![11.0, 33.0]);
        let sum = source_losses(&dev, &counts, PropertyNorm::SumToOne, false);
        assert!((sum[0] - 0.5).abs() < 1e-12); // 1/4 + 10/40
        assert!((sum[1] - 1.5).abs() < 1e-12);
        let max = source_losses(&dev, &counts, PropertyNorm::MaxToOne, false);
        assert!((max[0] - (1.0 / 3.0 + 10.0 / 30.0)).abs() < 1e-12);
        let counted = source_losses(&dev, &counts, PropertyNorm::None, true);
        assert_eq!(counted, vec![5.5, 16.5]);
    }

    #[test]
    fn source_losses_rows_and_mat_agree_with_nested() {
        let nested = vec![vec![1.0, 3.0, 0.5], vec![10.0, 30.0, 2.0]];
        let mut flat = DevMatrix::zeros(2, 3);
        for (r, row) in nested.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                flat.data[r * 3 + c] = v;
            }
        }
        let counts = vec![2usize, 2, 2];
        for norm in [
            PropertyNorm::None,
            PropertyNorm::SumToOne,
            PropertyNorm::MaxToOne,
        ] {
            for cn in [false, true] {
                let a = source_losses(&nested, &counts, norm, cn);
                let b = source_losses_mat(&flat, &counts, norm, cn);
                let c = source_losses_rows(nested.iter().map(Vec::as_slice), &counts, norm, cn);
                assert_eq!(a, b, "{norm:?} cn={cn}");
                assert_eq!(a, c, "{norm:?} cn={cn}");
            }
        }
    }

    #[test]
    fn objective_helper() {
        assert_eq!(objective(&[2.0, 3.0], &[1.0, 1.0]), 5.0);
    }

    #[test]
    fn prob_vector_loss_produces_soft_truths() {
        let table = lying_source_table();
        let cond = table.schema().property_by_name("cond").unwrap();
        let res = CrhBuilder::new()
            .loss_for(cond, ProbVectorLoss)
            .build()
            .unwrap()
            .run(&table)
            .unwrap();
        let e = table.entry_id(ObjectId(0), cond).unwrap();
        let probs = res.truths.get(e).distribution().expect("soft truth");
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
