//! Fine-grained source weights (§2.5 "Source weight consistency").
//!
//! CRH assumes one reliability degree per source across all properties. When
//! that assumption fails (e.g. a weather site with excellent temperature
//! forecasts but poor condition labels), the paper suggests "dividing `w_k`
//! into fine-grained weights, each of which corresponds to a local
//! reliability degree of the source on a subset of properties or objects".
//!
//! [`FineGrainedCrh`] implements the property-subset variant: properties are
//! partitioned into groups, each group carries its own weight vector, and
//! the truth update for an entry uses its property's group weights.
//! [`ObjectGroupedCrh`] implements the object-subset variant analogously
//! (e.g. a stock source reliable for NASDAQ symbols but stale for others).

use std::collections::HashMap;

use crate::error::{CrhError, Result};
use crate::ids::{ObjectId, PropertyId};
use crate::par::Pool;
pub use crate::solver::FineGrainedResult;
use crate::solver::{
    dev_kernel, fit_kernel, fused_solve, objective, within_tol, KernelWeights, LoopSettings,
    PreparedProblem, PropertyGroups, SolverScratch,
};
use crate::table::{ObservationTable, TruthTable};
use crate::weights::WeightAssigner;

/// CRH with per-property-group source weights.
pub struct FineGrainedCrh {
    groups: Vec<Vec<PropertyId>>,
    settings: LoopSettings,
}

impl FineGrainedCrh {
    /// Build with an explicit property partition. Every property of the
    /// schema must appear in exactly one group.
    pub fn new(groups: Vec<Vec<PropertyId>>) -> Result<Self> {
        if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
            return Err(CrhError::InvalidParameter(
                "property groups must be non-empty".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for &p in g {
                if !seen.insert(p) {
                    return Err(CrhError::InvalidParameter(format!(
                        "property {p} appears in more than one group"
                    )));
                }
            }
        }
        Ok(Self {
            groups,
            settings: LoopSettings::default(),
        })
    }

    /// Convenience: one group per property (fully local weights).
    pub fn per_property(num_properties: usize) -> Result<Self> {
        Self::new(
            (0..num_properties)
                .map(|m| vec![PropertyId::from_index(m)])
                .collect(),
        )
    }

    /// Replace the weight assigner.
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.settings.assigner = Box::new(a);
        self
    }

    /// Cap the number of iterations.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.settings.max_iters = n;
        self
    }

    /// Kernel thread count: `0` (default) = available parallelism, `1` =
    /// the exact sequential path; results are bit-identical for every
    /// value.
    pub fn threads(mut self, n: usize) -> Self {
        self.settings.threads = n;
        self
    }

    /// Run the grouped block coordinate descent: the fused loop of
    /// [`Crh::run`](crate::solver::Crh::run), with each entry fit under its
    /// property's group weights and Step I run per group.
    pub fn run(&self, table: &ObservationTable) -> Result<FineGrainedResult> {
        for g in &self.groups {
            for &p in g {
                if p.index() >= table.num_properties() {
                    return Err(CrhError::UnknownProperty(p));
                }
            }
        }
        let prepared = PreparedProblem::new(table, &HashMap::new())?;
        let group_of = self.group_of_property(table.num_properties())?;

        // Per-group observation counts for count normalization.
        let mut counts = vec![vec![0usize; table.num_sources()]; self.groups.len()];
        for (_, entry, obs) in table.iter_entries() {
            let g = group_of[entry.property.index()];
            for (s, _) in obs {
                counts[g][s.index()] += 1;
            }
        }
        let groups = PropertyGroups {
            members: &self.groups,
            group_of: &group_of,
            counts: &counts,
        };
        fused_solve(&prepared, &self.settings, Some(&groups), None)
    }

    /// property index -> group index, validating full coverage.
    fn group_of_property(&self, num_properties: usize) -> Result<Vec<usize>> {
        let mut map = vec![usize::MAX; num_properties];
        for (g, group) in self.groups.iter().enumerate() {
            for &p in group {
                map[p.index()] = g;
            }
        }
        if let Some(m) = map.iter().position(|&g| g == usize::MAX) {
            return Err(CrhError::InvalidParameter(format!(
                "property p{m} is not covered by any group"
            )));
        }
        Ok(map)
    }
}

impl std::fmt::Debug for FineGrainedCrh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FineGrainedCrh")
            .field("groups", &self.groups)
            .field("assigner", &self.settings.assigner.name())
            .finish()
    }
}

/// CRH with per-object-group source weights (§2.5's other fine-grained
/// axis: "a local reliability degree of the source on a subset of … objects").
///
/// Objects are assigned to groups by a caller-provided function (domain
/// knowledge: exchange, region, hospital, …); each group carries its own
/// weight vector learned only from its objects' entries.
pub struct ObjectGroupedCrh {
    group_of: Box<dyn Fn(ObjectId) -> usize + Send + Sync>,
    num_groups: usize,
    settings: LoopSettings,
}

impl std::fmt::Debug for ObjectGroupedCrh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectGroupedCrh")
            .field("num_groups", &self.num_groups)
            .field("assigner", &self.settings.assigner.name())
            .finish()
    }
}

impl ObjectGroupedCrh {
    /// Build with `num_groups` object groups and a classifier mapping each
    /// object to its group (must return values `< num_groups`).
    pub fn new(
        num_groups: usize,
        group_of: impl Fn(ObjectId) -> usize + Send + Sync + 'static,
    ) -> Result<Self> {
        if num_groups == 0 {
            return Err(CrhError::InvalidParameter(
                "ObjectGroupedCrh needs at least one group".into(),
            ));
        }
        Ok(Self {
            group_of: Box::new(group_of),
            num_groups,
            settings: LoopSettings::default(),
        })
    }

    /// Replace the weight assigner.
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.settings.assigner = Box::new(a);
        self
    }

    /// Cap the number of iterations.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.settings.max_iters = n;
        self
    }

    /// Kernel thread count: `0` (default) = available parallelism, `1` =
    /// the exact sequential path; results are bit-identical for every
    /// value.
    pub fn threads(mut self, n: usize) -> Self {
        self.settings.threads = n;
        self
    }

    /// Run the object-grouped block coordinate descent. Unlike the fused
    /// loop of [`FineGrainedCrh::run`], each iteration prices the current
    /// truths per object group before it fits new ones.
    pub fn run(&self, table: &ObservationTable) -> Result<FineGrainedResult> {
        let prepared = PreparedProblem::new(table, &HashMap::new())?;
        let k = table.num_sources();
        let g_count = self.num_groups;

        // classify entries once; validate the classifier's range
        let mut entry_group = Vec::with_capacity(table.num_entries());
        for (_, entry, _) in table.iter_entries() {
            let g = (self.group_of)(entry.object);
            if g >= g_count {
                return Err(CrhError::InvalidParameter(format!(
                    "object {} classified into group {g}, but only {g_count} groups exist",
                    entry.object
                )));
            }
            entry_group.push(g);
        }

        // per-group per-source observation counts
        let mut counts = vec![vec![0usize; k]; g_count];
        for (e, _, obs) in table.iter_entries() {
            let g = entry_group[e.index()];
            for (s, _) in obs {
                counts[g][s.index()] += 1;
            }
        }

        let m = table.num_properties();
        let settings = &self.settings;
        let pool = Pool::new(settings.threads);
        let mut scratch = SolverScratch::new(table.num_entries(), g_count * m, k);
        let mut truths = TruthTable::new(Vec::new());
        let mut weights = vec![vec![1.0f64; k]; g_count];
        fit_kernel(
            &prepared,
            &KernelWeights::ByEntry {
                per_group: &weights,
                entry_group: &entry_group,
            },
            &pool,
            &mut truths,
        );

        let mut trace: Vec<f64> = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        for it in 0..settings.max_iters {
            iterations = it + 1;
            // Per-group deviation blocks in one entry-sharded pass: group
            // `g` owns rows `g*m .. (g+1)*m` of the scratch matrix.
            dev_kernel(
                &prepared,
                &truths,
                Some((&entry_group, g_count)),
                &pool,
                &mut scratch,
            );
            let mut f = 0.0;
            for g in 0..g_count {
                let rows = (g * m..(g + 1) * m).map(|r| scratch.dev().row(r));
                let losses = settings.losses(rows, &counts[g]);
                weights[g] = settings.assigner.assign(&losses);
                f += objective(&weights[g], &losses);
            }
            fit_kernel(
                &prepared,
                &KernelWeights::ByEntry {
                    per_group: &weights,
                    entry_group: &entry_group,
                },
                &pool,
                &mut truths,
            );

            let prev = trace.last().copied();
            trace.push(f);
            if prev.is_some_and(|prev| within_tol(prev, f, settings.tol)) {
                converged = true;
                break;
            }
        }

        Ok(FineGrainedResult {
            truths,
            weights,
            objective_trace: trace,
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, SourceId};
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::Value;

    /// Source 0 is perfect on temperature but lies about condition;
    /// sources 1 and 3 are the reverse; source 2 is mediocre on both.
    /// (Four sources so no single source is always the pivotal voter.)
    fn split_personality_table() -> ObservationTable {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("temp");
        let cond = schema.add_categorical("cond");
        let mut b = TableBuilder::new(schema);
        for i in 0..12u32 {
            let t = 50.0 + i as f64;
            b.add(ObjectId(i), temp, SourceId(0), Value::Num(t))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(1), Value::Num(t + 20.0))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(2), Value::Num(t + 2.0))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(3), Value::Num(t + 10.0))
                .unwrap();
            b.add_label(ObjectId(i), cond, SourceId(1), "right")
                .unwrap();
            b.add_label(ObjectId(i), cond, SourceId(3), "right")
                .unwrap();
            b.add_label(ObjectId(i), cond, SourceId(0), "wrong")
                .unwrap();
            b.add_label(
                ObjectId(i),
                cond,
                SourceId(2),
                if i % 3 == 0 { "right" } else { "wrong" },
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn per_property_weights_capture_local_reliability() {
        let table = split_personality_table();
        let fg = FineGrainedCrh::per_property(2).unwrap();
        let res = fg.run(&table).unwrap();
        // group 0 = temp: source 0 best; group 1 = cond: source 1 best
        assert!(res.weights[0][0] > res.weights[0][1]);
        assert!(res.weights[1][1] > res.weights[1][0]);
        // truths follow the locally-reliable source
        let cond = table.schema().property_by_name("cond").unwrap();
        let right = table.schema().lookup(cond, "right").unwrap();
        let e = table.entry_id(ObjectId(1), cond).unwrap();
        assert_eq!(res.truths.get(e).point(), right);
    }

    #[test]
    fn validation_rejects_bad_partitions() {
        assert!(FineGrainedCrh::new(vec![]).is_err());
        assert!(FineGrainedCrh::new(vec![vec![]]).is_err());
        assert!(
            FineGrainedCrh::new(vec![vec![PropertyId(0)], vec![PropertyId(0)]]).is_err(),
            "duplicate property across groups"
        );
    }

    #[test]
    fn uncovered_property_is_error_at_run() {
        let table = split_personality_table();
        let fg = FineGrainedCrh::new(vec![vec![PropertyId(0)]]).unwrap();
        assert!(fg.run(&table).is_err());
    }

    #[test]
    fn unknown_property_is_error_at_run() {
        let table = split_personality_table();
        let fg =
            FineGrainedCrh::new(vec![vec![PropertyId(0), PropertyId(1), PropertyId(7)]]).unwrap();
        assert!(fg.run(&table).is_err());
    }

    #[test]
    fn single_group_matches_plain_crh_shape() {
        let table = split_personality_table();
        let fg = FineGrainedCrh::new(vec![vec![PropertyId(0), PropertyId(1)]]).unwrap();
        let res = fg.run(&table).unwrap();
        assert_eq!(res.weights.len(), 1);
        assert_eq!(res.weights[0].len(), 4);
        assert!(res.iterations >= 1);
    }

    #[test]
    fn converges() {
        let table = split_personality_table();
        let res = FineGrainedCrh::per_property(2)
            .unwrap()
            .max_iters(50)
            .run(&table)
            .unwrap();
        assert!(res.converged);
        assert!(!res.objective_trace.is_empty());
    }

    /// Source 0 accurate for even objects, wild for odd; source 1 the
    /// reverse; source 2 mediocre everywhere. Object groups = parity.
    fn regional_table() -> ObservationTable {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("temp");
        let mut b = TableBuilder::new(schema);
        for i in 0..20u32 {
            let t = 100.0 + i as f64;
            let (e0, e1) = if i % 2 == 0 { (0.0, 25.0) } else { (25.0, 0.0) };
            b.add(ObjectId(i), temp, SourceId(0), Value::Num(t + e0))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(1), Value::Num(t + e1))
                .unwrap();
            b.add(ObjectId(i), temp, SourceId(2), Value::Num(t + 5.0))
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn object_groups_capture_regional_reliability() {
        let table = regional_table();
        let res = ObjectGroupedCrh::new(2, |o| (o.0 % 2) as usize)
            .unwrap()
            .run(&table)
            .unwrap();
        // group 0 (even objects): source 0 best; group 1 (odd): source 1 best
        assert!(res.weights[0][0] > res.weights[0][1], "{:?}", res.weights);
        assert!(res.weights[1][1] > res.weights[1][0], "{:?}", res.weights);
        // truths follow the locally-reliable source
        let temp = PropertyId(0);
        let e_even = table.entry_id(ObjectId(0), temp).unwrap();
        let e_odd = table.entry_id(ObjectId(1), temp).unwrap();
        assert!((res.truths.get(e_even).as_num().unwrap() - 100.0).abs() <= 5.0);
        assert!((res.truths.get(e_odd).as_num().unwrap() - 101.0).abs() <= 5.0);
    }

    #[test]
    fn object_grouped_validation() {
        assert!(ObjectGroupedCrh::new(0, |_| 0).is_err());
        let table = regional_table();
        // classifier out of range is rejected at run time
        let bad = ObjectGroupedCrh::new(2, |_| 7).unwrap();
        assert!(bad.run(&table).is_err());
    }

    #[test]
    fn single_object_group_degenerates_to_plain_crh_weights() {
        let table = regional_table();
        let grouped = ObjectGroupedCrh::new(1, |_| 0)
            .unwrap()
            .run(&table)
            .unwrap();
        let plain = crate::solver::CrhBuilder::new()
            .build()
            .unwrap()
            .run(&table)
            .unwrap();
        for (a, b) in grouped.weights[0].iter().zip(&plain.weights) {
            assert!(
                (a - b).abs() < 1e-9,
                "{:?} vs {:?}",
                grouped.weights[0],
                plain.weights
            );
        }
    }

    #[test]
    fn object_grouped_converges() {
        let table = regional_table();
        let res = ObjectGroupedCrh::new(2, |o| (o.0 % 2) as usize)
            .unwrap()
            .max_iters(50)
            .run(&table)
            .unwrap();
        assert!(res.converged);
    }
}
