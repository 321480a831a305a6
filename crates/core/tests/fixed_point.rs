//! The fixed-point check: every truth a solver variant returns is its
//! entry's `Loss::fit` under the weights the variant returned, to the bit.
//!
//! The solver fits most entries with the columnar sweeps of
//! `crh_core::kernels`, not with the `Loss` impls. Those sweeps claim to
//! replay the `Loss` float programs exactly; the golden digests in
//! `determinism.rs` pin that claim on six fixed tables, and this suite
//! checks it on seeded random tables no digest covers — mixed property
//! types, missing claims, tied values and tied votes, some spanning
//! several 256-entry kernel chunks — for all five configurations the
//! digests pin, at 1 and 3 threads. An anchored entry must hold its anchor.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use crh_core::finegrained::{FineGrainedCrh, ObjectGroupedCrh};
use crh_core::ids::{ObjectId, PropertyId};
use crh_core::loss::{Loss, ProbVectorLoss, SquaredLoss};
use crh_core::persist::Enc;
use crh_core::semisupervised::SemiSupervisedCrh;
use crh_core::solver::{CrhBuilder, PreparedProblem};
use crh_core::table::{Entry, ObservationTable, TruthTable};
use crh_core::value::{PropertyType, Truth, Value};

const THREADS: [usize; 2] = [1, 3];
const MAX_ITERS: usize = 30;

fn bits(t: &Truth) -> Vec<u8> {
    let mut e = Enc::new();
    e.truth(t);
    e.into_bytes()
}

/// Assert that every truth in `truths` is the fit of its entry's loss under
/// `weights_of(entry)`, or its anchor if it has one.
fn assert_fixed_point<'w>(
    what: &str,
    prepared: &PreparedProblem<'_>,
    truths: &TruthTable,
    weights_of: impl Fn(Entry) -> &'w [f64],
    anchors: &HashMap<(ObjectId, PropertyId), Value>,
) {
    let table = prepared.table;
    assert_eq!(truths.len(), table.num_entries(), "{what}: truth count");
    for (e, entry, obs) in table.iter_entries() {
        let want = match anchors.get(&(entry.object, entry.property)) {
            Some(v) => Truth::Point(v.clone()),
            None => prepared.loss(entry.property).fit(
                obs,
                weights_of(entry),
                &prepared.stats[e.index()],
            ),
        };
        assert_eq!(
            bits(truths.get(e)),
            bits(&want),
            "{what}: entry {e:?} ({entry:?}) is not the fit under the returned weights"
        );
    }
}

/// Squared loss on every continuous property, the probability-vector loss
/// on every categorical one: set on `builder` and collected into the map a
/// `PreparedProblem` reads, from one mapping, so the check fits under the
/// losses the run used.
fn with_overrides(
    table: &ObservationTable,
    builder: CrhBuilder,
) -> (CrhBuilder, HashMap<PropertyId, Arc<dyn Loss>>) {
    fn add<L: Loss + Copy + 'static>(
        (b, mut over): (CrhBuilder, HashMap<PropertyId, Arc<dyn Loss>>),
        pid: PropertyId,
        loss: L,
    ) -> (CrhBuilder, HashMap<PropertyId, Arc<dyn Loss>>) {
        over.insert(pid, Arc::new(loss));
        (b.loss_for(pid, loss), over)
    }
    table
        .schema()
        .properties()
        .fold((builder, HashMap::new()), |acc, (pid, def)| {
            match def.ptype {
                PropertyType::Continuous => add(acc, pid, SquaredLoss),
                _ => add(acc, pid, ProbVectorLoss),
            }
        })
}

/// Every seventh entry, anchored to its last claim.
fn anchors(table: &ObservationTable) -> HashMap<(ObjectId, PropertyId), Value> {
    table
        .iter_entries()
        .step_by(7)
        .filter_map(|(_, entry, obs)| {
            let (_, v) = obs.last()?;
            Some(((entry.object, entry.property), v.clone()))
        })
        .collect()
}

#[test]
fn every_variant_returns_a_fixed_point_of_its_losses() {
    let mut multi_chunk = 0;
    for seed in 0..common::TABLES {
        let table = common::random_table(seed);
        if table.num_entries() > 256 {
            multi_chunk += 1;
        }
        let none = HashMap::new();
        let plain = PreparedProblem::new(&table, &HashMap::new()).unwrap();
        let pinned = anchors(&table);
        let m = table.num_properties();
        for threads in THREADS {
            let tag = |variant: &str| format!("{variant} seed {seed} threads {threads}");

            let res = CrhBuilder::new()
                .threads(threads)
                .max_iters(MAX_ITERS)
                .build()
                .unwrap()
                .run(&table)
                .unwrap();
            assert_fixed_point(&tag("plain"), &plain, &res.truths, |_| &res.weights, &none);

            let (builder, over) = with_overrides(
                &table,
                CrhBuilder::new().threads(threads).max_iters(MAX_ITERS),
            );
            let overridden = PreparedProblem::new(&table, &over).unwrap();
            let res = builder.build().unwrap().run(&table).unwrap();
            assert_fixed_point(
                &tag("loss overrides"),
                &overridden,
                &res.truths,
                |_| &res.weights,
                &none,
            );

            let res = FineGrainedCrh::per_property(m)
                .unwrap()
                .threads(threads)
                .max_iters(MAX_ITERS)
                .run(&table)
                .unwrap();
            assert_fixed_point(
                &tag("fine-grained"),
                &plain,
                &res.truths,
                |e| &res.weights[e.property.index()],
                &none,
            );

            let res = ObjectGroupedCrh::new(3, |o: ObjectId| (o.0 % 3) as usize)
                .unwrap()
                .threads(threads)
                .max_iters(MAX_ITERS)
                .run(&table)
                .unwrap();
            assert_fixed_point(
                &tag("object-grouped"),
                &plain,
                &res.truths,
                |e| &res.weights[(e.object.0 % 3) as usize],
                &none,
            );

            let res = SemiSupervisedCrh::new(pinned.clone())
                .unwrap()
                .threads(threads)
                .max_iters(MAX_ITERS)
                .run(&table)
                .unwrap();
            assert_fixed_point(
                &tag("semi-supervised"),
                &plain,
                &res.truths,
                |_| &res.weights,
                &pinned,
            );
        }
    }
    assert!(
        multi_chunk >= 4,
        "only {multi_chunk} tables span more than one kernel chunk"
    );
}
