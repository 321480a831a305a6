//! Seeded random tables shared by the reference checks (`fixed_point.rs`,
//! `oracle.rs`).

use crh_core::ids::{ObjectId, SourceId};
use crh_core::rng::{Pcg64, Rng};
use crh_core::schema::Schema;
use crh_core::table::{ObservationTable, TableBuilder};
use crh_core::value::{PropertyType, Value};

/// Number of random tables each reference check runs.
pub const TABLES: u64 = 24;

/// A small heterogeneous table: 2–4 properties in random order (at least
/// one continuous and one categorical), 3–9 sources with distinct biases
/// and error rates, ~25% of claims missing. Continuous claims are rounded
/// to halves and categorical domains hold 2–4 labels, so tied values and
/// tied votes are common. Every fourth seed has 150–249 objects, which
/// spans several 256-entry kernel chunks; the rest have 4–43.
pub fn random_table(seed: u64) -> ObservationTable {
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x0AC1_E5EE_D000);
    let mut below = |n: u64| rng.next_u64() % n;
    let num_props = 2 + below(3) as usize;
    let mut kinds = vec![PropertyType::Continuous, PropertyType::Categorical];
    for _ in 2..num_props {
        kinds.push(if below(2) == 0 {
            PropertyType::Continuous
        } else {
            PropertyType::Categorical
        });
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, below(i as u64 + 1) as usize);
    }
    let sources = 3 + below(7) as u32;
    let objects = if seed.is_multiple_of(4) {
        150 + below(100) as u32
    } else {
        4 + below(40) as u32
    };

    let mut schema = Schema::new();
    let mut props = Vec::new();
    for (j, kind) in kinds.iter().enumerate() {
        let pid = match kind {
            PropertyType::Continuous => schema.add_continuous(&format!("x{j}")),
            _ => schema.add_categorical(&format!("c{j}")),
        };
        props.push((pid, *kind, 2 + below(3) as usize));
    }
    let labels = ["a", "b", "c", "d"];
    let mut b = TableBuilder::new(schema);
    for o in 0..objects {
        for &(pid, kind, domain) in &props {
            for s in 0..sources {
                if below(100) < 25 {
                    continue;
                }
                let bias = f64::from(s) * 0.5;
                if kind == PropertyType::Continuous {
                    let truth = f64::from(o % 17) * 3.0 + 10.0 * pid.index() as f64;
                    let noise = below(400) as f64 / 100.0;
                    let v = ((truth + bias + noise) * 2.0).round() / 2.0;
                    b.add(ObjectId(o), pid, SourceId(s), Value::Num(v))
                        .expect("claim within the schema");
                } else {
                    let label = if below(2 * u64::from(sources)) < u64::from(s) {
                        labels[below(domain as u64) as usize]
                    } else {
                        labels[o as usize % domain]
                    };
                    b.add_label(ObjectId(o), pid, SourceId(s), label)
                        .expect("label within the schema");
                }
            }
        }
    }
    b.build().expect("random table builds")
}
