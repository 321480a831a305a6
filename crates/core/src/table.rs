//! Multi-source observation storage and the truth table.
//!
//! [`ObservationTable`] stores the union of all sources' claims
//! `{X^(1), …, X^(K)}` in an entry-major CSR layout: for each entry
//! (object, property) a contiguous slice of `(SourceId, Value)` pairs.
//! Both solver steps iterate entry-by-entry, so this is the cache-friendly
//! orientation; missing observations (§2.5) simply do not appear.

use crate::error::{CrhError, Result};
use crate::ids::{EntryId, ObjectId, PropertyId, SourceId};
use crate::schema::Schema;
use crate::value::{Truth, Value};

/// An entry: one cell of the truth table (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Entry {
    /// The object `i`.
    pub object: ObjectId,
    /// The property `m`.
    pub property: PropertyId,
}

/// One input tuple `(eID, v, sID)` in the MapReduce data format (§2.7.1),
/// here with the entry spelled out as (object, property).
#[derive(Debug, Clone)]
pub struct Claim {
    /// The observed object.
    pub object: ObjectId,
    /// The observed property.
    pub property: PropertyId,
    /// The claiming source.
    pub source: SourceId,
    /// The claimed value.
    pub value: Value,
}

/// Incremental builder for [`ObservationTable`].
///
/// Duplicate claims (same entry, same source) are resolved keep-last, the
/// usual treatment for re-crawled web data.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    claims: Vec<Claim>,
}

impl TableBuilder {
    /// Start building against `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            claims: Vec::new(),
        }
    }

    /// Read access to the schema (e.g. to resolve property names).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the schema (e.g. to intern categorical labels).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Record one observation. Validates the value against the schema.
    pub fn add(
        &mut self,
        object: ObjectId,
        property: PropertyId,
        source: SourceId,
        value: Value,
    ) -> Result<()> {
        self.schema.check_value(property, &value)?;
        self.claims.push(Claim {
            object,
            property,
            source,
            value,
        });
        Ok(())
    }

    /// Convenience: intern a categorical label and record the observation.
    pub fn add_label(
        &mut self,
        object: ObjectId,
        property: PropertyId,
        source: SourceId,
        label: &str,
    ) -> Result<()> {
        let v = self.schema.intern(property, label)?;
        self.add(object, property, source, v)
    }

    /// Number of claims recorded so far (before dedup).
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// Whether no claims have been recorded.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// Finalize into an [`ObservationTable`].
    pub fn build(self) -> Result<ObservationTable> {
        ObservationTable::from_claims(self.schema, self.claims)
    }
}

/// The assembled multi-source input `{X^(1), …, X^(K)}`.
#[derive(Debug, Clone)]
pub struct ObservationTable {
    schema: Schema,
    /// Strictly ascending by `(object, property)`, so lookups binary-search.
    entries: Vec<Entry>,
    /// CSR offsets: observations of entry `e` live at `obs[offsets[e]..offsets[e+1]]`.
    offsets: Vec<usize>,
    obs: Vec<(SourceId, Value)>,
    num_sources: usize,
    num_objects: usize,
    /// Observation count per source (for the §2.5 count normalization).
    source_counts: Vec<usize>,
}

impl ObservationTable {
    /// Build from raw claims. Claims are grouped by entry; within an entry,
    /// a later claim from the same source replaces an earlier one.
    pub fn from_claims(schema: Schema, mut claims: Vec<Claim>) -> Result<Self> {
        if claims.is_empty() {
            return Err(CrhError::EmptyTable);
        }
        // Group by (object, property), then each group by source. Both sorts
        // are stable, so a source's claims on one entry stay in arrival order
        // and keep-last means "the final claim of each source run". On input
        // that is already ordered the second sort is a linear check.
        claims.sort_by_key(|c| (c.object, c.property));
        for group in claims.chunk_by_mut(|a, b| (a.object, a.property) == (b.object, b.property)) {
            group.sort_by_key(|c| c.source);
        }

        let mut entries: Vec<Entry> = Vec::new();
        let mut offsets = Vec::new();
        let mut obs: Vec<(SourceId, Value)> = Vec::with_capacity(claims.len());
        let mut source_counts: Vec<usize> = Vec::new();
        let mut claims = claims.into_iter().peekable();
        while let Some(c) = claims.next() {
            let superseded = claims.peek().is_some_and(|d| {
                (d.object, d.property, d.source) == (c.object, c.property, c.source)
            });
            if superseded {
                continue;
            }
            let key = Entry {
                object: c.object,
                property: c.property,
            };
            if entries.last() != Some(&key) {
                entries.push(key);
                offsets.push(obs.len());
            }
            let s = c.source.index();
            if s >= source_counts.len() {
                source_counts.resize(s + 1, 0);
            }
            source_counts[s] += 1;
            obs.push((c.source, c.value));
        }
        offsets.push(obs.len());
        let num_sources = source_counts.len();
        // entries ascend by object, so the last one holds the largest id
        let num_objects = entries.last().map_or(0, |e| e.object.index() + 1);

        Ok(Self {
            schema,
            entries,
            offsets,
            obs,
            num_sources,
            num_objects,
            source_counts,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of entries with at least one observation.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of sources `K` (1 + the largest source id seen).
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of objects `N` (1 + the largest object id seen).
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of properties `M` declared in the schema.
    pub fn num_properties(&self) -> usize {
        self.schema.num_properties()
    }

    /// Total number of observations (after dedup).
    pub fn num_observations(&self) -> usize {
        self.obs.len()
    }

    /// Observation count of each source.
    pub fn source_counts(&self) -> &[usize] {
        &self.source_counts
    }

    /// The entry descriptor for `e`.
    pub fn entry(&self, e: EntryId) -> Entry {
        self.entries[e.index()]
    }

    /// Look up an entry id by (object, property): a binary search over the
    /// entries, which `from_claims` leaves sorted by `(object, property)`.
    pub fn entry_id(&self, object: ObjectId, property: PropertyId) -> Option<EntryId> {
        self.entries
            .binary_search_by(|e| (e.object, e.property).cmp(&(object, property)))
            .ok()
            .map(EntryId::from_index)
    }

    /// The `(source, value)` observations of entry `e`, sorted by source id.
    pub fn observations(&self, e: EntryId) -> &[(SourceId, Value)] {
        let i = e.index();
        &self.obs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterate `(EntryId, Entry, observations)` over all entries.
    pub fn iter_entries(
        &self,
    ) -> impl Iterator<Item = (EntryId, Entry, &[(SourceId, Value)])> + '_ {
        self.entries.iter().enumerate().map(move |(i, &entry)| {
            (
                EntryId::from_index(i),
                entry,
                &self.obs[self.offsets[i]..self.offsets[i + 1]],
            )
        })
    }

    /// Iterate all claims as flat `(entry, source, value)` tuples — the
    /// MapReduce input format of §2.7.1.
    pub fn iter_claims(&self) -> impl Iterator<Item = (EntryId, SourceId, &Value)> + '_ {
        self.iter_entries()
            .flat_map(|(e, _, group)| group.iter().map(move |(s, v)| (e, *s, v)))
    }
}

/// The output truth table `X^(*)`: one [`Truth`] per entry of the
/// observation table it was computed from.
#[derive(Debug, Clone)]
pub struct TruthTable {
    cells: Vec<Truth>,
}

impl TruthTable {
    /// Wrap a dense vector of truths (parallel to the table's entries).
    pub fn new(cells: Vec<Truth>) -> Self {
        Self { cells }
    }

    /// The truth of entry `e`.
    pub fn get(&self, e: EntryId) -> &Truth {
        &self.cells[e.index()]
    }

    /// Mutable access, used by solvers.
    pub fn get_mut(&mut self, e: EntryId) -> &mut Truth {
        &mut self.cells[e.index()]
    }

    /// The dense cell storage, for entry-sharded kernels that write truths
    /// in place (cell `i` is entry `i`).
    pub fn as_mut_slice(&mut self) -> &mut [Truth] {
        &mut self.cells
    }

    /// Resize to exactly `n` cells so a kernel can overwrite them in place,
    /// reusing the existing allocation (and each cell's own allocations)
    /// across iterations. New cells get a placeholder value.
    pub fn resize_for_fit(&mut self, n: usize) {
        self.cells.resize(n, Truth::Point(Value::Num(0.0)));
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate `(EntryId, &Truth)`.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &Truth)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, t)| (EntryId::from_index(i), t))
    }

    /// Consume into the underlying cells.
    pub fn into_cells(self) -> Vec<Truth> {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn weather_schema() -> Schema {
        let mut s = Schema::new();
        s.add_continuous("high");
        s.add_categorical("cond");
        s
    }

    fn build_small() -> ObservationTable {
        let mut b = TableBuilder::new(weather_schema());
        let hi = PropertyId(0);
        let cond = PropertyId(1);
        b.add(ObjectId(0), hi, SourceId(0), Value::Num(70.0))
            .unwrap();
        b.add(ObjectId(0), hi, SourceId(1), Value::Num(72.0))
            .unwrap();
        b.add(ObjectId(0), hi, SourceId(2), Value::Num(90.0))
            .unwrap();
        b.add_label(ObjectId(0), cond, SourceId(0), "sunny")
            .unwrap();
        b.add_label(ObjectId(0), cond, SourceId(1), "sunny")
            .unwrap();
        b.add_label(ObjectId(1), cond, SourceId(2), "rain").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dimensions() {
        let t = build_small();
        assert_eq!(t.num_entries(), 3);
        assert_eq!(t.num_sources(), 3);
        assert_eq!(t.num_objects(), 2);
        assert_eq!(t.num_properties(), 2);
        assert_eq!(t.num_observations(), 6);
        assert_eq!(t.source_counts(), &[2, 2, 2]);
    }

    #[test]
    fn entry_lookup_and_observations() {
        let t = build_small();
        let e = t.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        let obs = t.observations(e);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0], (SourceId(0), Value::Num(70.0)));
        assert_eq!(t.entry(e).object, ObjectId(0));
        assert!(t.entry_id(ObjectId(5), PropertyId(0)).is_none());
    }

    #[test]
    fn keep_last_dedup() {
        let mut b = TableBuilder::new(weather_schema());
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(1.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(2.0))
            .unwrap();
        let t = b.build().unwrap();
        let e = t.entry_id(ObjectId(0), PropertyId(0)).unwrap();
        assert_eq!(t.observations(e), &[(SourceId(0), Value::Num(2.0))]);
        assert_eq!(t.num_observations(), 1);
    }

    #[test]
    fn entry_id_finds_every_entry_of_shuffled_claims_with_duplicates() {
        use crate::rng::{Pcg64, Rng};
        let mut rng = Pcg64::seed_from_u64(0xE1D);
        let mut claims = Vec::new();
        for o in 0..40u32 {
            for p in 0..2u32 {
                // skip some cells so lookups have gaps to miss
                if (o * 7 + p * 3) % 5 == 0 {
                    continue;
                }
                for s in 0..3u32 {
                    // each source reports twice; the later claim supersedes
                    for rev in 0..2u32 {
                        let value = if p == 0 {
                            Value::Num(f64::from(o * 10 + s + rev))
                        } else {
                            Value::Cat(rev)
                        };
                        claims.push(Claim {
                            object: ObjectId(o),
                            property: PropertyId(p),
                            source: SourceId(s),
                            value,
                        });
                    }
                }
            }
        }
        for i in (1..claims.len()).rev() {
            let j = rng.random_range(0..i + 1);
            claims.swap(i, j);
        }
        // naive keep-last reference: a later insert for the same
        // (entry, source) overwrites the earlier one
        let mut reference: BTreeMap<(ObjectId, PropertyId), BTreeMap<SourceId, Value>> =
            BTreeMap::new();
        for c in &claims {
            reference
                .entry((c.object, c.property))
                .or_default()
                .insert(c.source, c.value.clone());
        }
        let t = ObservationTable::from_claims(weather_schema(), claims).unwrap();

        assert_eq!(t.num_entries(), reference.len());
        let mut counts = vec![0usize; 3];
        for (i, ((o, p), by_source)) in reference.iter().enumerate() {
            let e = EntryId::from_index(i);
            assert_eq!(
                t.entry(e),
                Entry {
                    object: *o,
                    property: *p
                }
            );
            let want: Vec<(SourceId, Value)> =
                by_source.iter().map(|(s, v)| (*s, v.clone())).collect();
            assert_eq!(t.observations(e), want.as_slice(), "({o:?}, {p:?})");
            for s in by_source.keys() {
                counts[s.index()] += 1;
            }
        }
        assert_eq!(t.source_counts(), counts.as_slice());
        assert_eq!(t.num_sources(), 3);

        assert!(t
            .entries
            .windows(2)
            .all(|w| (w[0].object, w[0].property) < (w[1].object, w[1].property)));
        for i in 0..t.num_entries() {
            let e = EntryId::from_index(i);
            let entry = t.entry(e);
            assert_eq!(t.entry_id(entry.object, entry.property), Some(e));
            assert_eq!(t.observations(e).len(), 3, "duplicates must collapse");
        }
        for o in 0..40u32 {
            for p in 0..2u32 {
                let present = (o * 7 + p * 3) % 5 != 0;
                assert_eq!(
                    t.entry_id(ObjectId(o), PropertyId(p)).is_some(),
                    present,
                    "({o}, {p})"
                );
            }
        }
        assert_eq!(t.num_objects(), 40);
        assert_eq!(t.entry_id(ObjectId(40), PropertyId(0)), None);
        assert_eq!(t.entry_id(ObjectId(u32::MAX), PropertyId(1)), None);
        assert_eq!(t.entry_id(ObjectId(1), PropertyId(7)), None);
    }

    #[test]
    fn observations_sorted_by_source() {
        let mut b = TableBuilder::new(weather_schema());
        b.add(ObjectId(0), PropertyId(0), SourceId(2), Value::Num(3.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Num(1.0))
            .unwrap();
        b.add(ObjectId(0), PropertyId(0), SourceId(1), Value::Num(2.0))
            .unwrap();
        let t = b.build().unwrap();
        let obs = t.observations(EntryId(0));
        let srcs: Vec<u32> = obs.iter().map(|(s, _)| s.0).collect();
        assert_eq!(srcs, vec![0, 1, 2]);
    }

    #[test]
    fn empty_table_is_error() {
        let b = TableBuilder::new(weather_schema());
        assert!(b.is_empty());
        assert!(matches!(b.build(), Err(CrhError::EmptyTable)));
    }

    #[test]
    fn type_mismatch_rejected_at_add() {
        let mut b = TableBuilder::new(weather_schema());
        let err = b.add(ObjectId(0), PropertyId(0), SourceId(0), Value::Cat(0));
        assert!(matches!(err, Err(CrhError::TypeMismatch { .. })));
    }

    #[test]
    fn iter_claims_flattens() {
        let t = build_small();
        assert_eq!(t.iter_claims().count(), t.num_observations());
    }

    #[test]
    fn missing_values_are_absent() {
        // source 2 never reports (o0, cond): the entry has 2 observations.
        let t = build_small();
        let e = t.entry_id(ObjectId(0), PropertyId(1)).unwrap();
        assert_eq!(t.observations(e).len(), 2);
    }

    #[test]
    fn truth_table_accessors() {
        let mut tt = TruthTable::new(vec![
            Truth::Point(Value::Num(1.0)),
            Truth::Point(Value::Cat(0)),
        ]);
        assert_eq!(tt.len(), 2);
        assert!(!tt.is_empty());
        assert_eq!(tt.get(EntryId(0)).as_num(), Some(1.0));
        *tt.get_mut(EntryId(0)) = Truth::Point(Value::Num(5.0));
        assert_eq!(tt.get(EntryId(0)).as_num(), Some(5.0));
        assert_eq!(tt.iter().count(), 2);
        assert_eq!(tt.into_cells().len(), 2);
    }
}
