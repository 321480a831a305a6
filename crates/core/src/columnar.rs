//! Columnar-by-property claim storage for the solver's fast kernels.
//!
//! The entry-major [`ObservationTable`] stores one `(SourceId, Value)`
//! slice per entry — flexible, but the hot loops pay an enum match and a
//! pointer chase per observation. This module mirrors the same claims into
//! per-property **columns** that the kernels in [`kernels`](crate::kernels)
//! can sweep flat:
//!
//! * **continuous** properties become one contiguous `f64` matrix
//!   (`rows × K`, `K` = sources) with a validity bitmap;
//! * **categorical** properties become a dense `u32` code matrix (codes are
//!   the schema's interned domain ids) with the same bitmap;
//! * **text** properties are interned through a per-property
//!   [`Dictionary`] — distinct strings sorted lexicographically, code =
//!   rank — into the same dense code layout.
//!
//! Each column carries a `rows → EntryId` map in ascending entry order, so
//! a per-chunk kernel finds its slice of a column with one binary search
//! and walks entries in exactly the order the row path does.
//!
//! The columnar mirror is a *derived* structure: the row-oriented
//! [`ObservationTable`] stays the API of record (loading, streaming and
//! serving call sites are untouched), and [`ColumnarTable::value`] can
//! reconstruct any claim for verification. Building is strict where the
//! row path is lax:
//!
//! * NaN/infinite continuous claims — possible through
//!   [`ObservationTable::from_claims`], which skips schema validation — are
//!   rejected with [`CrhError::NonFiniteValue`] instead of silently
//!   poisoning the solve;
//! * a dense id space that would overflow `u32` reports a typed
//!   [`CrhError::CapacityExceeded`];
//! * a property whose claims mix value types (again only reachable via
//!   `from_claims`) is left as [`PropertyColumn::Mixed`] — no column is
//!   built and the solver keeps the row path, including its unit
//!   type-confusion penalties, for that property.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use std::sync::Arc;

use crate::error::{CrhError, Result};
use crate::ids::EntryId;
use crate::kernels::{for_each_valid, KernelClass};
use crate::loss::Loss;
use crate::stats::{entry_stats, EntryStats};
use crate::table::ObservationTable;
use crate::value::{PropertyType, Value};

/// Code stored in invalid (missing) slots of a coded column. Never a live
/// code: live id spaces are capped well below it.
pub const MISSING_CODE: u32 = u32::MAX;

/// Largest dense-id domain the vote kernel will tally. Properties with a
/// wider observed id space (only constructible by hand-feeding huge
/// `Value::Cat` ids through `from_claims`) fall back to the generic row
/// path instead of allocating giant per-chunk tallies.
pub const DENSE_DOMAIN_CAP: usize = 4096;

/// Guard a dense-id space against `u32` overflow (the [`MISSING_CODE`]
/// sentinel is also reserved), reporting the typed
/// [`CrhError::CapacityExceeded`] instead of truncating or panicking.
pub fn checked_code(index: usize, what: &'static str) -> Result<u32> {
    if index >= MISSING_CODE as usize {
        return Err(CrhError::CapacityExceeded {
            what,
            limit: MISSING_CODE as u64,
        });
    }
    Ok(index as u32)
}

/// A per-property string interner: distinct labels sorted lexicographically,
/// code = rank. Sorting makes codes a pure function of the claim *set* —
/// independent of claim arrival order — so two tables with the same claims
/// always intern identically. The empty string is a perfectly valid label
/// (rank 0 when present).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    labels: Vec<String>,
}

impl Dictionary {
    /// Intern the distinct strings of `labels` (sorted, deduplicated).
    /// Fails with [`CrhError::CapacityExceeded`] if the distinct count
    /// cannot be coded in `u32`.
    pub fn build<'a, I>(labels: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut distinct: Vec<&str> = labels.into_iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let labels: Vec<String> = distinct.into_iter().map(str::to_owned).collect();
        // validate the last rank; all earlier ranks fit a fortiori
        if let Some(last) = labels.len().checked_sub(1) {
            checked_code(last, "text dictionary codes")?;
        }
        Ok(Self { labels })
    }

    /// The dense code of `label`, if interned.
    pub fn code(&self, label: &str) -> Option<u32> {
        self.labels
            .binary_search_by(|probe| probe.as_str().cmp(label))
            .ok()
            .map(|i| i as u32)
    }

    /// The label behind `code`.
    pub fn label(&self, code: u32) -> Option<&str> {
        self.labels.get(code as usize).map(String::as_str)
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Per-row validity bits. Rows are padded to whole `u64` words so every
/// row's bits are a word-aligned slice — the kernels take `&[u64]` per row.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
    words_per_row: usize,
}

impl Bitmap {
    fn zeroed(rows: usize, bits_per_row: usize) -> Self {
        let words_per_row = bits_per_row.div_ceil(64).max(1);
        Self {
            words: vec![0u64; rows * words_per_row],
            words_per_row,
        }
    }

    fn set(&mut self, row: usize, bit: usize) {
        self.words[row * self.words_per_row + (bit >> 6)] |= 1u64 << (bit & 63);
    }

    /// The word-aligned validity bits of one row.
    pub fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Whether `bit` is set in `row`.
    pub fn get(&self, row: usize, bit: usize) -> bool {
        (self.words[row * self.words_per_row + (bit >> 6)] >> (bit & 63)) & 1 != 0
    }
}

/// A contiguous `f64` column for one continuous property.
#[derive(Debug, Clone)]
pub struct NumColumn {
    /// Property-local row → entry index, ascending.
    rows: Vec<u32>,
    /// `rows.len() × K` dense values; `0.0` in invalid slots.
    values: Vec<f64>,
    valid: Bitmap,
    /// `rows.len() × K` source slots: each row's valid slots by value,
    /// then unused padding. Empty unless the plan presorted the column for
    /// the median kernel.
    order: Vec<u32>,
}

/// A dense `u32` code column for one categorical or text property.
#[derive(Debug, Clone)]
pub struct CodedColumn {
    /// Property-local row → entry index, ascending.
    rows: Vec<u32>,
    /// `rows.len() × K` dense codes; [`MISSING_CODE`] in invalid slots.
    codes: Vec<u32>,
    valid: Bitmap,
    /// `1 + max live code` — the tally size the vote kernel needs.
    domain: usize,
    /// The string interner (text properties only; categorical codes are
    /// the schema domain's).
    dict: Option<Dictionary>,
}

/// One property's columnar storage.
#[derive(Debug, Clone)]
pub enum PropertyColumn {
    /// Contiguous `f64` storage (continuous property).
    Num(NumColumn),
    /// Dense `u32` code storage (categorical domain ids or interned text).
    Coded(CodedColumn),
    /// The property's claims mix value types (only reachable through
    /// `from_claims`, which skips schema validation); no column is built
    /// and the solver keeps the exact row path for these entries. The row
    /// map is still recorded so kernels can walk the property's entries.
    Mixed {
        /// Property-local row → entry index, ascending.
        rows: Vec<u32>,
    },
}

impl PropertyColumn {
    /// The property-local row → entry map (ascending entry order).
    pub fn rows(&self) -> &[u32] {
        match self {
            PropertyColumn::Num(c) => &c.rows,
            PropertyColumn::Coded(c) => &c.rows,
            PropertyColumn::Mixed { rows } => rows,
        }
    }

    fn rows_mut(&mut self) -> &mut Vec<u32> {
        match self {
            PropertyColumn::Num(c) => &mut c.rows,
            PropertyColumn::Coded(c) => &mut c.rows,
            PropertyColumn::Mixed { rows } => rows,
        }
    }
}

impl NumColumn {
    /// One row's dense values (indexed by source id).
    pub fn values_row(&self, row: usize, k: usize) -> &[f64] {
        &self.values[row * k..(row + 1) * k]
    }

    /// One row's validity bits.
    pub fn valid_row(&self, row: usize) -> &[u64] {
        self.valid.row(row)
    }

    /// One row's valid source slots in ascending [`f64::total_cmp`] value
    /// order, ties in ascending source id. Empty unless the column was
    /// presorted by a [`ColumnarPlan`] for the median kernel.
    pub fn order_row(&self, row: usize, k: usize) -> &[u32] {
        let len: usize = self
            .valid_row(row)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        self.order.get(row * k..row * k + len).unwrap_or(&[])
    }

    /// Build every row's [`order_row`](Self::order_row): valid slots in
    /// ascending [`f64::total_cmp`] order, ties in ascending source id —
    /// exactly what [`weighted_median`](crate::loss::weighted_median)'s
    /// stable sort does to the row path's source-ordered observations.
    /// Values never change during a solve, so this runs once per table.
    /// A row of at most [`RANK_MAX`] valid slots places each slot at its
    /// rank (the count of slots ordered before it) on integer keys; wider
    /// rows take a stable sort on the same keys.
    fn presort(&mut self, k: usize) {
        let NumColumn {
            rows,
            values,
            valid,
            order,
        } = self;
        order.resize(rows.len() * k, 0);
        for row in 0..rows.len() {
            let vals = &values[row * k..(row + 1) * k];
            let slots = &mut order[row * k..(row + 1) * k];
            let mut len = 0;
            for_each_valid(valid.row(row), |s| {
                slots[len] = s as u32;
                len += 1;
            });
            if len > RANK_MAX {
                slots[..len].sort_by_key(|&s| total_key(vals[s as usize]));
                continue;
            }
            let mut src = [0u32; RANK_MAX];
            let mut keys = [0i64; RANK_MAX];
            for (j, &s) in slots[..len].iter().enumerate() {
                src[j] = s;
                keys[j] = total_key(vals[s as usize]);
            }
            let keys = &keys[..len];
            for (j, &key) in keys.iter().enumerate() {
                // earlier slots are lower source ids: they go first on a tie
                let before = keys[..j].iter().filter(|&&x| x <= key).count()
                    + keys[j + 1..].iter().filter(|&&x| x < key).count();
                slots[before] = src[j];
            }
        }
    }
}

/// Widest row [`NumColumn::presort`] ranks in place; wider rows sort.
const RANK_MAX: usize = 16;

/// `x`'s position in [`f64::total_cmp`] order as a signed integer: a
/// negative value's magnitude bits are flipped, so a larger magnitude
/// sorts lower, as `total_cmp` itself does.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl CodedColumn {
    /// One row's dense codes (indexed by source id).
    pub fn codes_row(&self, row: usize, k: usize) -> &[u32] {
        &self.codes[row * k..(row + 1) * k]
    }

    /// One row's validity bits.
    pub fn valid_row(&self, row: usize) -> &[u64] {
        self.valid.row(row)
    }

    /// `1 + max live code` (the vote kernel's tally size).
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The per-property string interner (text properties only).
    pub fn dictionary(&self) -> Option<&Dictionary> {
        self.dict.as_ref()
    }
}

/// One property's column while [`ColumnarTable::build`] walks
/// the table: allocated at its final row count, filled in entry order.
struct Fill<'t> {
    column: PropertyColumn,
    ptype: PropertyType,
    /// The schema domain size `L_m`, for the entry stats.
    domain_size: usize,
    /// A claim's type differs from the property's.
    mixed: bool,
    /// The property's first failing claim: its entry index and error.
    error: Option<(usize, CrhError)>,
    /// Text claims by dense slot, coded once the dictionary is known.
    labels: Vec<(usize, &'t str)>,
}

/// The columnar mirror of an [`ObservationTable`]: one [`PropertyColumn`]
/// per property, sharing the table's entry and source id spaces.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    columns: Vec<PropertyColumn>,
    num_sources: usize,
}

impl ColumnarTable {
    /// Mirror `table` column-by-property, and return every entry's
    /// [`EntryStats`] in entry order, in one walk of the observations.
    /// Each column is sized from a count over the entries, which reads no
    /// observation; the walk then fills values, codes and validity bits
    /// and collects each entry's continuous values for
    /// [`compute_entry_stats`](crate::stats::compute_entry_stats)'s float
    /// program. Strictly validates what the row store tolerates:
    /// non-finite continuous claims are rejected
    /// ([`CrhError::NonFiniteValue`]) and oversized id spaces report
    /// [`CrhError::CapacityExceeded`]. A property that turns out
    /// type-mixed becomes [`PropertyColumn::Mixed`] after the walk and its
    /// failures are dropped, preserving the row path's semantics for it;
    /// of the others, the first failing entry in entry order is the error.
    pub fn build(table: &ObservationTable) -> Result<(Self, Vec<EntryStats>)> {
        let k = table.num_sources();
        let n = table.num_entries();
        checked_code(n, "columnar entry rows")?;

        let mut counts = vec![0usize; table.num_properties()];
        for (_, entry, _) in table.iter_entries() {
            counts[entry.property.index()] += 1;
        }
        let schema = table.schema();
        let mut fills: Vec<Fill<'_>> = schema
            .properties()
            .zip(counts)
            .map(|((pid, def), rows)| {
                let domain_size = schema.domain(pid).map_or(0, |d| d.len());
                let column = match def.ptype {
                    PropertyType::Continuous => PropertyColumn::Num(NumColumn {
                        rows: Vec::with_capacity(rows),
                        values: vec![0.0; rows * k],
                        valid: Bitmap::zeroed(rows, k),
                        order: Vec::new(),
                    }),
                    PropertyType::Categorical | PropertyType::Text => {
                        PropertyColumn::Coded(CodedColumn {
                            rows: Vec::with_capacity(rows),
                            codes: vec![MISSING_CODE; rows * k],
                            valid: Bitmap::zeroed(rows, k),
                            domain: domain_size,
                            dict: None,
                        })
                    }
                };
                Fill {
                    column,
                    ptype: def.ptype,
                    domain_size,
                    mixed: false,
                    error: None,
                    labels: Vec::new(),
                }
            })
            .collect();

        let mut stats = Vec::with_capacity(n);
        let mut nums: Vec<f64> = Vec::new();
        for (e, entry, obs) in table.iter_entries() {
            let i = e.index();
            let fill = &mut fills[entry.property.index()];
            let rows = fill.column.rows_mut();
            let row = rows.len();
            rows.push(i as u32);
            nums.clear();
            for (s, v) in obs {
                if let Value::Num(x) = v {
                    nums.push(*x);
                }
                let slot = row * k + s.index();
                match (&mut fill.column, v, fill.ptype) {
                    (PropertyColumn::Num(col), &Value::Num(x), _) => {
                        if !x.is_finite() {
                            let property = entry.property;
                            let err = CrhError::NonFiniteValue { property, value: x };
                            fill.error.get_or_insert((i, err));
                        }
                        col.values[slot] = x;
                        col.valid.set(row, s.index());
                    }
                    (PropertyColumn::Coded(col), &Value::Cat(c), PropertyType::Categorical) => {
                        if c == MISSING_CODE {
                            let what = "dense property codes";
                            let err = CrhError::CapacityExceeded {
                                what,
                                limit: MISSING_CODE as u64,
                            };
                            fill.error.get_or_insert((i, err));
                        }
                        col.domain = col.domain.max(c as usize + 1);
                        col.codes[slot] = c;
                        col.valid.set(row, s.index());
                    }
                    (PropertyColumn::Coded(col), Value::Text(t), PropertyType::Text) => {
                        fill.labels.push((slot, t));
                        col.valid.set(row, s.index());
                    }
                    _ => fill.mixed = true,
                }
            }
            stats.push(entry_stats(&nums, obs.len(), fill.domain_size));
        }

        let mut first_error: Option<(usize, CrhError)> = None;
        let mut columns = Vec::with_capacity(fills.len());
        for fill in fills {
            let mut column = fill.column;
            if fill.mixed {
                let rows = std::mem::take(column.rows_mut());
                columns.push(PropertyColumn::Mixed { rows });
                continue;
            }
            if let Some((i, err)) = fill.error {
                if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_error = Some((i, err));
                }
            }
            if let (PropertyColumn::Coded(col), PropertyType::Text) = (&mut column, fill.ptype) {
                let dict = Dictionary::build(fill.labels.iter().map(|&(_, t)| t))?;
                for (slot, t) in fill.labels {
                    // every label was interned above
                    col.codes[slot] = dict.code(t).unwrap_or(MISSING_CODE);
                }
                col.domain = dict.len();
                col.dict = Some(dict);
            }
            columns.push(column);
        }
        if let Some((_, err)) = first_error {
            return Err(err);
        }
        Ok((
            Self {
                columns,
                num_sources: k,
            },
            stats,
        ))
    }

    /// Number of sources (the dense width `K` of every column row).
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// The column of property index `p`.
    pub fn column(&self, p: usize) -> &PropertyColumn {
        &self.columns[p]
    }

    /// Number of property columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Reconstruct the claim of `source` in property `p`'s local `row` —
    /// the thin row view over the columnar layout, used to verify the
    /// mirror is lossless. Returns `None` for missing slots and for
    /// [`Mixed`](PropertyColumn::Mixed) properties (which have no column).
    pub fn value(&self, p: usize, row: usize, source: usize) -> Option<Value> {
        let k = self.num_sources;
        match &self.columns[p] {
            PropertyColumn::Mixed { .. } => None,
            PropertyColumn::Num(c) => c
                .valid
                .get(row, source)
                .then(|| Value::Num(c.values_row(row, k)[source])),
            PropertyColumn::Coded(c) => {
                if !c.valid.get(row, source) {
                    return None;
                }
                let code = c.codes_row(row, k)[source];
                match &c.dict {
                    Some(d) => d.label(code).map(|t| Value::Text(t.to_owned())),
                    None => Some(Value::Cat(code)),
                }
            }
        }
    }

    /// The entry behind property `p`'s local `row`.
    pub fn entry_of(&self, p: usize, row: usize) -> EntryId {
        EntryId(self.columns[p].rows()[row])
    }
}

/// A [`ColumnarTable`] plus the per-property [`KernelClass`] resolution —
/// everything the solver kernels need to route each property to its fast
/// sweep or keep the exact row path. Columns resolved to
/// [`KernelClass::Median`] are presorted ([`NumColumn::order_row`]).
#[derive(Debug, Clone)]
pub struct ColumnarPlan {
    /// The columnar mirror.
    pub table: ColumnarTable,
    /// Per-property kernel class: a fast class only when the property's
    /// loss advertises one *and* the column layout supports it.
    pub class: Vec<KernelClass>,
}

impl ColumnarPlan {
    /// Build the mirror, resolve each property's kernel class against its
    /// configured loss and presort the median columns. Also returns the
    /// entry stats of [`ColumnarTable::build`]'s walk.
    pub fn new(
        table: &ObservationTable,
        losses: &[Arc<dyn Loss>],
    ) -> Result<(Self, Vec<EntryStats>)> {
        let (mut columnar, stats) = ColumnarTable::build(table)?;
        let class: Vec<KernelClass> = losses
            .iter()
            .enumerate()
            .map(
                |(p, loss)| match (loss.kernel_class(), columnar.column(p)) {
                    (KernelClass::Mean, PropertyColumn::Num(_)) => KernelClass::Mean,
                    (KernelClass::Median, PropertyColumn::Num(_)) => KernelClass::Median,
                    (KernelClass::Vote, PropertyColumn::Coded(c))
                        if c.domain() <= DENSE_DOMAIN_CAP =>
                    {
                        KernelClass::Vote
                    }
                    _ => KernelClass::Generic,
                },
            )
            .collect();
        let k = columnar.num_sources;
        for (column, &c) in columnar.columns.iter_mut().zip(&class) {
            if let (PropertyColumn::Num(col), KernelClass::Median) = (column, c) {
                col.presort(k);
            }
        }
        Ok((
            Self {
                table: columnar,
                class,
            },
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, SourceId};
    use crate::schema::Schema;
    use crate::table::{Claim, TableBuilder};

    fn mixed_schema() -> (Schema, crate::ids::PropertyId, crate::ids::PropertyId) {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("temp");
        let cond = schema.add_categorical("cond");
        (schema, temp, cond)
    }

    #[test]
    fn columnar_mirror_is_lossless() {
        let (schema, temp, cond) = mixed_schema();
        let mut b = TableBuilder::new(schema);
        for o in 0..5u32 {
            for s in 0..3u32 {
                if (o + s) % 3 != 0 {
                    b.add(
                        ObjectId(o),
                        temp,
                        SourceId(s),
                        Value::Num(o as f64 + s as f64),
                    )
                    .unwrap();
                }
                if (o + s) % 4 != 0 {
                    b.add_label(
                        ObjectId(o),
                        cond,
                        SourceId(s),
                        ["wet", "dry"][(s % 2) as usize],
                    )
                    .unwrap();
                }
            }
        }
        let table = b.build().unwrap();
        let col = ColumnarTable::build(&table).unwrap().0;

        let mut seen = 0usize;
        for p in 0..col.num_columns() {
            let rows = col.column(p).rows();
            for (r, &entry_row) in rows.iter().enumerate() {
                let e = EntryId(entry_row);
                assert_eq!(col.entry_of(p, r), e);
                for (s, v) in table.observations(e) {
                    assert_eq!(col.value(p, r, s.index()).as_ref(), Some(v));
                    seen += 1;
                }
            }
            // rows ascend — the kernels rely on ascending entry order
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(seen, table.num_observations());
    }

    #[test]
    fn text_dictionary_sorted_and_order_independent() {
        let mut schema = Schema::new();
        let gate = schema.add_text("gate");
        let mut b = TableBuilder::new(schema.clone());
        b.add(ObjectId(0), gate, SourceId(0), Value::Text("b".into()))
            .unwrap();
        b.add(ObjectId(0), gate, SourceId(1), Value::Text("".into()))
            .unwrap();
        b.add(ObjectId(1), gate, SourceId(0), Value::Text("a".into()))
            .unwrap();
        let t1 = b.build().unwrap();
        let c1 = ColumnarTable::build(&t1).unwrap().0;
        let PropertyColumn::Coded(col) = c1.column(0) else {
            panic!("text property must be coded");
        };
        let dict = col.dictionary().unwrap();
        // sorted ranks: "" < "a" < "b"; the empty string is a valid label
        assert_eq!(dict.code(""), Some(0));
        assert_eq!(dict.code("a"), Some(1));
        assert_eq!(dict.code("b"), Some(2));
        assert_eq!(dict.label(0), Some(""));
        assert_eq!(dict.code("zzz"), None);
        assert_eq!(col.domain(), 3);

        // same claims, different arrival order -> identical codes
        let mut b = TableBuilder::new(schema);
        b.add(ObjectId(1), gate, SourceId(0), Value::Text("a".into()))
            .unwrap();
        b.add(ObjectId(0), gate, SourceId(1), Value::Text("".into()))
            .unwrap();
        b.add(ObjectId(0), gate, SourceId(0), Value::Text("b".into()))
            .unwrap();
        let t2 = b.build().unwrap();
        let c2 = ColumnarTable::build(&t2).unwrap().0;
        let PropertyColumn::Coded(col2) = c2.column(0) else {
            panic!("text property must be coded");
        };
        assert_eq!(col2.dictionary().unwrap().labels, dict.labels);
    }

    #[test]
    fn nan_and_infinite_claims_rejected_at_build() {
        let (schema, temp, _) = mixed_schema();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let claims = vec![Claim {
                object: ObjectId(0),
                property: temp,
                source: SourceId(0),
                value: Value::Num(bad),
            }];
            let table = ObservationTable::from_claims(schema.clone(), claims).unwrap();
            let err = ColumnarTable::build(&table).unwrap_err();
            assert!(
                matches!(err, CrhError::NonFiniteValue { property, .. } if property == temp),
                "{bad} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn type_mixed_property_degrades_to_row_path() {
        let (schema, temp, cond) = mixed_schema();
        let claims = vec![
            Claim {
                object: ObjectId(0),
                property: temp,
                source: SourceId(0),
                value: Value::Num(1.0),
            },
            Claim {
                object: ObjectId(1),
                property: temp,
                source: SourceId(0),
                value: Value::Cat(7), // type confusion, only possible via from_claims
            },
            Claim {
                object: ObjectId(0),
                property: cond,
                source: SourceId(0),
                value: Value::Cat(0),
            },
        ];
        let table = ObservationTable::from_claims(schema, claims).unwrap();
        let col = ColumnarTable::build(&table).unwrap().0;
        assert!(matches!(
            col.column(temp.index()),
            PropertyColumn::Mixed { .. }
        ));
        assert_eq!(col.column(temp.index()).rows().len(), 2);
        assert!(matches!(col.column(cond.index()), PropertyColumn::Coded(_)));
    }

    #[test]
    fn overflow_guard_reports_typed_error() {
        let err = checked_code(MISSING_CODE as usize, "unit test codes").unwrap_err();
        assert_eq!(
            err,
            CrhError::CapacityExceeded {
                what: "unit test codes",
                limit: MISSING_CODE as u64,
            }
        );
        assert!(err.to_string().contains("unit test codes"));
        assert_eq!(checked_code(0, "x").unwrap(), 0);
        assert_eq!(
            checked_code(MISSING_CODE as usize - 1, "x").unwrap(),
            u32::MAX - 1
        );
    }

    #[test]
    fn huge_cat_ids_fall_back_to_generic_class() {
        use crate::loss::default_loss_for;
        let (schema, _, cond) = mixed_schema();
        let claims = vec![Claim {
            object: ObjectId(0),
            property: cond,
            source: SourceId(0),
            value: Value::Cat(5_000_000), // far past DENSE_DOMAIN_CAP
        }];
        let table = ObservationTable::from_claims(schema, claims).unwrap();
        let losses: Vec<Arc<dyn Loss>> = table
            .schema()
            .properties()
            .map(|(_, d)| Arc::from(default_loss_for(d.ptype)))
            .collect();
        let plan = ColumnarPlan::new(&table, &losses).unwrap().0;
        assert_eq!(plan.class[cond.index()], KernelClass::Generic);
    }

    #[test]
    fn plan_resolves_fast_classes_for_default_losses() {
        use crate::loss::default_loss_for;
        let (schema, temp, cond) = mixed_schema();
        let mut b = TableBuilder::new(schema);
        b.add(ObjectId(0), temp, SourceId(0), Value::Num(1.0))
            .unwrap();
        b.add_label(ObjectId(0), cond, SourceId(0), "dry").unwrap();
        let table = b.build().unwrap();
        let losses: Vec<Arc<dyn Loss>> = table
            .schema()
            .properties()
            .map(|(_, d)| Arc::from(default_loss_for(d.ptype)))
            .collect();
        let plan = ColumnarPlan::new(&table, &losses).unwrap().0;
        // paper defaults: absolute (median) for continuous, 0-1 (vote) for
        // categorical
        assert_eq!(plan.class[temp.index()], KernelClass::Median);
        assert_eq!(plan.class[cond.index()], KernelClass::Vote);
    }

    /// A `Num` column over `rows` (`None` = missing slot), presorted the
    /// way the plan presorts median columns.
    fn presorted_column(rows: &[Vec<Option<f64>>], k: usize) -> NumColumn {
        let mut col = NumColumn {
            rows: (0..rows.len() as u32).collect(),
            values: vec![0.0; rows.len() * k],
            valid: Bitmap::zeroed(rows.len(), k),
            order: Vec::new(),
        };
        for (r, row) in rows.iter().enumerate() {
            for (s, v) in row.iter().enumerate() {
                if let Some(x) = *v {
                    col.values[r * k + s] = x;
                    col.valid.set(r, s);
                }
            }
        }
        col.presort(k);
        col
    }

    #[test]
    fn presort_equals_stable_total_cmp_sort() {
        use crate::rng::{Pcg64, Rng};
        // ties, both zeros, subnormals and extremes: every class of value
        // whose total order differs from a naive comparison
        let pool = [
            -0.0,
            0.0,
            1.0,
            1.0,
            -1.0,
            2.5,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            -1e300,
        ];
        let mut rng = Pcg64::seed_from_u64(0x9E5087);
        for k in [1usize, 2, 9, 63, 64, 65, 70, 130] {
            let mut rows: Vec<Vec<Option<f64>>> = vec![vec![None; k]];
            for _ in 0..300 {
                let density = rng.next_u64() % 5;
                rows.push(
                    (0..k)
                        .map(|_| {
                            (rng.next_u64() % 4 < density)
                                .then(|| pool[(rng.next_u64() % pool.len() as u64) as usize])
                        })
                        .collect(),
                );
            }
            rows.push(vec![Some(-0.0); k]);
            rows.push((0..k).map(|s| Some([0.0, -0.0][s % 2])).collect());
            let col = presorted_column(&rows, k);
            for (r, row) in rows.iter().enumerate() {
                let mut want: Vec<u32> = (0..k as u32)
                    .filter(|&s| row[s as usize].is_some())
                    .collect();
                let x = |s: u32| row[s as usize].unwrap_or(0.0);
                want.sort_by(|&a, &b| x(a).total_cmp(&x(b)));
                assert_eq!(col.order_row(r, k), want.as_slice(), "k={k} row={r}");
            }
        }
    }

    #[test]
    fn build_error_precedence_follows_entry_order() {
        let mut schema = Schema::new();
        let temp = schema.add_continuous("temp");
        let hum = schema.add_continuous("hum");
        let cond = schema.add_categorical("cond");
        let claim = |object: u32, property, source: u32, value| Claim {
            object: ObjectId(object),
            property,
            source: SourceId(source),
            value,
        };
        let build = |claims: Vec<Claim>| {
            ColumnarTable::build(&ObservationTable::from_claims(schema.clone(), claims).unwrap())
                .map(|(columnar, _)| columnar)
        };

        // a NaN inside a type-mixed property degrades to Mixed, whether
        // the NaN comes before or after the type confusion
        for (nan_obj, cat_obj) in [(0, 1), (1, 0)] {
            let col = build(vec![
                claim(nan_obj, temp, 0, Value::Num(f64::NAN)),
                claim(cat_obj, temp, 0, Value::Cat(3)),
                claim(0, hum, 0, Value::Num(1.0)),
            ])
            .unwrap();
            assert!(matches!(
                col.column(temp.index()),
                PropertyColumn::Mixed { .. }
            ));
            assert!(matches!(col.column(hum.index()), PropertyColumn::Num(_)));
        }

        // a NaN in a Num column is that property's error, even with a
        // type-mixed property ahead of it in entry order
        let err = build(vec![
            claim(0, temp, 0, Value::Num(f64::INFINITY)),
            claim(0, temp, 1, Value::Cat(2)),
            claim(1, hum, 0, Value::Num(2.0)),
            claim(1, hum, 1, Value::Num(f64::NAN)),
        ])
        .unwrap_err();
        assert!(
            matches!(err, CrhError::NonFiniteValue { property, value } if property == hum && value.is_nan()),
            "{err:?}"
        );

        // two failing properties: the first failing entry wins, and inside
        // that entry the first failing source
        let err = build(vec![
            claim(1, temp, 0, Value::Num(f64::NAN)),
            claim(0, hum, 2, Value::Num(f64::NAN)),
            claim(0, hum, 1, Value::Num(f64::NEG_INFINITY)),
            claim(0, hum, 0, Value::Num(3.0)),
        ])
        .unwrap_err();
        assert!(
            matches!(err, CrhError::NonFiniteValue { property, value } if property == hum && value == f64::NEG_INFINITY),
            "{err:?}"
        );
        let err = build(vec![
            claim(0, temp, 0, Value::Num(f64::INFINITY)),
            claim(1, hum, 0, Value::Num(f64::NAN)),
        ])
        .unwrap_err();
        assert!(
            matches!(err, CrhError::NonFiniteValue { property, value } if property == temp && value == f64::INFINITY),
            "{err:?}"
        );
        // an out-of-range code and a non-finite value: entry order again
        let err = build(vec![
            claim(1, temp, 0, Value::Num(f64::NAN)),
            claim(0, cond, 0, Value::Cat(MISSING_CODE)),
        ])
        .unwrap_err();
        assert!(matches!(err, CrhError::CapacityExceeded { .. }), "{err:?}");
        let err = build(vec![
            claim(0, temp, 0, Value::Num(f64::NAN)),
            claim(0, cond, 0, Value::Cat(MISSING_CODE)),
        ])
        .unwrap_err();
        assert!(
            matches!(err, CrhError::NonFiniteValue { property, .. } if property == temp),
            "{err:?}"
        );
    }

    #[test]
    fn dictionary_capacity_guard() {
        // Dictionary::build can't realistically see 2^32 strings; the
        // shared guard is exercised directly instead.
        assert!(checked_code(u32::MAX as usize + 1, "dict").is_err());
        let d = Dictionary::build(["x", "x", "y"]).unwrap();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(Dictionary::build([]).unwrap().len(), 0);
    }
}
