//! Out-of-core CRH: memory-bounded truth discovery over spill files.
//!
//! §2.6 motivates handling "huge data sets that can only tolerate one
//! sequential scan"; §2.7 handles scale with a cluster. This module covers
//! the third regime — a single machine whose *disk* holds the observations
//! but whose RAM cannot: claims are externally sorted by entry once
//! ([`ExternalSorter`]), then each CRH iteration is one sequential scan of
//! the sorted spill file. Peak memory is `O(K·M + largest entry group)`
//! regardless of the number of observations.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

use crh_core::error::{CrhError, Result};
use crh_core::ids::SourceId;
use crh_core::loss::{default_loss_for, Loss};
use crh_core::solver::{objective, source_losses, within_tol, PropertyNorm};
use crh_core::stats::entry_stats;
use crh_core::value::{PropertyType, Truth, Value};
use crh_core::weights::{LogMax, WeightAssigner};

use crate::external::{fresh_spill_path, read_exact_or_eof, Codec, ExternalSorter};

/// One observation tuple for the out-of-core pipeline: `(eID, v, sID)` plus
/// the entry's property (needed to pick the loss without an in-memory
/// table).
#[derive(Debug, Clone, PartialEq)]
pub struct OocClaim {
    /// Dense entry index.
    pub entry: u32,
    /// Property index of the entry.
    pub property: u32,
    /// Source id.
    pub source: u32,
    /// Claimed value.
    pub value: Value,
}

impl Eq for OocClaim {}

impl PartialOrd for OocClaim {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OocClaim {
    /// Sort key is `(entry, source)`; the value does not participate
    /// (duplicate `(entry, source)` pairs are deduplicated upstream).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.entry, self.source).cmp(&(other.entry, other.source))
    }
}

const TAG_CAT: u8 = 0;
const TAG_NUM: u8 = 1;
const TAG_TEXT: u8 = 2;

impl Codec for OocClaim {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.entry.to_le_bytes());
        buf.extend_from_slice(&self.property.to_le_bytes());
        buf.extend_from_slice(&self.source.to_le_bytes());
        match &self.value {
            Value::Cat(c) => {
                buf.push(TAG_CAT);
                buf.extend_from_slice(&c.to_le_bytes());
            }
            Value::Num(x) => {
                buf.push(TAG_NUM);
                buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::Text(t) => {
                buf.push(TAG_TEXT);
                let bytes = t.as_bytes();
                buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(bytes);
            }
        }
    }

    fn decode(r: &mut impl Read) -> io::Result<Option<Self>> {
        let Some(entry) = read_exact_or_eof::<4>(r)? else {
            return Ok(None);
        };
        let entry = u32::from_le_bytes(entry);
        let read4 = |r: &mut dyn Read| -> io::Result<[u8; 4]> {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            Ok(b)
        };
        let property = u32::from_le_bytes(read4(r)?);
        let source = u32::from_le_bytes(read4(r)?);
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let value = match tag[0] {
            TAG_CAT => Value::Cat(u32::from_le_bytes(read4(r)?)),
            TAG_NUM => {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                Value::Num(f64::from_le_bytes(b))
            }
            TAG_TEXT => {
                let len = u32::from_le_bytes(read4(r)?) as usize;
                let mut b = vec![0u8; len];
                r.read_exact(&mut b)?;
                Value::Text(
                    String::from_utf8(b)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
                )
            }
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown value tag {t}"),
                ))
            }
        };
        Ok(Some(Self {
            entry,
            property,
            source,
            value,
        }))
    }
}

/// A spill file of entry-sorted claims; deleted on drop. Built once, then
/// sequentially scanned by every CRH iteration.
pub struct SortedClaims {
    path: PathBuf,
    len: usize,
    num_sources: usize,
    num_properties: usize,
}

impl std::fmt::Debug for SortedClaims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortedClaims")
            .field("len", &self.len)
            .field("num_sources", &self.num_sources)
            .field("num_properties", &self.num_properties)
            .finish()
    }
}

impl Drop for SortedClaims {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl SortedClaims {
    /// Externally sort `claims` by entry into a single spill file, keeping
    /// at most `max_in_memory` claims buffered at any time.
    pub fn build(
        claims: impl IntoIterator<Item = OocClaim>,
        max_in_memory: usize,
    ) -> io::Result<Self> {
        let mut sorter = ExternalSorter::new(max_in_memory);
        let mut num_sources = 0usize;
        let mut num_properties = 0usize;
        let mut len = 0usize;
        for c in claims {
            num_sources = num_sources.max(c.source as usize + 1);
            num_properties = num_properties.max(c.property as usize + 1);
            len += 1;
            sorter.push(c)?;
        }
        let path = fresh_spill_path("sorted");
        let mut w = BufWriter::new(std::fs::File::create(&path)?);
        let mut buf = Vec::new();
        for rec in sorter.finish()? {
            let rec = rec?;
            buf.clear();
            rec.encode(&mut buf);
            w.write_all(&buf)?;
        }
        w.flush()?;
        Ok(Self {
            path,
            len,
            num_sources,
            num_properties,
        })
    }

    /// Number of claims.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no claims.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of sources (1 + max source id).
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of properties (1 + max property id).
    pub fn num_properties(&self) -> usize {
        self.num_properties
    }

    /// Sequentially scan entry groups: yields
    /// `(entry, property, Vec<(SourceId, Value)>)` in entry order.
    pub fn scan_groups(&self) -> io::Result<GroupIter> {
        Ok(GroupIter {
            reader: BufReader::new(std::fs::File::open(&self.path)?),
            pending: None,
            done: false,
        })
    }
}

/// Iterator over entry groups of a [`SortedClaims`] file.
pub struct GroupIter {
    reader: BufReader<std::fs::File>,
    pending: Option<OocClaim>,
    done: bool,
}

impl Iterator for GroupIter {
    type Item = io::Result<(u32, u32, Vec<(SourceId, Value)>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let first = match self.pending.take() {
            Some(c) => c,
            None => match OocClaim::decode(&mut self.reader) {
                Ok(Some(c)) => c,
                Ok(None) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            },
        };
        let entry = first.entry;
        let property = first.property;
        let mut group = vec![(SourceId(first.source), first.value)];
        loop {
            match OocClaim::decode(&mut self.reader) {
                Ok(Some(c)) if c.entry == entry => {
                    group.push((SourceId(c.source), c.value));
                }
                Ok(Some(c)) => {
                    self.pending = Some(c);
                    break;
                }
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        Some(Ok((entry, property, group)))
    }
}

/// Out-of-core CRH configuration.
pub struct OutOfCoreCrh {
    /// Claims kept in memory during the external sort.
    pub max_in_memory: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Relative objective-decrease tolerance.
    pub tol: f64,
    /// Cross-property normalization (§2.5).
    pub property_norm: PropertyNorm,
    /// Per-source observation-count normalization (§2.5).
    pub count_normalize: bool,
    assigner: Box<dyn WeightAssigner>,
    /// Property type per property index (drives the default loss choice).
    property_types: Vec<PropertyType>,
}

impl std::fmt::Debug for OutOfCoreCrh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutOfCoreCrh")
            .field("max_in_memory", &self.max_in_memory)
            .field("max_iters", &self.max_iters)
            .field("assigner", &self.assigner.name())
            .finish()
    }
}

/// Result of an out-of-core run (truths are delivered via the sink).
#[derive(Debug, Clone)]
pub struct OocResult {
    /// Final source weights.
    pub weights: Vec<f64>,
    /// Objective per iteration.
    pub objective_trace: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance criterion was met.
    pub converged: bool,
}

impl OutOfCoreCrh {
    /// Build for a schema given as property types (paper-default losses are
    /// picked per type: 0-1 vote, weighted median, edit distance).
    pub fn new(property_types: Vec<PropertyType>) -> Result<Self> {
        if property_types.is_empty() {
            return Err(CrhError::InvalidParameter(
                "need at least one property type".into(),
            ));
        }
        Ok(Self {
            max_in_memory: 1 << 20,
            max_iters: 50,
            tol: 1e-6,
            property_norm: PropertyNorm::SumToOne,
            count_normalize: true,
            assigner: Box::new(LogMax),
            property_types,
        })
    }

    /// Replace the weight assigner.
    pub fn weight_assigner(mut self, a: impl WeightAssigner + 'static) -> Self {
        self.assigner = Box::new(a);
        self
    }

    /// Set the external-sort memory budget (in records).
    pub fn max_in_memory(mut self, n: usize) -> Self {
        self.max_in_memory = n.max(1);
        self
    }

    /// Run CRH over `sorted`, delivering final truths through `sink`
    /// (called once per entry, in entry order, during the last scan).
    ///
    /// Algorithm 1 in [`Crh::run`](crh_core::solver::Crh::run)'s order: an
    /// uncounted first scan fits and prices the truths at weight 1, then
    /// each iteration is Step I plus one fit-and-price scan until
    /// [`within_tol`] holds. A run converged before its cap delivers its
    /// truths in one more scan.
    pub fn run(
        &self,
        sorted: &SortedClaims,
        mut sink: impl FnMut(u32, &Truth),
    ) -> Result<OocResult> {
        if sorted.is_empty() {
            return Err(CrhError::EmptyTable);
        }
        if sorted.num_properties() > self.property_types.len() {
            return Err(CrhError::InvalidParameter(format!(
                "claims reference {} properties but only {} types were declared",
                sorted.num_properties(),
                self.property_types.len()
            )));
        }
        let losses: Vec<Box<dyn Loss>> = self
            .property_types
            .iter()
            .map(|&t| default_loss_for(t))
            .collect();

        let mut weights = vec![1.0f64; sorted.num_sources()];
        let deliver = (self.max_iters == 0).then_some(&mut sink);
        let (mut dev, counts) = scan(sorted, &losses, &weights, deliver)?;
        let per_source = |dev: &[Vec<f64>]| {
            source_losses(dev, &counts, self.property_norm, self.count_normalize)
        };
        let mut trace: Vec<f64> = Vec::new();
        let mut converged = false;
        for it in 0..self.max_iters {
            weights = self.assigner.assign(&per_source(&dev));
            let last = it + 1 == self.max_iters;
            dev = scan(sorted, &losses, &weights, last.then_some(&mut sink))?.0;
            let f = objective(&weights, &per_source(&dev));
            let prev = trace.last().copied();
            trace.push(f);
            if prev.is_some_and(|prev| within_tol(prev, f, self.tol)) {
                converged = true;
                if !last {
                    scan(sorted, &losses, &weights, Some(&mut sink))?;
                }
                break;
            }
        }

        Ok(OocResult {
            weights,
            iterations: trace.len(),
            objective_trace: trace,
            converged,
        })
    }
}

/// One sequential scan of `sorted`: fit each entry group's truth under
/// `weights`, hand it to `sink` if given, and return the `M × K` deviation
/// matrix of those truths with each source's claim count.
fn scan(
    sorted: &SortedClaims,
    losses: &[Box<dyn Loss>],
    weights: &[f64],
    mut sink: Option<&mut impl FnMut(u32, &Truth)>,
) -> Result<(Vec<Vec<f64>>, Vec<usize>)> {
    let io_err = |e: io::Error| CrhError::InvalidParameter(format!("spill io: {e}"));
    let k = sorted.num_sources();
    let mut dev = vec![vec![0.0f64; k]; losses.len()];
    let mut counts = vec![0usize; k];
    let mut nums = Vec::new();
    for group in sorted.scan_groups().map_err(io_err)? {
        let (entry, property, obs) = group.map_err(io_err)?;
        let loss = &losses[property as usize];
        nums.clear();
        nums.extend(obs.iter().filter_map(|(_, v)| v.as_num()));
        // none of the default losses reads the categorical domain size
        let stats = entry_stats(&nums, obs.len(), 0);
        let truth = loss.fit(&obs, weights, &stats);
        let row = &mut dev[property as usize];
        for (s, v) in &obs {
            row[s.index()] += loss.loss(&truth, v, &stats);
            counts[s.index()] += 1;
        }
        if let Some(sink) = sink.as_mut() {
            sink(entry, &truth);
        }
    }
    Ok((dev, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crh_core::ids::EntryId;
    use crh_core::solver::CrhBuilder;
    use crh_core::table::ObservationTable;

    /// Flatten an in-memory table to OocClaims (shuffled to exercise the
    /// sort).
    fn to_claims(table: &ObservationTable) -> Vec<OocClaim> {
        let mut claims: Vec<OocClaim> = table
            .iter_claims()
            .map(|(e, s, v)| OocClaim {
                entry: e.0,
                property: table.entry(e).property.0,
                source: s.0,
                value: v.clone(),
            })
            .collect();
        // deterministic shuffle
        claims.sort_by_key(|c| (c.entry as u64 * 2654435761 + c.source as u64) % 997);
        claims
    }

    fn test_table() -> ObservationTable {
        use crh_core::ids::{ObjectId, SourceId};
        use crh_core::schema::Schema;
        use crh_core::table::TableBuilder;
        let mut schema = Schema::new();
        let t = schema.add_continuous("t");
        let c = schema.add_categorical("c");
        let mut b = TableBuilder::new(schema);
        for i in 0..25u32 {
            let truth = 50.0 + i as f64;
            b.add(ObjectId(i), t, SourceId(0), Value::Num(truth))
                .unwrap();
            b.add(ObjectId(i), t, SourceId(1), Value::Num(truth + 1.0))
                .unwrap();
            b.add(ObjectId(i), t, SourceId(2), Value::Num(truth + 30.0))
                .unwrap();
            b.add_label(ObjectId(i), c, SourceId(0), "x").unwrap();
            b.add_label(ObjectId(i), c, SourceId(1), "x").unwrap();
            b.add_label(ObjectId(i), c, SourceId(2), "y").unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn claim_codec_roundtrip() {
        for v in [
            Value::Cat(7),
            Value::Num(-1.25),
            Value::Text("gate A2 → B1".into()),
            Value::Text(String::new()),
        ] {
            let claim = OocClaim {
                entry: 3,
                property: 1,
                source: 9,
                value: v,
            };
            let mut buf = Vec::new();
            claim.encode(&mut buf);
            let mut r = buf.as_slice();
            let back = OocClaim::decode(&mut r).unwrap().unwrap();
            assert_eq!(back, claim);
            assert!(OocClaim::decode(&mut r).unwrap().is_none());
        }
    }

    #[test]
    fn sorted_claims_group_scan() {
        let table = test_table();
        let sorted = SortedClaims::build(to_claims(&table), 7).unwrap();
        assert_eq!(sorted.len(), table.num_observations());
        assert_eq!(sorted.num_sources(), 3);
        let mut entries_seen = 0;
        let mut prev = None;
        for g in sorted.scan_groups().unwrap() {
            let (entry, _prop, obs) = g.unwrap();
            if let Some(p) = prev {
                assert!(entry > p, "groups in ascending entry order");
            }
            prev = Some(entry);
            assert_eq!(obs.len(), 3);
            entries_seen += 1;
        }
        assert_eq!(entries_seen, table.num_entries());
    }

    #[test]
    fn out_of_core_matches_in_memory_crh() {
        let table = test_table();
        let in_mem = CrhBuilder::new().build().unwrap().run(&table).unwrap();

        let sorted = SortedClaims::build(to_claims(&table), 11).unwrap();
        let ooc = OutOfCoreCrh::new(vec![PropertyType::Continuous, PropertyType::Categorical])
            .unwrap()
            .max_in_memory(11);
        let mut truths = std::collections::HashMap::new();
        let res = ooc
            .run(&sorted, |entry, truth| {
                truths.insert(entry, truth.point());
            })
            .unwrap();

        for (a, b) in res.weights.iter().zip(&in_mem.weights) {
            assert!(
                (a - b).abs() < 1e-9,
                "{:?} vs {:?}",
                res.weights,
                in_mem.weights
            );
        }
        assert_eq!(truths.len(), table.num_entries());
        for (e, t) in in_mem.truths.iter() {
            let ours = &truths[&(e.0)];
            assert!(t.point().matches(ours), "entry {e}");
        }
        let _ = EntryId(0);
    }

    #[test]
    fn empty_claims_rejected() {
        let sorted = SortedClaims::build(Vec::new(), 4).unwrap();
        let ooc = OutOfCoreCrh::new(vec![PropertyType::Continuous]).unwrap();
        assert!(ooc.run(&sorted, |_, _| {}).is_err());
    }

    #[test]
    fn undeclared_property_rejected() {
        let table = test_table();
        let sorted = SortedClaims::build(to_claims(&table), 64).unwrap();
        let ooc = OutOfCoreCrh::new(vec![PropertyType::Continuous]).unwrap();
        assert!(ooc.run(&sorted, |_, _| {}).is_err());
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let table = test_table();
        let path;
        {
            let sorted = SortedClaims::build(to_claims(&table), 8).unwrap();
            path = sorted.path.clone();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn converges_with_generous_iteration_cap() {
        let table = test_table();
        let sorted = SortedClaims::build(to_claims(&table), 1024).unwrap();
        let ooc =
            OutOfCoreCrh::new(vec![PropertyType::Continuous, PropertyType::Categorical]).unwrap();
        let mut n = 0;
        let res = ooc.run(&sorted, |_, _| n += 1).unwrap();
        assert!(res.converged);
        assert_eq!(n, table.num_entries(), "sink fires exactly once per entry");
        assert!(res.objective_trace.len() >= 2);
    }
}
