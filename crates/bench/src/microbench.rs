//! A small self-contained micro-benchmark harness.
//!
//! The `benches/` targets used to run under Criterion; the workspace now
//! builds fully offline with zero external dependencies, so this module
//! supplies the minimal surface those benches need: named groups,
//! calibrated sample loops, median/mean-of-samples reporting, and
//! optional element throughput. It is deliberately not a statistics
//! package — results are for relative comparison between neighbouring
//! rows of the same run.
//!
//! Set `CRH_BENCH_QUICK=1` to run each benchmark for a few milliseconds
//! only (used by CI to smoke-test the bench targets).
//!
//! Set `CRH_BENCH_JSON=<path>` to additionally write every result as a
//! machine-readable JSON document when the harness is dropped — this is
//! how CI captures `BENCH_*.json` artifacts without a second bench run.
//! Every document records the host's core count (`"cores"`), so a number
//! is never read without the hardware it came from.

#![expect(
    clippy::print_stdout,
    reason = "a bench harness's job is printing its report; stdout is the deliverable"
)]

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One measured benchmark, as written to the `CRH_BENCH_JSON` sink.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// The group the benchmark ran in.
    pub group: String,
    /// The benchmark id (e.g. `run/5000`).
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample in nanoseconds.
    pub max_ns: f64,
    /// Elements per iteration, when the group declared a throughput.
    pub elements: Option<u64>,
}

impl BenchRecord {
    /// Elements processed per second at the median, if known.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.elements
            .map(|n| n as f64 / (self.median_ns / 1_000_000_000.0))
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"group\":{},\"id\":{},\"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1}",
            json_str(&self.group),
            json_str(&self.id),
            self.median_ns,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
        );
        if let Some(n) = self.elements {
            s.push_str(&format!(
                ",\"elements\":{n},\"elems_per_sec\":{:.2}",
                self.elems_per_sec().unwrap()
            ));
        }
        s.push('}');
        s
    }
}

/// A scalar metric recorded alongside the timing records (a measured
/// crossover size, a speedup ratio, a core count) so the JSON artifact can
/// pin derived facts, not just raw timings.
#[derive(Debug, Clone)]
pub struct MetricRecord {
    /// The group the metric belongs to.
    pub group: String,
    /// The metric name (e.g. `columnar_crossover_objects`).
    pub id: String,
    /// The measured value.
    pub value: f64,
}

impl MetricRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"group\":{},\"id\":{},\"value\":{}}}",
            json_str(&self.group),
            json_str(&self.id),
            if self.value.is_finite() {
                format!("{:.4}", self.value)
            } else {
                "null".to_string()
            }
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Top-level harness; one per bench binary.
#[derive(Debug, Default)]
pub struct Harness {
    quick: bool,
    json_path: Option<PathBuf>,
    records: Vec<BenchRecord>,
    metrics: Vec<MetricRecord>,
}

/// Throughput annotation for a group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Number of logical elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier of the form `name/parameter`.
#[derive(Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `BenchmarkId::new("run", 5000)` displays as `run/5000`.
    pub fn new(name: &str, param: impl Display) -> Self {
        Self(format!("{name}/{param}"))
    }
}

/// Anchor a relative `CRH_BENCH_JSON` path at the **workspace** root.
///
/// `cargo bench` runs the bench binary with the *package* directory as its
/// working directory, but the pinned artifacts (`BENCH_*.json`) live at the
/// workspace root and CI uploads them from there. Walking `ancestors()` of
/// `CARGO_MANIFEST_DIR` and keeping the outermost directory that still has
/// a `Cargo.toml` finds the workspace root without parsing any manifests.
fn resolve_sink(path: PathBuf) -> PathBuf {
    if path.is_absolute() {
        return path;
    }
    let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") else {
        return path;
    };
    let manifest = PathBuf::from(manifest);
    let root = manifest
        .ancestors()
        .filter(|a| a.join("Cargo.toml").is_file())
        .last()
        .unwrap_or(&manifest);
    root.join(path)
}

impl Harness {
    /// Build a harness, honouring `CRH_BENCH_QUICK` and `CRH_BENCH_JSON`.
    /// Relative sink paths are resolved against the workspace root, not the
    /// package directory `cargo bench` runs from.
    pub fn from_env() -> Self {
        Self {
            quick: std::env::var("CRH_BENCH_QUICK").is_ok_and(|v| v != "0"),
            json_path: std::env::var_os("CRH_BENCH_JSON")
                .map(PathBuf::from)
                .map(resolve_sink),
            records: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Whether `CRH_BENCH_QUICK` smoke mode is active — benches use this
    /// to skip their largest inputs and perf gates.
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// Record a derived scalar metric into the report and the JSON sink.
    pub fn record_metric(&mut self, group: impl Into<String>, id: impl Into<String>, value: f64) {
        let (group, id) = (group.into(), id.into());
        println!("  metric {group}/{id} = {value:.4}");
        self.metrics.push(MetricRecord { group, id, value });
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &[MetricRecord] {
        &self.metrics
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        Group {
            quick: self.quick,
            sample_size: 20,
            throughput: None,
            group_name: name,
            harness: self,
        }
    }

    /// The results recorded so far (populated regardless of the JSON sink).
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    fn render_json(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = format!("{{\"schema\":\"crh-microbench-v1\",\"cores\":{cores},\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("],\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&m.to_json());
        }
        out.push_str("]}\n");
        out
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(path) = &self.json_path {
            match std::fs::write(path, self.render_json()) {
                Ok(()) => println!(
                    "\nwrote {} records to {}",
                    self.records.len(),
                    path.display()
                ),
                Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
            }
        }
    }
}

/// A group of benchmarks sharing sample settings, mirroring the
/// Criterion group API the benches were written against.
#[derive(Debug)]
pub struct Group<'a> {
    quick: bool,
    sample_size: usize,
    throughput: Option<u64>,
    group_name: String,
    // exclusive borrow: groups cannot interleave, and results flow back
    // to the harness for the JSON sink
    harness: &'a mut Harness,
}

/// Passed to each benchmark closure; `iter` runs the measured loop.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` calls of `f`.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn fmt_duration(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.3} s ", ns / 1_000_000_000.0)
    }
}

impl Group<'_> {
    /// Number of samples per benchmark (each sample is a calibrated loop).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotate subsequent benchmarks with per-iteration element counts;
    /// the report adds an elements/s column.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        let Throughput::Elements(n) = t;
        self.throughput = Some(n);
        self
    }

    /// Run one benchmark: calibrate an iteration count, take samples,
    /// report median / mean / spread per iteration.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let target = if self.quick {
            Duration::from_millis(2)
        } else {
            Duration::from_millis(40)
        };
        let samples = if self.quick { 3 } else { self.sample_size };

        // calibrate: double the loop until one sample is long enough to
        // drown out timer noise
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        loop {
            f(&mut b);
            if b.elapsed >= target || b.iters >= 1 << 30 {
                break;
            }
            b.iters *= 2;
        }

        let mut per_iter_ns: Vec<f64> = (0..samples)
            .map(|_| {
                f(&mut b);
                b.elapsed.as_nanos() as f64 / b.iters as f64
            })
            .collect();
        per_iter_ns.sort_by(f64::total_cmp);
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        let min = per_iter_ns[0];
        let max = per_iter_ns[per_iter_ns.len() - 1];

        let mut line = format!(
            "{:<34} median {}   mean {}   [{} .. {}]",
            id.to_string(),
            fmt_duration(median),
            fmt_duration(mean),
            fmt_duration(min).trim_start(),
            fmt_duration(max).trim_start(),
        );
        if let Some(elems) = self.throughput {
            let eps = elems as f64 / (median / 1_000_000_000.0);
            line.push_str(&format!("   {:.2} Melem/s", eps / 1e6));
        }
        println!("  {line}");

        self.harness.records.push(BenchRecord {
            group: self.group_name.clone(),
            id: id.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
            elements: self.throughput,
        });
    }

    /// Criterion-style parameterized benchmark; the input is simply
    /// passed back to the closure.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.bench_function(id.0.as_str(), |b| f(b, input));
    }

    /// End the group (kept for source compatibility; reporting is eager).
    pub fn finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_covers_all_ranges() {
        assert!(fmt_duration(12.0).contains("ns"));
        assert!(fmt_duration(12_500.0).contains("µs"));
        assert!(fmt_duration(12_500_000.0).contains("ms"));
        assert!(fmt_duration(2.5e9).contains('s'));
    }

    #[test]
    fn relative_sink_paths_anchor_at_the_workspace_root() {
        // Under `cargo test` CARGO_MANIFEST_DIR is this package's dir;
        // the workspace root is its outermost Cargo.toml-bearing ancestor.
        let resolved = resolve_sink(PathBuf::from("BENCH_core.json"));
        assert!(resolved.is_absolute(), "resolved: {}", resolved.display());
        let root = resolved.parent().unwrap();
        assert!(
            root.join("Cargo.toml").is_file(),
            "sink parent must be a crate root: {}",
            root.display()
        );
        assert!(
            !root.ends_with("crates/bench"),
            "sink must not land in the package dir: {}",
            root.display()
        );
        // absolute paths pass through untouched
        let abs = std::env::temp_dir().join("x.json");
        assert_eq!(resolve_sink(abs.clone()), abs);
    }

    #[test]
    fn bencher_measures_something() {
        let mut h = Harness {
            quick: true,
            json_path: None,
            records: Vec::new(),
            metrics: Vec::new(),
        };
        let mut g = h.benchmark_group("smoke");
        let mut ran = false;
        g.bench_function("noop", |b| {
            ran = true;
            b.iter(|| 1 + 1)
        });
        g.finish();
        assert!(ran);
        assert_eq!(h.records().len(), 1);
        assert_eq!(h.records()[0].group, "smoke");
        assert_eq!(h.records()[0].id, "noop");
        assert!(h.records()[0].median_ns >= 0.0);
    }

    #[test]
    fn json_sink_writes_valid_records_on_drop() {
        let path = std::env::temp_dir().join(format!("crh_bench_json_{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        {
            let mut h = Harness {
                quick: true,
                json_path: Some(path.clone()),
                records: Vec::new(),
                metrics: Vec::new(),
            };
            let mut g = h.benchmark_group("io \"quoted\"");
            g.throughput(Throughput::Elements(100));
            g.bench_function("write/1", |b| b.iter(|| 2 * 2));
            g.finish();
            h.record_metric("io \"quoted\"", "crossover", 2500.0);
        } // drop writes the file
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\":\"crh-microbench-v1\""));
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(
            json.contains(&format!("\"cores\":{cores},")),
            "the host core count must land in every artifact: {json}"
        );
        assert!(json.contains("\"id\":\"write/1\""));
        assert!(
            json.contains("\\\"quoted\\\""),
            "quotes must be escaped: {json}"
        );
        assert!(json.contains("\"elements\":100"));
        assert!(json.contains("\"elems_per_sec\":"));
        assert!(
            json.contains("\"id\":\"crossover\",\"value\":2500.0000"),
            "metrics must land in the sink: {json}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_are_recorded_and_non_finite_values_serialize_as_null() {
        let mut h = Harness::default();
        h.record_metric("g", "speedup", 1.75);
        h.record_metric("g", "crossover", f64::NAN);
        assert_eq!(h.metrics().len(), 2);
        assert_eq!(h.metrics()[0].value, 1.75);
        let json = h.render_json();
        assert!(json.contains("\"id\":\"speedup\",\"value\":1.7500"));
        assert!(json.contains("\"id\":\"crossover\",\"value\":null"));
    }
}
