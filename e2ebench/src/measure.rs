//! Timing: the closed measurement loop, order statistics, per-layer
//! spans and the result line.

use std::time::{Duration, Instant};

/// What one workload run produced. Every time is kept twice: as
/// measured, and scaled to the reference host's speed by the calibration
/// run just before it (see [`Calibrator`] and [`report`]).
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations started in the timed loop.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Claims carried by the successful operations.
    pub claims: u64,
    /// Latency of each successful operation in milliseconds, scaled.
    latencies_ms: Vec<f64>,
    /// The same latencies as measured.
    wall_ms: Vec<f64>,
    /// Seconds of each cold set-up, scaled.
    setups_s: Vec<f64>,
    /// The same set-ups as measured.
    wall_setups_s: Vec<f64>,
    /// Per-layer time, scaled; filled only by a traced run.
    trace: Trace,
    calibrator: Calibrator,
    /// Host-speed factor of each calibration run.
    factors: Vec<f64>,
    /// Whether the factors are applied; without, scaled equals measured.
    scaled: bool,
    /// When the first set-up started.
    first_setup: Option<Instant>,
}

impl Outcome {
    /// An empty outcome; `scaled` says whether times are scaled to the
    /// reference host's speed.
    pub fn new(scaled: bool) -> Self {
        Self {
            correct: false,
            attempted: 0,
            failed: 0,
            claims: 0,
            latencies_ms: Vec::new(),
            wall_ms: Vec::new(),
            setups_s: Vec::new(),
            wall_setups_s: Vec::new(),
            trace: Trace::default(),
            calibrator: Calibrator::new(),
            factors: Vec::new(),
            scaled,
            first_setup: None,
        }
    }

    /// Run the calibration kernel; returns the factor to apply.
    fn calibrate(&mut self) -> f64 {
        let f = REFERENCE_CALIBRATION_S / self.calibrator.run();
        self.factors.push(f);
        if self.scaled {
            f
        } else {
            1.0
        }
    }

    /// Whether another set-up is due: there are at least `MIN_SETUPS`,
    /// and more until `SETUP_SECONDS` have passed since the first, so the
    /// median of a fast set-up rests on many of them.
    pub fn setup_due(&self) -> bool {
        self.setups_s.len() < MIN_SETUPS
            || self.first_setup.is_none_or(|t| t.elapsed() < SETUP_SECONDS)
    }

    /// Set-ups timed so far.
    pub fn setups(&self) -> usize {
        self.setups_s.len()
    }

    /// Time one cold set-up.
    pub fn time_setup<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        self.first_setup.get_or_insert_with(Instant::now);
        let factor = self.calibrate();
        let t = Instant::now();
        let r = f()?;
        let wall = t.elapsed().as_secs_f64();
        self.wall_setups_s.push(wall);
        self.setups_s.push(wall * factor);
        Ok(r)
    }
}

/// Run `op(i, trace)` for `i = first, first + 1, …` until `seconds` have
/// passed, with a calibration before each operation that starts
/// `CALIBRATE_EVERY` or more after the last one. Each operation times
/// itself and returns `(latency, claims)`, so the unmeasured preparation
/// and checking around it stay out of the figures; a traced operation
/// adds its spans to `trace`.
pub fn closed_loop<F>(seconds: u64, first: usize, out: &mut Outcome, mut op: F)
where
    F: FnMut(usize, &mut Trace) -> Result<(Duration, u64), String>,
{
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut i = first;
    let mut factor = out.calibrate();
    let mut last_cal = Instant::now();
    while start.elapsed() < budget {
        if last_cal.elapsed() >= CALIBRATE_EVERY {
            factor = out.calibrate();
            last_cal = Instant::now();
        }
        out.attempted += 1;
        let mut trace = Trace::default();
        match op(i, &mut trace) {
            Ok((lat, claims)) => {
                let ms = lat.as_secs_f64() * 1e3;
                out.wall_ms.push(ms);
                out.latencies_ms.push(ms * factor);
                out.trace.add_scaled(&trace, factor);
                out.claims += claims;
            }
            Err(e) => {
                if out.failed < 5 {
                    eprintln!("operation {i} failed: {e}");
                }
                out.failed += 1;
            }
        }
        i += 1;
    }
}

/// Set-ups per run: at least this many, and more until `SETUP_SECONDS`.
const MIN_SETUPS: usize = 15;
const SETUP_SECONDS: Duration = Duration::from_millis(500);
/// How often the timed loop runs the calibration kernel: before every
/// operation of 2 ms or more, and every few of the shorter ones.
const CALIBRATE_EVERY: Duration = Duration::from_millis(2);
/// One calibration run's duration on the reference host (a 2-vCPU Xeon
/// VM); times are reported at that host's speed.
const REFERENCE_CALIBRATION_S: f64 = 130e-6;
/// Timed passes per calibration run; the fastest counts.
const CALIBRATION_PASSES: usize = 3;
/// Tuples the calibration kernel sorts: 64 KiB, resident in L2.
const CALIBRATION_LEN: usize = 4096;

/// A fixed piece of CPU work — copy and sort 4 096 tuples, then reduce —
/// whose duration tracks how fast the host runs right now. It shares no
/// code with the program and does not depend on the program's state:
/// both buffers are allocated and filled once, the sort allocates
/// nothing, and an untimed pass before the timed ones brings the buffers
/// back into cache after whatever the operation before it touched. The
/// fastest of the timed passes counts, so an interrupt during one drops
/// out.
struct Calibrator {
    input: Vec<(u32, u32, f64)>,
    work: Vec<(u32, u32, f64)>,
}

impl Calibrator {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let input: Vec<_> = (0..CALIBRATION_LEN)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 40) as u32, (x >> 20) as u32 & 0xfff, x as f64)
            })
            .collect();
        let mut c = Self {
            work: input.clone(),
            input,
        };
        c.pass();
        c
    }

    fn pass(&mut self) -> f64 {
        self.work.copy_from_slice(std::hint::black_box(&self.input));
        self.work.sort_unstable_by_key(|e| (e.0, e.1));
        self.work.iter().step_by(7).map(|e| e.2).sum()
    }

    /// Seconds of the fastest timed pass.
    fn run(&mut self) -> f64 {
        std::hint::black_box(self.pass());
        (0..CALIBRATION_PASSES)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.pass());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Time `f`, adding the elapsed seconds to `acc`.
pub fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Accumulated busy seconds per layer over a traced run. The benchmark
/// opens a span around each call into a layer; layers a workload never
/// enters stay at zero.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// `ObservationTable::from_claims`: grouping and sorting the claims.
    pub table_build: f64,
    /// `PreparedProblem::new`: losses, entry stats and the columnar plan.
    pub plan_build: f64,
    /// Fused truth fit + deviation sweeps.
    pub fit_dev: f64,
    /// Per-source losses, weight assignment and the objective.
    pub weight_update: f64,
    /// Encoding and decoding the ingest and read frames.
    pub wire_codec: f64,
    /// WAL append + fsync of one ingest record.
    pub wal_append: f64,
    /// Client-side round trip of the ingest request.
    pub ingest_rtt: f64,
    /// Client-side round trip of the truth read.
    pub read_rtt: f64,
    /// Fused fit + deviation sweeps performed.
    pub sweeps: u64,
}

impl Trace {
    fn stages(&self) -> f64 {
        self.table_build
            + self.plan_build
            + self.fit_dev
            + self.weight_update
            + self.wire_codec
            + self.wal_append
    }

    /// Add `other`'s times multiplied by `factor`, and its sweeps.
    fn add_scaled(&mut self, other: &Trace, factor: f64) {
        for (acc, x) in [
            (&mut self.table_build, other.table_build),
            (&mut self.plan_build, other.plan_build),
            (&mut self.fit_dev, other.fit_dev),
            (&mut self.weight_update, other.weight_update),
            (&mut self.wire_codec, other.wire_codec),
            (&mut self.wal_append, other.wal_append),
            (&mut self.ingest_rtt, other.ingest_rtt),
            (&mut self.read_rtt, other.read_rtt),
        ] {
            *acc += x * factor;
        }
        self.sweeps += other.sweeps;
    }
}

/// Print the result line: `correct`, `attempted`, `failed` and the
/// end-to-end metrics, or with `traced` the per-layer ones.
///
/// A shared host's speed drifts by tens of percent within seconds and
/// between minutes, more than any change worth measuring, so a scaled
/// outcome reports every time at the reference host's speed: each
/// operation, set-up and span multiplied by the factor of the
/// calibration run just before it. The raw wall-clock figures and the
/// median factor go to standard error, and a traced run reports its raw
/// mean, p50 and p95 next to the scaled layers.
pub fn report(out: &Outcome, traced: bool) {
    let wall = &out.wall_ms;
    let ops = wall.len().max(1) as f64;
    let wall_mean_ms = wall.iter().sum::<f64>() / ops;
    let host_scale = quantile(&out.factors, 0.5);
    eprintln!(
        "wall clock: p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms, mean {:.4} ms over {} operations, set-up {:.6} s; host scale {:.4} over {} calibrations; scaled p99 {:.4} ms",
        quantile(wall, 0.5),
        quantile(wall, 0.95),
        quantile(wall, 0.99),
        wall_mean_ms,
        wall.len(),
        quantile(&out.wall_setups_s, 0.5),
        host_scale,
        out.factors.len(),
        quantile(&out.latencies_ms, 0.99),
    );
    let lat = &out.latencies_ms;
    let busy_ms = lat.iter().sum::<f64>();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if traced {
        let t = &out.trace;
        let per_op = |s: f64| s * 1e3 / ops;
        metrics.extend([
            ("table_build_ms", per_op(t.table_build), "ms"),
            ("plan_build_ms", per_op(t.plan_build), "ms"),
            ("fit_dev_ms", per_op(t.fit_dev), "ms"),
            ("weight_update_ms", per_op(t.weight_update), "ms"),
            ("wire_codec_ms", per_op(t.wire_codec), "ms"),
            ("wal_append_ms", per_op(t.wal_append), "ms"),
            ("ingest_rtt_ms", per_op(t.ingest_rtt), "ms"),
            ("read_rtt_ms", per_op(t.read_rtt), "ms"),
            ("unattributed_ms", busy_ms / ops - per_op(t.stages()), "ms"),
            ("traced_op_ms", busy_ms / ops, "ms"),
            ("traced_op_wall_ms", wall_mean_ms, "ms"),
            ("wall_p50_ms", quantile(wall, 0.50), "ms"),
            ("wall_p95_ms", quantile(wall, 0.95), "ms"),
            ("sweeps_per_op", t.sweeps as f64 / ops, "count"),
        ]);
    } else {
        metrics.extend([
            ("p50_ms", quantile(lat, 0.50), "ms"),
            ("p95_ms", quantile(lat, 0.95), "ms"),
            ("claims_per_s", out.claims as f64 / (busy_ms / 1e3), "1/s"),
            ("setup_s", quantile(&out.setups_s, 0.5), "s"),
        ]);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; a metric that could not be measured
/// reads as null.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
