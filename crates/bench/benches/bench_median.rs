//! Ablation: weighted median (Eq 16) vs weighted mean (Eq 14) truth
//! updates — the robustness-for-speed trade-off of §2.4.2 — and the
//! median's sort-per-call form vs the linear scan over an order sorted
//! once, which is what the columnar solver runs on every iteration.

use std::hint::black_box;

use crh_bench::microbench::Harness;
use crh_core::ids::SourceId;
use crh_core::loss::{weighted_median, weighted_median_scan, AbsoluteLoss, Loss, SquaredLoss};
use crh_core::stats::EntryStats;
use crh_core::value::Value;

fn bench_median(c: &mut Harness) {
    let mut g = c.benchmark_group("weighted_median");
    for n in [8usize, 64, 512, 4096] {
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|i| (((i * 2654435761) % 1000) as f64, 0.1 + (i % 10) as f64))
            .collect();
        // sort-based: every call re-sorts a fresh copy of the pairs
        let mut buf = pairs.clone();
        g.bench_function(format!("median/{n}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(black_box(&pairs));
                weighted_median(&mut buf)
            })
        });
        // presorted: the value order is built once, each call folds the
        // total in source order and scans the order linearly
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| pairs[a as usize].0.total_cmp(&pairs[b as usize].0));
        g.bench_function(format!("presorted_scan/{n}"), |b| {
            b.iter(|| {
                let pairs = black_box(&pairs);
                let total = pairs.iter().fold(0.0, |t, p| t + p.1);
                weighted_median_scan(order.len(), total, |i| pairs[order[i] as usize])
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("truth_update");
    for n in [8usize, 64, 512] {
        let obs: Vec<(SourceId, Value)> = (0..n)
            .map(|i| (SourceId(i as u32), Value::Num(((i * 7) % 100) as f64)))
            .collect();
        let weights: Vec<f64> = (0..n).map(|i| 0.1 + (i % 5) as f64).collect();
        let stats = EntryStats::trivial();
        g.bench_function(format!("weighted_median_fit/{n}"), |b| {
            b.iter(|| AbsoluteLoss.fit(black_box(&obs), &weights, &stats))
        });
        g.bench_function(format!("weighted_mean_fit/{n}"), |b| {
            b.iter(|| SquaredLoss.fit(black_box(&obs), &weights, &stats))
        });
    }
    g.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_median(&mut h);
}
