//! Golden digests of the seeded MapReduce fault schedule.
//!
//! Every chaos test replays a `FaultPlan` by seed, so the fates a seed
//! draws are part of the contract: a refactor of the draw must leave
//! them bit-identical. This test hashes the fate of every attempt over a
//! fixed `(job, phase, task, attempt)` grid for two seeds and two plan
//! shapes, and compares against constants recorded from the original
//! implementation.

use std::time::Duration;

use crh_core::persist::digest64;
use crh_mapreduce::{AttemptFate, FaultInjector, FaultPlan, Phase};

fn push(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn digest(plan: FaultPlan) -> u64 {
    let inj = FaultInjector::new(plan);
    let mut buf = Vec::new();
    for job in 0..4 {
        for phase in [Phase::Map, Phase::Reduce] {
            for task in 0..25 {
                for attempt in 0..4 {
                    match inj.fate(job, phase, task, attempt) {
                        AttemptFate::Healthy => push(&mut buf, 0),
                        AttemptFate::Panic => push(&mut buf, 1),
                        AttemptFate::Stall(d) => {
                            push(&mut buf, 2);
                            push(&mut buf, d.as_nanos() as u64);
                        }
                        AttemptFate::DieMidWork(k) => {
                            push(&mut buf, 3);
                            push(&mut buf, k);
                        }
                    }
                }
            }
        }
    }
    digest64(&buf)
}

fn mixed(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .panics(0.2)
        .stalls(0.15, Duration::from_millis(7))
        .dies_mid_work(0.25)
        .fault_free_after(3)
}

#[test]
fn mapreduce_fates_match_golden_digests() {
    let got = [
        digest(mixed(3)),
        digest(mixed(2024)),
        digest(mixed(3).only_jobs(1..3)),
        digest(FaultPlan {
            max_work_before_death: 3,
            ..FaultPlan::new(2024).dies_mid_work(0.5).panics(0.1)
        }),
    ];
    let want: [u64; 4] = [
        0xd39c_d355_fa24_8178,
        0xc48a_ed0e_85f1_db42,
        0x7432_a10b_8deb_2a91,
        0x0fbb_9aea_dbcf_85e7,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
