//! Golden digests of the seeded serve, link and shard fault schedules
//! (the disk schedule's digest sits beside its private draw in `vfs.rs`).
//!
//! Chaos suites replay their plans by seed, so the fates a seed draws
//! are part of the contract: a refactor of the draw must leave them
//! bit-identical. Each test hashes the fates one plan draws over a fixed
//! grid of coordinates, for two seeds, and compares against constants
//! recorded from the original implementation.

use std::time::Duration;

use crh_core::persist::digest64;

use crate::faults::{
    LinkFate, NetFaultPlan, PartitionWindow, ServeFate, ServeFaultInjector, ServeFaultPlan,
    ShardFaultPlan, SplitCrash,
};

fn push(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn serve_digest(plan: ServeFaultPlan) -> u64 {
    let inj = ServeFaultInjector::new(plan);
    let mut buf = Vec::new();
    for chunk in 0..100u64 {
        for attempt in 0..3u64 {
            match inj.fate(chunk, attempt) {
                ServeFate::Healthy => push(&mut buf, 0),
                ServeFate::TornWal { keep_frac } => {
                    push(&mut buf, 1);
                    push(&mut buf, keep_frac.to_bits());
                }
                ServeFate::CrashBeforeFold => push(&mut buf, 2),
                ServeFate::CrashAfterFold => push(&mut buf, 3),
                ServeFate::CrashDuringSnapshot => push(&mut buf, 4),
                ServeFate::CrashAfterSnapshotRename => push(&mut buf, 5),
                ServeFate::StallFold(d) => {
                    push(&mut buf, 6);
                    push(&mut buf, d.as_nanos() as u64);
                }
            }
        }
    }
    push(&mut buf, inj.faults_fired());
    digest64(&buf)
}

fn serve_plan(seed: u64, max_faults: u64) -> ServeFaultPlan {
    ServeFaultPlan::new(seed)
        .torn_wal(0.1)
        .before_fold(0.1)
        .after_fold(0.1)
        .during_snapshot(0.1)
        .stalls(0.1, Duration::from_millis(3))
        .max_faults(max_faults)
}

#[test]
fn serve_fates_match_golden_digests() {
    let got = [
        serve_digest(serve_plan(7, 60)),
        serve_digest(serve_plan(1234, 60)),
        serve_digest(serve_plan(7, u64::MAX)),
        serve_digest(serve_plan(1234, u64::MAX)),
    ];
    let want: [u64; 4] = [
        0x1e54_af70_a2d3_00b3,
        0x2c2f_7ed6_45a7_db9b,
        0xad14_835b_b53a_2054,
        0xafb2_ce25_7ef5_d557,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// Hash `link_fate` and `frame_delay` over a `(from, to, step, frame)`
/// grid into `buf`.
fn push_links(buf: &mut Vec<u8>, p: &NetFaultPlan, nodes: u32, steps: u64) {
    for from in 0..nodes {
        for to in 0..nodes {
            for step in 0..steps {
                for frame in 0..2u64 {
                    push(
                        buf,
                        match p.link_fate(from, to, step, frame) {
                            LinkFate::Deliver => 0,
                            LinkFate::Drop => 1,
                            LinkFate::DropReply => 2,
                            LinkFate::Duplicate => 3,
                        },
                    );
                    push(buf, p.frame_delay(from, to, step, frame));
                }
            }
        }
    }
}

fn net_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan::new(seed)
        .drops(0.15)
        .dropped_replies(0.1)
        .dups(0.1)
        .delays(0.3, 1, 4)
        .straggler(2, 3)
        .partition(PartitionWindow {
            from_step: 5,
            to_step: 9,
            side_a: 0b001,
            one_way: true,
        })
        .partition(PartitionWindow {
            from_step: 20,
            to_step: 24,
            side_a: 0b010,
            one_way: false,
        })
}

#[test]
fn net_fates_match_golden_digests() {
    let got = [11u64, 99].map(|seed| {
        let mut buf = Vec::new();
        push_links(&mut buf, &net_plan(seed), 3, 30);
        digest64(&buf)
    });
    let want: [u64; 2] = [0x14cd_bf68_61e5_7c83, 0xc7bf_aa57_856b_1fc0];
    assert_eq!(got, want, "got {got:#018x?}");
}

fn shard_plan(seed: u64) -> ShardFaultPlan {
    ShardFaultPlan::new(seed)
        .drops(0.1)
        .dropped_replies(0.05)
        .dups(0.05)
        .delays(0.25, 1, 3)
        .group_straggler(1, 0, 6)
        .group_partition(
            2,
            PartitionWindow {
                from_step: 3,
                to_step: 8,
                side_a: 0b100,
                one_way: false,
            },
        )
        .kill_node(7, 0, 2)
        .kill_quorum(12, 3)
        .restart_after(9)
        .split_crash(SplitCrash::MidCatchUp)
}

#[test]
fn shard_plans_match_golden_digests() {
    let got = [5u64, 77].map(|seed| {
        let plan = shard_plan(seed);
        let mut buf = Vec::new();
        for shard in 0..4u32 {
            let p = plan.plan_for(shard, 3).unwrap();
            push(&mut buf, p.seed);
            for prob in [p.drop_prob, p.drop_reply_prob, p.dup_prob, p.delay_prob] {
                push(&mut buf, prob.to_bits());
            }
            push(&mut buf, p.delay_steps.0);
            push(&mut buf, p.delay_steps.1);
            for &(node, extra) in &p.stragglers {
                push(&mut buf, u64::from(node));
                push(&mut buf, extra);
            }
            for w in &p.partitions {
                push(&mut buf, w.from_step);
                push(&mut buf, w.to_step);
                push(&mut buf, w.side_a);
                push(&mut buf, u64::from(w.one_way));
            }
            for &(step, node) in &p.kills {
                push(&mut buf, step);
                push(&mut buf, u64::from(node));
            }
            push(&mut buf, p.restart_after);
            push_links(&mut buf, &p, 3, 12);
        }
        digest64(&buf)
    });
    let want: [u64; 2] = [0x3322_d08c_6304_602b, 0xc12e_436f_e6f3_b24c];
    assert_eq!(got, want, "got {got:#018x?}");
}
