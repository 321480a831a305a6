//! The read side of the client-history checker: a test loop that reads
//! through [`SimCluster::read_target`] after every step it takes, and
//! checks what those reads observed.

use crh_serve::{Role, SimCluster};

/// The reads one chaos test loop made, one after each step.
#[derive(Default)]
pub struct Reads {
    /// `chunks_seen` of the member each read landed on, in order.
    seen: Vec<u64>,
    /// Reads whose `FollowerRead` lag understated how far the member was
    /// behind the primary's head at that step.
    understated: Vec<String>,
}

impl Reads {
    /// Step `c`, then read from its read target.
    pub fn step(&mut self, c: &mut SimCluster) {
        c.step().unwrap();
        let Some((i, member)) = c.read_target().and_then(|i| c.node(i).map(|n| (i, n))) else {
            return;
        };
        let seen = member.core().chunks_seen();
        self.seen.push(seen);
        // a member that is not primary answers a FollowerRead, whose lag
        // must bound its distance from the primary's head
        let follower_read = member.role() != Role::Primary;
        if let Some(p) = c.primary().filter(|_| follower_read) {
            let head = c.node(p).map_or(0, |p| p.durable());
            let behind = head.saturating_sub(seen);
            if behind > member.lag() {
                self.understated.push(format!(
                    "step {}: node {i} is {behind} behind primary {p}'s head {head} but \
                     declares lag {}",
                    c.now(),
                    member.lag()
                ));
            }
        }
    }

    /// Check what the reads observed: every follower lag bounded its
    /// distance from the primary's head, and `chunks_seen` never went
    /// backwards, failover or not.
    pub fn check(&self) -> Result<(), String> {
        if let Some(first) = self.understated.first() {
            return Err(format!(
                "{} reads understated their lag; first: {first}",
                self.understated.len()
            ));
        }
        for (k, pair) in self.seen.windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(format!(
                    "read {} saw chunks_seen {} after read {k} saw {}",
                    k + 1,
                    pair[1],
                    pair[0]
                ));
            }
        }
        Ok(())
    }
}
