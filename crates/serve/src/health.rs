//! Peer-health scoring for gray-failure handling: per-peer EWMA latency,
//! a windowed p95 estimate, and a slow-peer probation state machine.
//!
//! Components that *die* are caught by heartbeats and the election
//! timeout; components that are merely *slow* are not — a straggling
//! replica answers every heartbeat, just late, and quietly drags the
//! tail of everything routed through it. This module scores peers by
//! observed latency so callers can (a) size timeouts to each peer
//! instead of the slowest ([`HealthMap::adaptive_timeout`]), (b) hedge a
//! read once the first attempt overruns the peer's p95
//! ([`HealthMap::p95`]), and (c) take a chronically slow peer out of
//! rotation entirely ([`HealthMap::is_quarantined`]).
//!
//! Probation is the source breakers' machine ([`crate::breaker`]),
//! tripped here by latency instead of strikes:
//!
//! ```text
//! Healthy --ewma > factor × peer median--> Suspended{until}
//!    ^                                         |
//!    |                              cool-down elapses
//!    |<-- fast probe sample --- Probing{expires} --slow sample--> Suspended
//! ```
//!
//! Degradation is judged *relative to the other peers' median* rather
//! than against an absolute bound, so the same map works for wall-clock
//! microseconds on the TCP client and virtual ticks in the simulated
//! cluster — the units cancel. Time is whatever monotone `u64` the
//! caller supplies (`now`), and all state is in-memory: after a restart
//! every peer starts Healthy and must re-earn its quarantine, which is
//! the conservative direction.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::breaker::Probation;

/// Tuning for a [`HealthMap`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// EWMA smoothing weight for a new sample, in `(0, 1]`.
    pub alpha: f64,
    /// Ring-buffer window the p95 estimate is computed over.
    pub window: usize,
    /// A peer whose EWMA exceeds `degraded_factor ×` the median EWMA of
    /// the *other* peers goes on probation.
    pub degraded_factor: f64,
    /// Samples a peer must have before it can be judged degraded (and
    /// before other peers' medians count it) — first impressions and
    /// cold caches are not strikes.
    pub min_samples: u64,
    /// How long (in the caller's `now` unit) a suspended peer sits out
    /// before earning a probe, and how long a probe token lives.
    pub cooldown: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            alpha: 0.3,
            window: 32,
            degraded_factor: 4.0,
            min_samples: 4,
            cooldown: 64,
        }
    }
}

#[derive(Debug, Clone)]
struct PeerHealth {
    ewma: f64,
    samples: u64,
    ring: Vec<u64>,
    next: usize,
    state: Probation,
}

impl PeerHealth {
    fn p95(&self) -> u64 {
        // sorted copy of the (small, fixed) window: deterministic, no
        // sketch drift, and cheap at the window sizes used here
        let mut sorted = self.ring.clone();
        sorted.sort_unstable();
        // nearest-rank percentile: ceil(0.95 n) - 1; the index is in
        // range for any non-empty window, and an empty one scores 0
        let idx = (sorted.len() * 95).div_ceil(100).saturating_sub(1);
        sorted.get(idx).copied().unwrap_or(0)
    }
}

/// Latency scores and probation state for a set of peers.
#[derive(Debug, Clone)]
pub struct HealthMap {
    cfg: HealthConfig,
    peers: BTreeMap<u32, PeerHealth>,
}

impl Default for HealthMap {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

impl HealthMap {
    /// An empty map (every peer Healthy, no samples).
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            peers: BTreeMap::new(),
        }
    }

    /// Record one observed round-trip of `latency` (any consistent unit)
    /// for `peer` at time `now`, then re-judge its probation state.
    pub fn record(&mut self, peer: u32, latency: u64, now: u64) {
        let window = self.cfg.window.max(1);
        let alpha = self.cfg.alpha;
        let e = self.peers.entry(peer).or_insert(PeerHealth {
            ewma: latency as f64,
            samples: 0,
            ring: Vec::with_capacity(window),
            next: 0,
            state: Probation::Healthy,
        });
        if e.samples > 0 {
            e.ewma = alpha * latency as f64 + (1.0 - alpha) * e.ewma;
        }
        e.samples += 1;
        if e.ring.len() < window {
            e.ring.push(latency);
        } else if let Some(slot) = e.ring.get_mut(e.next) {
            *slot = latency;
            e.next = (e.next + 1) % window;
        }
        self.judge(peer, latency, now);
    }

    /// Re-evaluate `peer` against the median of the other peers.
    fn judge(&mut self, peer: u32, latency: u64, now: u64) {
        let Some(median) = self.healthy_median(peer) else {
            return; // nothing to compare against: benefit of the doubt
        };
        let Some(e) = self.peers.get_mut(&peer) else {
            return;
        };
        if e.samples < self.cfg.min_samples {
            return;
        }
        let bound = self.cfg.degraded_factor * median.max(1.0);
        if let Probation::Probing { .. } = e.state {
            // the probe resolves on its own sample, not the ewma — the
            // ewma is still poisoned by the samples that tripped the
            // quarantine, and the probe's entire point is to measure the
            // peer as it is now
            if (latency as f64) <= bound {
                e.state = Probation::Healthy;
                // the peer re-earns its score from here
                e.ewma = latency as f64;
            } else {
                e.state = Probation::suspend(now, self.cfg.cooldown);
            }
            return;
        }
        if e.state == Probation::Healthy && e.ewma > bound {
            e.state = Probation::suspend(now, self.cfg.cooldown);
        }
    }

    /// Median EWMA of every peer other than `except` that has enough
    /// samples to be a credible baseline.
    fn healthy_median(&self, except: u32) -> Option<f64> {
        let mut others: Vec<f64> = self
            .peers
            .iter()
            .filter(|(&p, e)| p != except && e.samples >= self.cfg.min_samples)
            .map(|(_, e)| e.ewma)
            .collect();
        others.sort_by(|a, b| a.total_cmp(b));
        others.get(others.len() / 2).copied()
    }

    /// The peer's smoothed latency, if any samples were recorded.
    pub fn ewma(&self, peer: u32) -> Option<f64> {
        self.peers.get(&peer).map(|e| e.ewma)
    }

    /// The peer's windowed p95 latency, if any samples were recorded.
    pub fn p95(&self, peer: u32) -> Option<u64> {
        self.peers
            .get(&peer)
            .filter(|e| !e.ring.is_empty())
            .map(PeerHealth::p95)
    }

    /// Whether `peer` is currently out of rotation (suspended, or holding
    /// an unresolved probe token). Quarantined peers must not be hedge
    /// targets or cached primaries; they get exactly one probe per
    /// cool-down via [`admit`](Self::admit).
    pub fn is_quarantined(&self, peer: u32) -> bool {
        matches!(
            self.peers.get(&peer).map(|e| e.state),
            Some(Probation::Suspended { .. } | Probation::Probing { .. })
        )
    }

    /// Gate traffic to `peer` at time `now`. Healthy peers always pass;
    /// a suspended peer passes exactly once per cool-down (the probe —
    /// its next recorded sample decides whether it heals or goes back
    /// under). Callers route around a `false`.
    pub fn admit(&mut self, peer: u32, now: u64) -> bool {
        let cooldown = self.cfg.cooldown;
        self.peers
            .get_mut(&peer)
            .is_none_or(|e| e.state.admit(now, cooldown).is_ok())
    }

    /// A per-peer timeout sized to observed behaviour: `headroom ×` the
    /// peer's p95, clamped to `[floor, cap]`. Latency samples are taken
    /// to be **microseconds** here (the TCP client's unit). Peers with
    /// no history get `cap` — never guess tight on a cold cache.
    pub fn adaptive_timeout(
        &self,
        peer: u32,
        floor: Duration,
        cap: Duration,
        headroom: u32,
    ) -> Duration {
        match self.p95(peer) {
            Some(p95) => {
                Duration::from_micros(p95.saturating_mul(u64::from(headroom))).clamp(floor, cap)
            }
            None => cap,
        }
    }

    /// Peers currently quarantined, ascending (for status surfaces).
    pub fn quarantined(&self) -> Vec<u32> {
        self.peers
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.state,
                    Probation::Suspended { .. } | Probation::Probing { .. }
                )
            })
            .map(|(&p, _)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            alpha: 0.5,
            window: 8,
            degraded_factor: 3.0,
            min_samples: 3,
            cooldown: 10,
        }
    }

    /// Feed `n` samples of constant `latency` for `peer`.
    fn feed(h: &mut HealthMap, peer: u32, latency: u64, n: u64, start: u64) -> u64 {
        for i in 0..n {
            h.record(peer, latency, start + i);
        }
        start + n
    }

    #[test]
    fn ewma_and_p95_track_samples() {
        let mut h = HealthMap::new(cfg());
        feed(&mut h, 1, 100, 8, 0);
        assert_eq!(h.ewma(1), Some(100.0));
        assert_eq!(h.p95(1), Some(100));
        // one outlier moves the ewma but the window keeps perspective
        h.record(1, 1_000, 9);
        assert!(h.ewma(1).unwrap() > 100.0);
        assert_eq!(h.p95(1), Some(1_000), "p95 surfaces the tail");
        assert_eq!(h.ewma(9), None, "unknown peer has no score");
    }

    #[test]
    fn slow_peer_is_quarantined_relative_to_its_cohort() {
        let mut h = HealthMap::new(cfg());
        feed(&mut h, 0, 100, 4, 0);
        feed(&mut h, 1, 110, 4, 10);
        // peer 2 is 10× its cohort: suspended once it has min_samples
        let t = feed(&mut h, 2, 1_000, 4, 20);
        assert!(h.is_quarantined(2));
        assert!(!h.is_quarantined(0) && !h.is_quarantined(1));
        // out of rotation during the cool-down, one probe after it
        assert!(!h.admit(2, t));
        assert!(h.admit(2, t + 20), "cool-down over: probe admitted");
        assert!(!h.admit(2, t + 20), "exactly one probe token");
        // a fast probe sample heals it
        h.record(2, 100, t + 21);
        assert!(!h.is_quarantined(2));
        assert!(h.admit(2, t + 22));
    }

    #[test]
    fn slow_probe_goes_straight_back_under() {
        let mut h = HealthMap::new(cfg());
        feed(&mut h, 0, 100, 4, 0);
        feed(&mut h, 1, 100, 4, 10);
        let t = feed(&mut h, 2, 2_000, 4, 20);
        assert!(h.is_quarantined(2));
        assert!(h.admit(2, t + 20));
        h.record(2, 2_000, t + 21);
        assert!(h.is_quarantined(2), "a slow probe re-suspends");
        assert!(!h.admit(2, t + 22));
    }

    #[test]
    fn a_lone_peer_is_never_judged() {
        let mut h = HealthMap::new(cfg());
        // no cohort to compare against: even a glacial peer stays in
        // rotation (there is nothing faster to route to anyway)
        feed(&mut h, 7, 1_000_000, 16, 0);
        assert!(!h.is_quarantined(7));
        assert!(h.admit(7, 100));
    }

    #[test]
    fn cold_peers_are_not_judged_or_counted() {
        let mut h = HealthMap::new(cfg());
        feed(&mut h, 0, 100, 4, 0);
        // peer 1 has one (slow) sample — below min_samples, not judged
        h.record(1, 10_000, 5);
        assert!(!h.is_quarantined(1));
        // and its outlier ewma is not a credible baseline against 0
        feed(&mut h, 0, 100, 4, 6);
        assert!(!h.is_quarantined(0));
    }

    #[test]
    fn unresolved_probe_token_expires() {
        let mut h = HealthMap::new(cfg());
        feed(&mut h, 0, 100, 4, 0);
        feed(&mut h, 1, 100, 4, 10);
        let t = feed(&mut h, 2, 2_000, 4, 20);
        assert!(h.admit(2, t + 20), "probe token issued");
        // the probe request died; after the token expires a fresh probe
        // is allowed rather than locking the peer out forever
        assert!(!h.admit(2, t + 21));
        assert!(h.admit(2, t + 40));
    }

    #[test]
    fn adaptive_timeout_clamps_to_floor_and_cap() {
        let mut h = HealthMap::new(cfg());
        let floor = Duration::from_millis(5);
        let cap = Duration::from_millis(500);
        assert_eq!(
            h.adaptive_timeout(3, floor, cap, 2),
            cap,
            "no history → cap"
        );
        feed(&mut h, 3, 20_000, 8, 0); // 20ms p95
        assert_eq!(
            h.adaptive_timeout(3, floor, cap, 2),
            Duration::from_millis(40)
        );
        feed(&mut h, 4, 100, 8, 0); // 0.1ms p95 → clamped up to the floor
        assert_eq!(h.adaptive_timeout(4, floor, cap, 2), floor);
        feed(&mut h, 5, 1_000_000, 8, 0); // 1s p95 → clamped down to cap
        assert_eq!(h.adaptive_timeout(5, floor, cap, 2), cap);
    }

    #[test]
    fn quarantined_listing_is_sorted() {
        let mut h = HealthMap::new(cfg());
        feed(&mut h, 0, 100, 4, 0);
        feed(&mut h, 1, 100, 4, 10);
        feed(&mut h, 9, 5_000, 4, 20);
        feed(&mut h, 4, 5_000, 4, 30);
        assert_eq!(h.quarantined(), vec![4, 9]);
    }
}
