//! Per-source circuit breakers for bad-feed containment.
//!
//! A source that keeps sending malformed or non-finite observations can
//! poison the weight estimates (one NaN in an accumulated distance is
//! permanent) and waste fold capacity. Each source gets a tiny state
//! machine, the `Probation` shape it shares with peer health:
//!
//! ```text
//! Healthy --strikes >= threshold--> Suspended{until} --cool-down elapses--> Probing
//!   ^                                                                          |
//!   |<----------------------- first clean chunk heals ------------------------+
//!   |                         (a bad probe chunk re-suspends)
//! ```
//!
//! Time is a **logical tick** (one per ingest attempt), not wall-clock,
//! so breaker behaviour is deterministic and testable without sleeping.
//! Breaker state is deliberately in-memory only — after a crash every
//! source starts Healthy again and must re-earn its quarantine, which is
//! the conservative direction (no source is ever locked out by a stale
//! quarantine file).

#![expect(
    clippy::disallowed_types,
    reason = "keyed lookups only: the map is never iterated, so its order reaches no digest and no reply"
)]

use std::collections::HashMap;

use crate::error::ServeError;

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive-window strikes that trip the breaker.
    pub strike_threshold: u32,
    /// Ticks a tripped source stays quarantined before a probe is allowed.
    pub cooldown_ticks: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            strike_threshold: 3,
            cooldown_ticks: 16,
        }
    }
}

/// The quarantine probation machine shared by the source breakers here
/// and the peer-health map ([`crate::health`]). What trips it (strikes,
/// latency) and what resolves a probe stay with each caller; the
/// suspended → one-probe → expiry transition lives in
/// [`admit`](Self::admit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probation {
    /// In rotation.
    Healthy,
    /// Out of rotation until the cool-down ends at `until`.
    Suspended { until: u64 },
    /// Exactly one probe is in flight; further admission is refused
    /// until the caller resolves it or the token expires at `expires`.
    /// Without the token, two concurrent probes could race: the first
    /// fails and re-suspends, then the second succeeds and heals — a bad
    /// member healing off the back of a single lucky request.
    Probing { expires: u64 },
}

impl Probation {
    /// Suspended for one cool-down from `now`.
    pub(crate) fn suspend(now: u64, cooldown: u64) -> Self {
        Self::Suspended {
            until: now + cooldown,
        }
    }

    /// Gate one request at `now`. Healthy always passes. Once a
    /// suspension's cool-down is over, exactly one request passes and
    /// takes the probe token. An unresolved token expires after a
    /// cool-down (its request died mid-flight), and a fresh probe is let
    /// in rather than locking the member out forever. A refusal carries
    /// the time it holds until.
    pub(crate) fn admit(&mut self, now: u64, cooldown: u64) -> Result<(), u64> {
        match *self {
            Self::Healthy => Ok(()),
            Self::Suspended { until } | Self::Probing { expires: until } if now < until => {
                Err(until)
            }
            Self::Suspended { .. } | Self::Probing { .. } => {
                *self = Self::Probing {
                    expires: now + cooldown,
                };
                Ok(())
            }
        }
    }
}

/// One source's breaker: consecutive strikes while healthy, plus its
/// probation state.
#[derive(Debug, Clone, Copy)]
struct Breaker {
    strikes: u32,
    state: Probation,
}

/// The set of per-source breakers.
#[derive(Debug)]
pub struct SourceBreakers {
    cfg: BreakerConfig,
    states: HashMap<u32, Breaker>,
}

impl SourceBreakers {
    /// Fresh breakers (all sources Healthy with zero strikes).
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            states: HashMap::new(),
        }
    }

    /// Gate a chunk from `source` at logical time `tick`. Passing the gate
    /// does not clear strikes — only [`record_ok`](Self::record_ok) does.
    /// After a cool-down, exactly one probe chunk is admitted at a time;
    /// a second chunk arriving while the probe is unresolved is rejected.
    pub fn admit(&mut self, source: u32, tick: u64) -> Result<(), ServeError> {
        match self.states.get_mut(&source) {
            None => Ok(()),
            Some(b) => b
                .state
                .admit(tick, self.cfg.cooldown_ticks)
                .map_err(|until_tick| ServeError::Quarantined { source, until_tick }),
        }
    }

    /// Record that an admitted chunk from `source` was malformed. Returns
    /// the quarantine deadline if this strike tripped (or re-tripped) the
    /// breaker.
    pub fn record_bad(&mut self, source: u32, tick: u64) -> Option<u64> {
        let cooldown = self.cfg.cooldown_ticks;
        let b = self.states.entry(source).or_insert(Breaker {
            strikes: 0,
            state: Probation::Healthy,
        });
        match b.state {
            Probation::Healthy => {
                b.strikes += 1;
                if b.strikes < self.cfg.strike_threshold {
                    return None;
                }
                b.state = Probation::suspend(tick, cooldown);
            }
            // the probe failed: straight back to quarantine
            Probation::Probing { .. } => b.state = Probation::suspend(tick, cooldown),
            Probation::Suspended { until } => return Some(until),
        }
        Some(tick + cooldown)
    }

    /// Record that an admitted chunk from `source` folded cleanly: the
    /// source heals fully (strikes cleared, an in-flight probe closes).
    pub fn record_ok(&mut self, source: u32) {
        self.states.remove(&source);
    }

    /// Whether `source` is currently quarantined at `tick`.
    pub fn is_quarantined(&self, source: u32, tick: u64) -> bool {
        self.states
            .get(&source)
            .is_some_and(|b| Self::suspended_at(b, tick))
    }

    /// Sources currently quarantined at `tick`, ascending.
    pub fn quarantined(&self, tick: u64) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .states
            .iter()
            .filter(|(_, b)| Self::suspended_at(b, tick))
            .map(|(&s, _)| s)
            .collect();
        out.sort_unstable();
        out
    }

    fn suspended_at(b: &Breaker, tick: u64) -> bool {
        matches!(b.state, Probation::Suspended { until } if tick < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            strike_threshold: 3,
            cooldown_ticks: 10,
        }
    }

    #[test]
    fn trips_after_threshold_strikes() {
        let mut b = SourceBreakers::new(cfg());
        assert_eq!(b.record_bad(5, 0), None);
        assert_eq!(b.record_bad(5, 1), None);
        assert_eq!(b.record_bad(5, 2), Some(12));
        let err = b.admit(5, 3).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Quarantined {
                    source: 5,
                    until_tick: 12
                }
            ),
            "{err}"
        );
        // other sources unaffected
        b.admit(6, 3).unwrap();
    }

    #[test]
    fn heals_through_half_open_probe() {
        let mut b = SourceBreakers::new(cfg());
        for t in 0..3 {
            b.record_bad(1, t);
        }
        assert!(b.is_quarantined(1, 5));
        // cool-down elapses: probe admitted
        b.admit(1, 12).unwrap();
        b.record_ok(1);
        assert!(!b.is_quarantined(1, 13));
        // and it takes a full three fresh strikes to trip again
        assert_eq!(b.record_bad(1, 14), None);
        assert_eq!(b.record_bad(1, 15), None);
        assert!(b.record_bad(1, 16).is_some());
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = SourceBreakers::new(cfg());
        for t in 0..3 {
            b.record_bad(2, t);
        }
        b.admit(2, 12).unwrap();
        // one bad probe chunk is enough — no three-strike grace
        assert_eq!(b.record_bad(2, 12), Some(22));
        assert!(b.is_quarantined(2, 13));
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let mut b = SourceBreakers::new(cfg());
        for t in 0..3 {
            b.record_bad(4, t);
        }
        // cool-down over: the first chunk takes the probe token…
        b.admit(4, 12).unwrap();
        // …and a concurrent second chunk is rejected, not admitted
        let err = b.admit(4, 12).unwrap_err();
        assert!(
            matches!(err, ServeError::Quarantined { source: 4, .. }),
            "{err}"
        );
        // double-close regression: the in-flight probe fails, re-opening
        // the breaker; had a second probe been admitted above, its later
        // record_ok would now close the breaker off one lucky chunk
        assert!(b.record_bad(4, 13).is_some());
        assert!(b.is_quarantined(4, 14));
        let err = b.admit(4, 14).unwrap_err();
        assert!(
            matches!(err, ServeError::Quarantined { source: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn unresolved_probe_token_expires() {
        let mut b = SourceBreakers::new(cfg());
        for t in 0..3 {
            b.record_bad(8, t);
        }
        b.admit(8, 12).unwrap();
        // the probe's ingest died without record_ok/record_bad; once the
        // token expires a fresh probe is admitted instead of a permanent
        // lock-out
        assert!(b.admit(8, 15).is_err());
        b.admit(8, 22).unwrap();
        b.record_ok(8);
        assert!(!b.is_quarantined(8, 23));
    }

    #[test]
    fn clean_chunks_clear_strikes() {
        let mut b = SourceBreakers::new(cfg());
        b.record_bad(3, 0);
        b.record_bad(3, 1);
        b.record_ok(3);
        // counter reset: two more strikes do not trip
        assert_eq!(b.record_bad(3, 2), None);
        assert_eq!(b.record_bad(3, 3), None);
        assert!(b.record_bad(3, 4).is_some());
    }

    #[test]
    fn quarantined_listing_is_sorted() {
        let mut b = SourceBreakers::new(cfg());
        for s in [9, 4, 7] {
            for t in 0..3 {
                b.record_bad(s, t);
            }
        }
        assert_eq!(b.quarantined(5), vec![4, 7, 9]);
        assert_eq!(b.quarantined(100), Vec::<u32>::new());
    }
}
