//! The circuit breaker shared by devices ([`crate::Server`]) and nodes
//! (the cluster router): one strike → quarantine → single-flight probe →
//! reintegrate state machine, indexed by unit.
//!
//! Each outcome recorded against a unit carries a [`Verdict`]. A struck
//! outcome adds to the unit's run of **consecutive** strikes, and a clean
//! one resets it. When the run reaches `quarantine_after`, the breaker
//! *quarantines* the unit: the caller stops routing to it. Every
//! [`Breaker::tick`] advances the quarantine clock by one request. Once
//! the clock reaches `probe_after`, [`Breaker::probe_ready`] lets one
//! request through as a *probe*. Only one probe is in flight at a time,
//! and [`Breaker::begin_probe`] restarts the clock.
//!
//! - A clean probe reintegrates the unit.
//! - A struck probe keeps the breaker open and restarts the clock again.
//! - A probe that ends with no verdict is released without a strike, and
//!   the clock runs on.
//! - A probe that never reports at all (its executor or dispatcher died)
//!   is declared lost after another `probe_after` ticks, so the unit can
//!   probe again: quarantine can stall, but never stick.
//!
//! What counts as a strike, what a tick covers, and what happens when
//! every unit is quarantined are the caller's rules.

use shmt_trace::MetricsRegistry;

/// Breaker tuning ([`crate::ServerConfig::health`] for devices,
/// `shmt_cluster::ClusterConfig::breaker` for nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Master switch. Disabled, the breaker records nothing and every
    /// unit stays routable forever.
    pub enabled: bool,
    /// Consecutive strikes that quarantine a unit.
    pub quarantine_after: usize,
    /// Ticks (requests) while quarantined before one request probes the
    /// unit.
    pub probe_after: usize,
}

impl BreakerConfig {
    /// Device defaults: quarantine after 3 strikes, probe after 4
    /// planned requests.
    pub const fn devices() -> Self {
        BreakerConfig {
            enabled: true,
            quarantine_after: 3,
            probe_after: 4,
        }
    }

    /// Node defaults: quarantine after 2 strikes, probe after 8 routed
    /// requests.
    pub const fn nodes() -> Self {
        BreakerConfig {
            enabled: true,
            quarantine_after: 2,
            probe_after: 8,
        }
    }
}

/// Public snapshot of one unit's breaker state
/// ([`crate::Server::device_health`], `ClusterRouter::node_health`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitHealth {
    /// Whether the breaker is open: the unit is quarantined out of routing.
    pub quarantined: bool,
    /// Strikes since the unit's last clean outcome.
    pub consecutive_strikes: usize,
    /// Strikes over the breaker's lifetime.
    pub total_strikes: usize,
    /// Times the breaker tripped.
    pub quarantines: usize,
    /// Probes dispatched to the unit while quarantined.
    pub probes: usize,
    /// Probes that came back clean and closed the breaker.
    pub reintegrations: usize,
    /// A dispatched probe has not reported back yet (see the module docs
    /// for how a lost probe is released).
    pub probe_inflight: bool,
}

/// The evidence one outcome gives about a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The unit did its part: resets the strike run; a clean probe
    /// reintegrates.
    Clean,
    /// The unit is to blame: one strike.
    Struck,
    /// The outcome says nothing about the unit. An in-flight probe is
    /// released without a strike and without restarting the clock.
    NoVerdict,
}

/// Counter increments that recorded outcomes produced, applied to a
/// metrics registry after the breaker's lock drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerDelta {
    /// New strikes.
    pub strikes: usize,
    /// New quarantines.
    pub quarantines: usize,
    /// New reintegrations.
    pub reintegrations: usize,
}

impl std::ops::AddAssign for BreakerDelta {
    fn add_assign(&mut self, other: Self) {
        self.strikes += other.strikes;
        self.quarantines += other.quarantines;
        self.reintegrations += other.reintegrations;
    }
}

impl BreakerDelta {
    /// Adds the non-zero increments to `metrics` under the given strike,
    /// quarantine, and reintegrate counter names.
    pub fn apply(&self, metrics: &mut MetricsRegistry, names: [&str; 3]) {
        let counts = [self.strikes, self.quarantines, self.reintegrations];
        for (count, name) in counts.into_iter().zip(names) {
            if count > 0 {
                metrics.add_counter(name, count as f64);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    health: UnitHealth,
    /// Ticks since the quarantine began or the last probe was released;
    /// reaching `probe_after` makes the next probe due.
    since_quarantine: usize,
}

/// One circuit breaker per unit (see the module docs).
#[derive(Debug)]
pub struct Breaker {
    config: BreakerConfig,
    slots: Vec<Slot>,
}

impl Breaker {
    /// A breaker over `units` units, all closed.
    pub fn new(config: BreakerConfig, units: usize) -> Self {
        Breaker {
            config,
            slots: vec![Slot::default(); units],
        }
    }

    /// Snapshot of one unit's state.
    pub fn health(&self, id: usize) -> UnitHealth {
        self.slots[id].health
    }

    /// Whether the unit may take regular (non-probe) traffic.
    pub fn routable(&self, id: usize) -> bool {
        !self.config.enabled || !self.slots[id].health.quarantined
    }

    /// Whether the unit's quarantine clock has earned it a probe.
    pub fn probe_ready(&self, id: usize) -> bool {
        let s = &self.slots[id];
        self.config.enabled
            && s.health.quarantined
            && !s.health.probe_inflight
            && s.since_quarantine >= self.config.probe_after
    }

    /// Marks a probe dispatch to the unit: `probe_ready` stays false until
    /// the probe records or is declared lost.
    pub fn begin_probe(&mut self, id: usize) {
        let s = &mut self.slots[id];
        s.health.probe_inflight = true;
        s.health.probes += 1;
        s.since_quarantine = 0;
    }

    /// Advances a quarantined unit's clock by one request, releasing its
    /// probe if it has been in flight for `probe_after` ticks.
    pub fn tick(&mut self, id: usize) {
        let s = &mut self.slots[id];
        if !self.config.enabled || !s.health.quarantined {
            return;
        }
        s.since_quarantine += 1;
        if s.health.probe_inflight && s.since_quarantine >= self.config.probe_after.max(1) {
            s.health.probe_inflight = false;
        }
    }

    /// Folds one outcome back in. `probe` says whether the outcome is the
    /// unit's quarantine probe.
    pub fn record(&mut self, id: usize, verdict: Verdict, probe: bool) -> BreakerDelta {
        let mut delta = BreakerDelta::default();
        if !self.config.enabled {
            return delta;
        }
        let s = &mut self.slots[id];
        if probe {
            s.health.probe_inflight = false;
        }
        match verdict {
            Verdict::NoVerdict => {}
            Verdict::Clean => {
                s.health.consecutive_strikes = 0;
                if probe {
                    s.health.quarantined = false;
                    s.health.reintegrations += 1;
                    delta.reintegrations = 1;
                }
            }
            Verdict::Struck => {
                s.health.consecutive_strikes += 1;
                s.health.total_strikes += 1;
                delta.strikes = 1;
                if probe {
                    s.since_quarantine = 0;
                } else if !s.health.quarantined
                    && s.health.consecutive_strikes >= self.config.quarantine_after.max(1)
                {
                    s.health.quarantined = true;
                    s.health.quarantines += 1;
                    delta.quarantines = 1;
                    s.since_quarantine = 0;
                }
            }
        }
        delta
    }

    /// Strike pressure against a unit that is still routable: its strike
    /// run as a fraction of `quarantine_after` (0 when disabled).
    pub fn pressure(&self, id: usize) -> f64 {
        if !self.config.enabled {
            return 0.0;
        }
        self.slots[id].health.consecutive_strikes as f64
            / self.config.quarantine_after.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(quarantine_after: usize, probe_after: usize) -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            quarantine_after,
            probe_after,
        }
    }

    /// Quarantines unit 0 with one strike and runs its clock to a due
    /// probe.
    fn due_probe(probe_after: usize) -> Breaker {
        let mut b = Breaker::new(cfg(1, probe_after), 1);
        b.record(0, Verdict::Struck, false);
        for _ in 0..probe_after {
            b.tick(0);
        }
        assert!(b.probe_ready(0), "probe due after the clock runs");
        b
    }

    #[test]
    fn strikes_quarantine_and_a_clean_probe_reintegrates() {
        let mut b = Breaker::new(BreakerConfig::devices(), 2);
        for _ in 0..2 {
            assert_eq!(b.record(0, Verdict::Struck, false).quarantines, 0);
            assert!(b.routable(0));
        }
        assert_eq!(b.record(0, Verdict::Struck, false).quarantines, 1);
        assert!(!b.routable(0), "three consecutive strikes trip the breaker");
        assert!(b.routable(1), "other units are untouched");
        assert!(!b.probe_ready(0));
        for _ in 0..4 {
            b.tick(0);
        }
        assert!(b.probe_ready(0), "probe due after the clock runs");
        b.begin_probe(0);
        assert!(!b.probe_ready(0), "single-flight probe");
        let delta = b.record(0, Verdict::Clean, true);
        assert_eq!(delta.reintegrations, 1);
        assert!(b.routable(0));
        let h = b.health(0);
        assert_eq!((h.quarantines, h.probes, h.reintegrations), (1, 1, 1));
        assert_eq!(h.consecutive_strikes, 0);
    }

    #[test]
    fn failed_probe_restarts_the_clock() {
        let mut b = due_probe(2);
        b.begin_probe(0);
        // Another request ticks the clock while the probe is in flight.
        b.tick(0);
        let delta = b.record(0, Verdict::Struck, true);
        assert_eq!((delta.strikes, delta.quarantines), (1, 0));
        assert!(!b.routable(0), "struck probe must not close");
        b.tick(0);
        assert!(!b.probe_ready(0), "clock restarted at the verdict");
        b.tick(0);
        assert!(b.probe_ready(0), "and runs again");
    }

    #[test]
    fn lost_probe_is_released_by_the_clock() {
        let mut b = due_probe(2);
        b.begin_probe(0);
        // The probe never records (its executor or dispatcher died): two
        // more ticks declare it lost and the unit probes again.
        b.tick(0);
        assert!(b.health(0).probe_inflight);
        b.tick(0);
        assert!(!b.health(0).probe_inflight, "lost probe must be released");
        assert!(b.probe_ready(0));
        b.begin_probe(0);
        b.record(0, Verdict::Clean, true);
        let h = b.health(0);
        assert!(!h.quarantined);
        assert_eq!((h.probes, h.reintegrations), (2, 1));
    }

    #[test]
    fn no_verdict_releases_the_probe_and_keeps_the_clock() {
        let mut b = due_probe(2);
        b.begin_probe(0);
        b.tick(0);
        assert_eq!(
            b.record(0, Verdict::NoVerdict, true),
            BreakerDelta::default()
        );
        let h = b.health(0);
        assert!(h.quarantined && !h.probe_inflight);
        b.tick(0);
        assert!(b.probe_ready(0), "the clock kept its in-flight tick");
    }

    #[test]
    fn pressure_tracks_the_strike_run() {
        let mut b = Breaker::new(cfg(4, 1), 1);
        b.record(0, Verdict::Struck, false);
        assert_eq!(b.pressure(0), 0.25);
        b.record(0, Verdict::Clean, false);
        assert_eq!(b.pressure(0), 0.0);
    }

    #[test]
    fn disabled_breaker_is_inert() {
        let mut b = Breaker::new(
            BreakerConfig {
                enabled: false,
                ..BreakerConfig::nodes()
            },
            1,
        );
        for _ in 0..10 {
            assert_eq!(b.record(0, Verdict::Struck, false), BreakerDelta::default());
            b.tick(0);
        }
        assert!(b.routable(0));
        assert!(!b.probe_ready(0));
        assert_eq!(b.pressure(0), 0.0);
        assert_eq!(b.health(0), UnitHealth::default());
    }
}
