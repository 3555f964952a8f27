//! Per-device health: the device-mask rules around the shared
//! [`Breaker`].
//!
//! The serving layer watches every completed request for evidence that a
//! modeled device is misbehaving — a dropout recorded in the run's
//! [`shmt::FaultReport`], or approximate output bad enough that the
//! quality guard had to repair it. Each such device is struck; a device
//! the breaker quarantines is masked out of subsequent requests' device
//! masks (requests still run, in degraded mode, on the remaining
//! devices), and a due probe re-admits it for one request.
//!
//! Two rules are the serve layer's own. Only devices a request asked for
//! take part: a quarantined device is first checked for a due probe, and
//! only otherwise ticked and masked. And the tracker never masks the last
//! capable device — when every device a request asked for is
//! quarantined, the request runs with its original mask (serving
//! degraded beats not serving).

use crate::breaker::{Breaker, BreakerConfig, BreakerDelta, Verdict};
use crate::server::DEVICES;

/// What the tracker decided for one request before execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MaskDecision {
    /// The device mask the request should actually run with.
    pub mask: [bool; DEVICES],
    /// Devices included as quarantine probes this request.
    pub probed: [bool; DEVICES],
    /// Whether `mask` differs from what the request asked for — the
    /// request is serving in degraded mode if so.
    pub masked_any: bool,
}

/// The device breaker behind the server's health mutex.
#[derive(Debug)]
pub(crate) struct HealthTracker {
    breaker: Breaker,
}

impl HealthTracker {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        HealthTracker {
            breaker: Breaker::new(config, DEVICES),
        }
    }

    /// The per-device breaker state.
    pub(crate) fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// Decides the effective device mask for a request about to execute:
    /// releases due probes, masks (and ticks) the other quarantined
    /// devices, and falls back to the requested mask when quarantine
    /// would leave nothing enabled.
    pub(crate) fn plan(&mut self, requested: [bool; DEVICES]) -> MaskDecision {
        let mut mask = requested;
        let mut probed = [false; DEVICES];
        for d in 0..DEVICES {
            if !requested[d] || self.breaker.routable(d) {
                continue;
            }
            if self.breaker.probe_ready(d) {
                self.breaker.begin_probe(d);
                probed[d] = true; // stays in the mask as a probe
            } else {
                self.breaker.tick(d);
                mask[d] = false;
            }
        }
        if !mask.iter().any(|&m| m) {
            mask = requested;
        }
        MaskDecision {
            mask,
            probed,
            masked_any: mask != requested,
        }
    }

    /// Folds one request's outcome back into the breaker. `struck` is the
    /// per-device fault attribution (`None` when the run failed for a
    /// reason no device can be blamed for — probes in flight are released
    /// without a verdict).
    pub(crate) fn record(
        &mut self,
        decision: &MaskDecision,
        struck: Option<[bool; DEVICES]>,
    ) -> BreakerDelta {
        let mut delta = BreakerDelta::default();
        for d in 0..DEVICES {
            let verdict = match struck {
                None if decision.probed[d] => Verdict::NoVerdict,
                Some(s) if decision.mask[d] => {
                    if s[d] {
                        Verdict::Struck
                    } else {
                        Verdict::Clean
                    }
                }
                _ => continue,
            };
            delta += self.breaker.record(d, verdict, decision.probed[d]);
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [bool; DEVICES] = [true; DEVICES];

    fn strikes_on(d: usize) -> Option<[bool; DEVICES]> {
        let mut s = [false; DEVICES];
        s[d] = true;
        Some(s)
    }

    #[test]
    fn consecutive_strikes_trip_the_breaker() {
        let mut t = HealthTracker::new(BreakerConfig::devices());
        for i in 0..3 {
            let dec = t.plan(ALL);
            assert!(dec.mask[2], "device still admitted before trip {i}");
            t.record(&dec, strikes_on(2));
        }
        let dec = t.plan(ALL);
        assert!(!dec.mask[2], "quarantined device must be masked");
        assert!(dec.mask[0] && dec.mask[1]);
        assert!(dec.masked_any);
    }

    #[test]
    fn clean_runs_reset_the_streak() {
        let mut t = HealthTracker::new(BreakerConfig::devices());
        for _ in 0..2 {
            let dec = t.plan(ALL);
            t.record(&dec, strikes_on(2));
        }
        let dec = t.plan(ALL);
        t.record(&dec, Some([false; DEVICES]));
        let dec = t.plan(ALL);
        t.record(&dec, strikes_on(2));
        assert!(
            !t.breaker().health(2).quarantined,
            "streak must reset on clean"
        );
    }

    #[test]
    fn probe_reintegrates_after_a_clean_run() {
        let cfg = BreakerConfig {
            quarantine_after: 1,
            probe_after: 2,
            ..BreakerConfig::devices()
        };
        let mut t = HealthTracker::new(cfg);
        let dec = t.plan(ALL);
        t.record(&dec, strikes_on(2));
        // Quarantined for probe_after requests...
        for _ in 0..2 {
            let dec = t.plan(ALL);
            assert!(!dec.mask[2]);
            t.record(&dec, Some([false; DEVICES]));
        }
        // ...then the next request probes.
        let dec = t.plan(ALL);
        assert!(dec.probed[2] && dec.mask[2], "due probe re-admits device");
        t.record(&dec, Some([false; DEVICES]));
        let snap = t.breaker().health(2);
        assert!(!snap.quarantined);
        assert_eq!(snap.reintegrations, 1);
    }

    #[test]
    fn failed_probe_keeps_the_breaker_open() {
        let cfg = BreakerConfig {
            quarantine_after: 1,
            probe_after: 1,
            ..BreakerConfig::devices()
        };
        let mut t = HealthTracker::new(cfg);
        let dec = t.plan(ALL);
        t.record(&dec, strikes_on(2));
        let dec = t.plan(ALL); // quarantined request, clock ticks
        t.record(&dec, Some([false; DEVICES]));
        let dec = t.plan(ALL);
        assert!(dec.probed[2]);
        t.record(&dec, strikes_on(2));
        assert!(
            t.breaker().health(2).quarantined,
            "struck probe must not close"
        );
        // And the probe clock restarts rather than probing immediately.
        let dec = t.plan(ALL);
        assert!(!dec.mask[2] && !dec.probed[2]);
    }

    #[test]
    fn lost_probe_is_released_and_the_device_probes_again() {
        // A probe whose executor never reports back (shutdown raced the
        // probe, or the thread died) must not leave the probe in flight
        // forever: after `probe_after` further planned requests the
        // probe is declared lost and the next request probes again.
        let cfg = BreakerConfig {
            quarantine_after: 1,
            probe_after: 2,
            ..BreakerConfig::devices()
        };
        let mut t = HealthTracker::new(cfg);
        let dec = t.plan(ALL);
        t.record(&dec, strikes_on(2));
        for _ in 0..2 {
            let dec = t.plan(ALL);
            t.record(&dec, Some([false; DEVICES]));
        }
        let dec = t.plan(ALL);
        assert!(dec.probed[2], "probe due");
        assert!(t.breaker().health(2).probe_inflight);
        // The probe's record() never arrives. Two more planned requests
        // declare it lost...
        for _ in 0..2 {
            let dec = t.plan(ALL);
            assert!(!dec.probed[2]);
            t.record(&dec, Some([false; DEVICES]));
        }
        assert!(
            !t.breaker().health(2).probe_inflight,
            "lost probe must be released"
        );
        // ...and the next request probes again; a clean verdict closes
        // the breaker as usual.
        let dec = t.plan(ALL);
        assert!(dec.probed[2], "breaker must probe again after a lost probe");
        t.record(&dec, Some([false; DEVICES]));
        let snap = t.breaker().health(2);
        assert!(!snap.quarantined);
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.reintegrations, 1);
    }

    #[test]
    fn never_masks_the_last_capable_device() {
        let cfg = BreakerConfig {
            quarantine_after: 1,
            probe_after: 100,
            ..BreakerConfig::devices()
        };
        let mut t = HealthTracker::new(cfg);
        let only_tpu = [false, false, true];
        let dec = t.plan(only_tpu);
        t.record(&dec, strikes_on(2));
        let dec = t.plan(only_tpu);
        assert_eq!(dec.mask, only_tpu, "last device must stay enabled");
        assert!(!dec.masked_any);
    }

    #[test]
    fn unattributable_failure_releases_probe_without_verdict() {
        let cfg = BreakerConfig {
            quarantine_after: 1,
            probe_after: 0,
            ..BreakerConfig::devices()
        };
        let mut t = HealthTracker::new(cfg);
        let dec = t.plan(ALL);
        t.record(&dec, strikes_on(2));
        let dec = t.plan(ALL);
        assert!(dec.probed[2]);
        t.record(&dec, None);
        let snap = t.breaker().health(2);
        assert!(snap.quarantined);
        assert_eq!(snap.total_strikes, 1, "no verdict, no strike");
    }

    #[test]
    fn struck_probe_restarts_the_clock_after_requests_planned_in_flight() {
        let cfg = BreakerConfig {
            quarantine_after: 1,
            ..BreakerConfig::devices()
        };
        let probe_after = cfg.probe_after;
        let mut t = HealthTracker::new(cfg);
        let dec = t.plan(ALL);
        t.record(&dec, strikes_on(2));
        let probe = loop {
            let dec = t.plan(ALL);
            if dec.probed[2] {
                break dec;
            }
            t.record(&dec, Some([false; DEVICES]));
        };
        // Other executors plan three requests while the probe runs.
        for _ in 0..3 {
            let dec = t.plan(ALL);
            assert!(!dec.mask[2] && !dec.probed[2]);
            t.record(&dec, Some([false; DEVICES]));
        }
        t.record(&probe, strikes_on(2));
        for i in 0..probe_after {
            let dec = t.plan(ALL);
            assert!(
                !dec.probed[2],
                "probe released {i} requests after the verdict"
            );
            t.record(&dec, Some([false; DEVICES]));
        }
        assert!(t.plan(ALL).probed[2], "and then the clock runs out");
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let cfg = BreakerConfig {
            enabled: false,
            ..BreakerConfig::devices()
        };
        let mut t = HealthTracker::new(cfg);
        for _ in 0..10 {
            let dec = t.plan(ALL);
            assert_eq!(dec.mask, ALL);
            assert!(!dec.masked_any);
            t.record(&dec, strikes_on(2));
        }
    }
}
