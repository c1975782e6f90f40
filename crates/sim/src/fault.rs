//! Deterministic fault injection: the [`FaultPlan`].
//!
//! The paper's Myth 1 (§2.3.1) hinges on error management happening
//! *inside* the device controller, and Myth 3 on reads stalling behind
//! hidden recovery work. To measure either, media failures must be
//! injectable — and injectable *reproducibly*, or the double-run
//! determinism discipline (CI diffs two runs of every experiment) dies.
//!
//! A [`FaultPlan`] is pure configuration: per-unit raw-bit-error-rate
//! multipliers, per-unit *schedules* of program and erase failures
//! (indices into that unit's operation counter — "the 37th program on
//! LUN 2 fails"), and per-channel transfer hiccups (indices into the
//! channel's grant counter, each adding a fixed delay). Schedules are
//! resolved against deterministic counters the models already maintain,
//! so injection consumes **no random numbers on the simulation path**:
//! a seeded plan is expanded into explicit schedules at *construction*
//! time ([`FaultPlan::seeded`]), and two runs over the same plan replay
//! identically.
//!
//! [`FaultPlan::none`] is the identity: every multiplier is 1.0 (exact
//! in IEEE-754 multiplication), every schedule empty — a zero-fault run
//! is bit-identical to a run of a build that predates fault injection.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// Outcome classification of one host command, threaded through every
/// layer ([`crate::cmd::IoCompletion`], the block stack, the storage
/// manager). Declared here rather than in [`crate::cmd`] so the fault
/// vocabulary is one module, but re-exported at the crate root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum IoStatus {
    /// Completed with no recovery involvement.
    #[default]
    Ok,
    /// Completed, but only after the controller's recovery pipeline ran
    /// (`steps` retry-ladder rungs, ECC escalations, parity-rebuild
    /// reads, or program-fail salvage attempts on the critical path).
    RecoveredAfterRetry {
        /// Recovery actions taken before the command could complete.
        steps: u32,
    },
    /// The device exhausted its recovery pipeline; returned data (if
    /// any) is not the stored data. The command still *completes* — at
    /// full recovery cost — because a real controller burns the time
    /// before giving up.
    Unrecoverable,
    /// The command was refused before reaching the media (illegal
    /// address, device full). No media time was charged.
    Rejected,
}

impl IoStatus {
    /// Stable lowercase name (JSON keys, probe summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            IoStatus::Ok => "ok",
            IoStatus::RecoveredAfterRetry { .. } => "recovered_after_retry",
            IoStatus::Unrecoverable => "unrecoverable",
            IoStatus::Rejected => "rejected",
        }
    }

    /// Whether the command completed with usable data / durable effect.
    pub fn is_success(self) -> bool {
        matches!(self, IoStatus::Ok | IoStatus::RecoveredAfterRetry { .. })
    }

    /// Recovery steps on the critical path (0 unless recovered).
    pub fn steps(self) -> u32 {
        match self {
            IoStatus::RecoveredAfterRetry { steps } => steps,
            _ => 0,
        }
    }

    /// Fold two statuses into the worse one — the status of a compound
    /// operation (a batch, a multi-phase commit) is the worst status of
    /// its parts. `Unrecoverable` dominates `Rejected` (time was burned
    /// *and* data was lost), any failure dominates recovery, and two
    /// recoveries add their step counts (both ladders ran on the
    /// compound command's critical path).
    pub fn combine(self, other: IoStatus) -> IoStatus {
        use IoStatus::*;
        match (self, other) {
            (Unrecoverable, _) | (_, Unrecoverable) => Unrecoverable,
            (Rejected, _) | (_, Rejected) => Rejected,
            (RecoveredAfterRetry { steps: a }, RecoveredAfterRetry { steps: b }) => {
                RecoveredAfterRetry { steps: a + b }
            }
            (s @ RecoveredAfterRetry { .. }, Ok) | (Ok, s @ RecoveredAfterRetry { .. }) => s,
            (Ok, Ok) => Ok,
        }
    }
}

/// Fault schedules for one media unit (one LUN), extracted from a
/// [`FaultPlan`] by [`FaultPlan::unit_view`] and handed to the flash
/// model at construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultView {
    /// Multiplier applied to the computed raw bit error rate of every
    /// read on this unit. 1.0 = no elevation (bit-exact identity).
    pub rber_multiplier: f64,
    /// Sorted indices into the unit's program counter: the *n*-th
    /// program issued to this unit fails (0-based).
    pub program_fail: Vec<u64>,
    /// Sorted indices into the unit's erase counter: the *n*-th erase
    /// issued to this unit fails and retires its block (0-based).
    pub erase_fail: Vec<u64>,
}

impl FaultView {
    /// The identity view: RBER ×1.0, no scheduled failures.
    pub fn none() -> Self {
        FaultView {
            rber_multiplier: 1.0,
            program_fail: Vec::new(),
            erase_fail: Vec::new(),
        }
    }

    /// Whether the view injects nothing.
    pub fn is_none(&self) -> bool {
        self.rber_multiplier == 1.0 && self.program_fail.is_empty() && self.erase_fail.is_empty()
    }
}

fn default_one() -> f64 {
    1.0
}

/// Deterministic fault-injection configuration for one device.
///
/// Everything is expressed as explicit data — multipliers and sorted
/// index schedules — so that applying a plan never consumes randomness
/// on the simulation path. Use [`FaultPlan::seeded`] to expand a seed
/// into schedules up front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RBER multiplier applied to every unit (composed with the
    /// per-unit multipliers below). 1.0 = none.
    #[serde(default = "default_one")]
    pub rber_global: f64,
    /// Extra per-unit RBER multipliers, keyed by unit (LUN) index.
    #[serde(default)]
    pub rber_multiplier: BTreeMap<u32, f64>,
    /// Per-unit program-failure schedules: sorted 0-based indices into
    /// the unit's program counter.
    #[serde(default)]
    pub program_fail: BTreeMap<u32, Vec<u64>>,
    /// Per-unit erase-failure schedules: sorted 0-based indices into
    /// the unit's erase counter.
    #[serde(default)]
    pub erase_fail: BTreeMap<u32, Vec<u64>>,
    /// Per-channel transient hiccups: `(grant index, extra ns)` pairs,
    /// sorted by grant index. The *n*-th transfer granted on that
    /// channel takes `extra ns` longer (a link retrain, a retried
    /// cycle).
    #[serde(default)]
    pub channel_hiccup: BTreeMap<u32, Vec<(u64, u64)>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The identity plan: nothing is injected; simulation output is
    /// bit-identical to a fault-oblivious build.
    pub fn none() -> Self {
        FaultPlan {
            rber_global: default_one(),
            rber_multiplier: BTreeMap::new(),
            program_fail: BTreeMap::new(),
            erase_fail: BTreeMap::new(),
            channel_hiccup: BTreeMap::new(),
        }
    }

    /// Whether this plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.rber_global == 1.0
            && self.rber_multiplier.is_empty()
            && self.program_fail.is_empty()
            && self.erase_fail.is_empty()
            && self.channel_hiccup.is_empty()
    }

    /// A plan elevating RBER uniformly on every unit by `multiplier`.
    pub fn uniform_rber(multiplier: f64) -> Self {
        FaultPlan {
            rber_global: multiplier,
            ..FaultPlan::none()
        }
    }

    /// Builder: elevate RBER on one unit.
    pub fn with_unit_rber(mut self, unit: u32, multiplier: f64) -> Self {
        self.rber_multiplier.insert(unit, multiplier);
        self
    }

    /// Builder: schedule program failures on one unit (indices are
    /// sorted and deduplicated).
    pub fn with_program_fail(mut self, unit: u32, mut indices: Vec<u64>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        self.program_fail.insert(unit, indices);
        self
    }

    /// Builder: schedule erase failures on one unit (indices are sorted
    /// and deduplicated).
    pub fn with_erase_fail(mut self, unit: u32, mut indices: Vec<u64>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        self.erase_fail.insert(unit, indices);
        self
    }

    /// Expand a seed into a concrete plan: uniform RBER elevation plus
    /// randomly placed program-fail / erase-fail schedules and channel
    /// hiccups. All randomness is consumed **here**, at construction —
    /// the resulting plan is plain data and replays identically.
    ///
    /// * `units` / `channels` — device shape;
    /// * `rber_multiplier` — uniform RBER elevation;
    /// * `program_fails_per_unit` — how many scheduled program failures
    ///   each unit receives, placed uniformly in `[0, horizon)` of its
    ///   program counter (`erase_fails_per_unit`, `hiccups_per_channel`
    ///   likewise);
    /// * `horizon` — operation-count window the schedules are drawn
    ///   from.
    #[allow(clippy::too_many_arguments)]
    pub fn seeded(
        seed: u64,
        units: u32,
        channels: u32,
        rber_multiplier: f64,
        program_fails_per_unit: u32,
        erase_fails_per_unit: u32,
        hiccups_per_channel: u32,
        horizon: u64,
    ) -> Self {
        let root = SimRng::from_seed(seed);
        let mut plan = FaultPlan::uniform_rber(rber_multiplier);
        let horizon = horizon.max(1);
        for u in 0..units {
            let mut rng = root.derive(&format!("fault-unit{u}"));
            if program_fails_per_unit > 0 {
                let mut idx: Vec<u64> = (0..program_fails_per_unit)
                    .map(|_| rng.below(horizon))
                    .collect();
                idx.sort_unstable();
                idx.dedup();
                plan.program_fail.insert(u, idx);
            }
            if erase_fails_per_unit > 0 {
                let mut idx: Vec<u64> = (0..erase_fails_per_unit)
                    .map(|_| rng.below(horizon))
                    .collect();
                idx.sort_unstable();
                idx.dedup();
                plan.erase_fail.insert(u, idx);
            }
        }
        for c in 0..channels {
            let mut rng = root.derive(&format!("fault-chan{c}"));
            if hiccups_per_channel > 0 {
                let mut pairs: Vec<(u64, u64)> = (0..hiccups_per_channel)
                    .map(|_| (rng.below(horizon), 1_000 + rng.below(9_000)))
                    .collect();
                pairs.sort_unstable();
                plan.channel_hiccup.insert(c, pairs);
            }
        }
        plan
    }

    /// The fault view of one media unit: composed RBER multiplier plus
    /// that unit's schedules.
    pub fn unit_view(&self, unit: u32) -> FaultView {
        FaultView {
            rber_multiplier: self.rber_global
                * self.rber_multiplier.get(&unit).copied().unwrap_or(1.0),
            program_fail: self.program_fail.get(&unit).cloned().unwrap_or_default(),
            erase_fail: self.erase_fail.get(&unit).cloned().unwrap_or_default(),
        }
    }

    /// The hiccup schedule of one channel (empty when none).
    pub fn channel_view(&self, channel: u32) -> Vec<(u64, u64)> {
        self.channel_hiccup
            .get(&channel)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        let v = p.unit_view(3);
        assert!(v.is_none());
        assert_eq!(v.rber_multiplier, 1.0);
        assert!(p.channel_view(0).is_empty());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let a = FaultPlan::seeded(42, 8, 2, 1e3, 4, 2, 3, 10_000);
        let b = FaultPlan::seeded(42, 8, 2, 1e3, 4, 2, 3, 10_000);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 8, 2, 1e3, 4, 2, 3, 10_000);
        assert_ne!(a, c, "different seeds give different schedules");
        assert!(!a.is_none());
    }

    #[test]
    fn unit_views_compose_multipliers() {
        let p = FaultPlan::uniform_rber(10.0).with_unit_rber(1, 5.0);
        assert_eq!(p.unit_view(0).rber_multiplier, 10.0);
        assert_eq!(p.unit_view(1).rber_multiplier, 50.0);
    }

    #[test]
    fn schedules_sort_and_dedup() {
        let p = FaultPlan::none().with_program_fail(0, vec![9, 3, 3, 7]);
        assert_eq!(p.unit_view(0).program_fail, vec![3, 7, 9]);
    }

    #[test]
    fn status_vocabulary() {
        assert_eq!(IoStatus::Ok.as_str(), "ok");
        assert_eq!(
            IoStatus::RecoveredAfterRetry { steps: 3 }.as_str(),
            "recovered_after_retry"
        );
        assert!(IoStatus::RecoveredAfterRetry { steps: 3 }.is_success());
        assert_eq!(IoStatus::RecoveredAfterRetry { steps: 3 }.steps(), 3);
        assert!(!IoStatus::Unrecoverable.is_success());
        assert_eq!(IoStatus::Rejected.steps(), 0);
        assert_eq!(IoStatus::default(), IoStatus::Ok);
    }
}
