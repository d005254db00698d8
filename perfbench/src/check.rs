//! Correctness checks the benchmark runs on every operation, against the
//! repository's own contracts:
//!
//! - accepted tuple counts equal the brute-force Γ*(2) / Γ*(3) sizes of
//!   the state the forces were computed on (exact);
//! - serial ≡ BSP ≡ threaded: the same input on another executor gives
//!   the same accepted counts and energies to 1e-9 relative and the same
//!   phase space to 1e-7, and the same rank grid on the other distributed
//!   wire gives bitwise-identical phase space and identical comm and
//!   candidate counters;
//! - NVE energy drift stays within [`DRIFT_TOL`];
//! - no transport retries or detected faults in a fault-free run;
//! - a served job's results document is byte-equal to a standalone run.

use sc_cell::AtomStore;
use sc_geom::{SimulationBox, Vec3};
use sc_md::Recoverable;
use sc_spec::{RunHandle, ScenarioSpec};

/// Largest accepted relative drift of total energy from the first step
/// to any later step of one run (NVE, no thermostat). Measured drift on
/// these inputs over 600 steps is about 1.5e-8 for silica and 3e-5 for
/// LJ; the repository's own distributed NVE test uses the same 1e-3.
pub const DRIFT_TOL: f64 = 1e-3;
/// Relative energy agreement required across executors (the
/// repository's serial-vs-distributed tests use this bound).
pub const ENERGY_TOL: f64 = 1e-9;
/// Per-coordinate agreement of positions and velocities across executors.
pub const STATE_TOL: f64 = 1e-7;

/// Failure messages a ledger keeps for stderr.
const MAX_MESSAGES: usize = 8;

/// Counters of one operation's checks, accumulated over a run.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check (or an error).
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Books one operation: failed when `problems` is non-empty.
    pub fn op(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(format!("{label}: {}", problems.join("; ")));
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Pair and (optional) triplet cutoffs of a spec's force field.
#[derive(Debug, Clone, Copy)]
pub struct Cutoffs {
    /// Pair cutoff.
    pub pair: f64,
    /// Triplet cutoff, when the potential has a triplet term.
    pub triplet: Option<f64>,
}

impl Cutoffs {
    /// The cutoffs of `spec`'s force field.
    pub fn of(spec: &ScenarioSpec) -> Cutoffs {
        let ff = spec.force_field();
        Cutoffs {
            pair: ff.pair.as_ref().map_or(0.0, |p| p.cutoff()),
            triplet: ff.triplet.as_ref().map(|t| t.cutoff()),
        }
    }
}

/// Brute-force sizes of Γ*(2) (pairs closer than the pair cutoff) and
/// Γ*(3) (chains whose two legs are shorter than the triplet cutoff),
/// by an O(N²) minimum-image sweep with no cells and no patterns: a
/// vertex with `d` close neighbours heads `d(d-1)/2` chains.
pub fn brute_force_accepted(store: &AtomStore, bbox: &SimulationBox, cut: Cutoffs) -> (u64, u64) {
    let pos = store.positions();
    let rc2 = cut.pair * cut.pair;
    let rc3 = cut.triplet.map_or(-1.0, |r| r * r);
    let mut pairs = 0u64;
    let mut degree = vec![0u64; pos.len()];
    for i in 0..pos.len() {
        for j in (i + 1)..pos.len() {
            let d2 = bbox.dist_sq(pos[i], pos[j]);
            if d2 < rc2 {
                pairs += 1;
            }
            if d2 < rc3 {
                degree[i] += 1;
                degree[j] += 1;
            }
        }
    }
    (pairs, degree.iter().map(|d| d * d.saturating_sub(1) / 2).sum())
}

/// What one step leaves behind that executors must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSig {
    /// Accepted pairs and triplets of the step's force computation.
    pub accepted: (u64, u64),
    /// Candidate pairs and triplets examined.
    pub candidates: (u64, u64),
    /// Total energy (kinetic + the step's potential).
    pub energy: f64,
    /// Cumulative messages, bytes, ghosts imported and atoms migrated.
    pub comm: [u64; 4],
}

impl StepSig {
    /// The signature of the step `h` last completed.
    pub fn of(h: &RunHandle) -> StepSig {
        let t = h.telemetry();
        StepSig {
            accepted: (t.tuples.pair.accepted, t.tuples.triplet.accepted),
            candidates: (t.tuples.pair.candidates, t.tuples.triplet.candidates),
            energy: Recoverable::total_energy_estimate(h),
            comm: [t.comm.messages, t.comm.bytes, t.comm.ghosts_imported, t.comm.atoms_migrated],
        }
    }
}

/// A reference run of the same input on another executor over the
/// run's first steps.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The reference executor, for messages.
    pub label: String,
    /// Whether the bitwise contract applies (same rank grid on the other
    /// distributed wire) or only the physics contract.
    pub bitwise: bool,
    /// One signature per step.
    pub sigs: Vec<StepSig>,
    /// Phase space after the last step, sorted by atom id.
    pub final_state: AtomStore,
}

impl Reference {
    /// Runs `spec_json` for `steps` steps and records the reference.
    pub fn record(
        label: &str,
        spec_json: &str,
        steps: usize,
        bitwise: bool,
    ) -> Result<Reference, String> {
        let spec = ScenarioSpec::from_json_str(spec_json).map_err(|e| e.to_string())?;
        let mut h = spec.instantiate().map_err(|e| e.to_string())?;
        let mut sigs = Vec::with_capacity(steps);
        for _ in 0..steps {
            h.try_step()?;
            sigs.push(StepSig::of(&h));
        }
        let mut final_state = h.gather();
        final_state.sort_by_id();
        Ok(Reference { label: label.to_string(), bitwise, sigs, final_state })
    }

    /// Compares a run's first steps (`sigs`) and its phase space after
    /// them (`state`, any order) against this reference.
    pub fn compare(
        &self,
        sigs: &[StepSig],
        state: &AtomStore,
        bbox: &SimulationBox,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        if sigs.len() != self.sigs.len() {
            problems.push(format!("{}: {} steps vs {}", self.label, sigs.len(), self.sigs.len()));
            return problems;
        }
        for (step, (got, want)) in sigs.iter().zip(&self.sigs).enumerate() {
            let step = step + 1;
            if got.accepted != want.accepted {
                problems.push(format!(
                    "{} step {step}: accepted {:?} vs {:?}",
                    self.label, got.accepted, want.accepted
                ));
            }
            // Energies are reductions whose order differs across
            // executors, so they agree to a tolerance even where the
            // phase space is bitwise identical.
            if (got.energy - want.energy).abs() > ENERGY_TOL * want.energy.abs() {
                problems.push(format!(
                    "{} step {step}: energy {} vs {}",
                    self.label, got.energy, want.energy
                ));
            }
            if self.bitwise && (got.comm != want.comm || got.candidates != want.candidates) {
                problems.push(format!(
                    "{} step {step}: comm {:?} / candidates {:?} vs {:?} / {:?}",
                    self.label, got.comm, got.candidates, want.comm, want.candidates
                ));
            }
        }
        let mut state = state.clone();
        state.sort_by_id();
        let want = &self.final_state;
        if state.ids() != want.ids() {
            problems.push(format!("{}: atom ids differ", self.label));
            return problems;
        }
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let far =
            |a: Vec3, b: Vec3| (a.x - b.x).abs().max((a.y - b.y).abs()).max((a.z - b.z).abs());
        for i in 0..state.len() {
            let (p, q) = (state.positions()[i], want.positions()[i]);
            let (v, w) = (state.velocities()[i], want.velocities()[i]);
            let differs = if self.bitwise {
                bits(p) != bits(q) || bits(v) != bits(w)
            } else {
                bbox.min_image(q, p).norm() > STATE_TOL || far(v, w) > STATE_TOL
            };
            if differs {
                problems.push(format!("{}: atom id {} state differs", self.label, state.ids()[i]));
                break;
            }
        }
        problems
    }
}

/// The checks every stepping operation gets, whatever the executor:
/// exact accepted counts against brute force, energy drift since `e0`,
/// finiteness, atom conservation, and a clean transport.
pub fn step_invariants(
    h: &RunHandle,
    atoms: usize,
    bbox: &SimulationBox,
    cut: Cutoffs,
    e0: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let t = h.telemetry();
    let state = h.gather();
    if state.len() != atoms {
        problems.push(format!("{} atoms, expected {atoms}", state.len()));
    }
    if !Recoverable::state_is_finite(h) {
        problems.push("non-finite phase space".to_string());
    }
    let brute = brute_force_accepted(&state, bbox, cut);
    let got = (t.tuples.pair.accepted, t.tuples.triplet.accepted);
    if got != brute {
        problems.push(format!("accepted {got:?}, brute force {brute:?}"));
    }
    let e = Recoverable::total_energy_estimate(h);
    if !e.is_finite() || (e - e0).abs() > DRIFT_TOL * e0.abs() {
        problems.push(format!("energy drift {e0} -> {e}"));
    }
    if t.comm.retries != 0 || t.comm.faults_detected != 0 {
        problems.push(format!("{} retries, {} faults", t.comm.retries, t.comm.faults_detected));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lj(executor: &str) -> String {
        format!(
            r#"{{"schema": "sc-scenario/1", "name": "t", "system": {{"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 3}}, "potential": {{"kind": "lj", "cutoff": 2.5}}, "method": "sc", "executor": {executor}, "dt": 0.002, "steps": 4}}"#
        )
    }

    #[test]
    fn brute_force_matches_the_engine_and_a_tampered_count_fails() {
        let spec = ScenarioSpec::from_json_str(&lj(r#"{"kind": "serial", "threads": 1}"#)).unwrap();
        let (_, bbox) = spec.build_workload();
        let mut h = spec.instantiate().unwrap();
        h.try_step().unwrap();
        let e0 = Recoverable::total_energy_estimate(&h);
        let cut = Cutoffs::of(&spec);
        assert!(step_invariants(&h, 1372, &bbox, cut, e0).is_empty());
        // A wrong expectation (one atom too many, a pair cutoff off by a
        // hair) must be reported, not absorbed.
        assert!(!step_invariants(&h, 1373, &bbox, cut, e0).is_empty());
        let shifted = Cutoffs { pair: cut.pair * 0.98, ..cut };
        assert!(!step_invariants(&h, 1372, &bbox, shifted, e0).is_empty());
        assert!(!step_invariants(&h, 1372, &bbox, cut, e0 * 1.01).is_empty());
    }

    #[test]
    fn executors_agree_and_tampered_references_fail() {
        let grid = r#"{"kind": "bsp", "grid": [2, 1, 1]}"#;
        let bsp = Reference::record("bsp", &lj(grid), 3, true).unwrap();
        let threaded = lj(r#"{"kind": "threaded", "grid": [2, 1, 1]}"#);
        let run = Reference::record("threaded", &threaded, 3, true).unwrap();
        let (_, bbox) = ScenarioSpec::from_json_str(&threaded).unwrap().build_workload();
        assert_eq!(bsp.compare(&run.sigs, &run.final_state, &bbox), Vec::<String>::new());
        let serial = lj(r#"{"kind": "serial", "threads": 1}"#);
        let physics = Reference::record("serial", &serial, 3, false).unwrap();
        assert_eq!(physics.compare(&run.sigs, &run.final_state, &bbox), Vec::<String>::new());

        let mut tampered = bsp.clone();
        tampered.sigs[1].comm[2] += 1;
        assert_eq!(tampered.compare(&run.sigs, &run.final_state, &bbox).len(), 1);
        let mut tampered = physics.clone();
        tampered.sigs[2].accepted.0 -= 1;
        assert_eq!(tampered.compare(&run.sigs, &run.final_state, &bbox).len(), 1);
        let mut tampered = physics;
        tampered.sigs[0].energy *= 1.0 + 1e-6;
        assert_eq!(tampered.compare(&run.sigs, &run.final_state, &bbox).len(), 1);
    }

    #[test]
    fn ledger_counts_failed_operations() {
        let mut l = Ledger::default();
        l.op("a", vec![]);
        l.op("b", vec!["x".into(), "y".into()]);
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.fail_ratio(), 0.5);
        assert_eq!(l.messages, vec!["b: x; y".to_string()]);
    }
}
