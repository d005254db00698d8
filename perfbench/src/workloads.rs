//! The named workloads and the seeded generation of their inputs.
//! The program only ever sees the scenario documents built here; the
//! workload seed stays on the benchmark side.

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Silica (pair + triplet), 1536 atoms, SC-MD, serial engine, one lane.
    SilicaSerial,
    /// LJ fcc, 1372 atoms, SC-MD, BSP over a 4×4×4 rank grid (N/P ≈ 21).
    LjFinegrainBsp,
    /// The `silica-serial` input on the threaded executor, 2 ranks.
    SilicaThreaded,
    /// A closed-loop job mix through a `scmd serve` child.
    ServedMix,
}

impl Workload {
    /// Every workload: `silica-serial` and `lj-finegrain-bsp` (run on
    /// demand), then the two `BENCHMARK.json` declares, in its order.
    pub const ALL: [Workload; 4] = [
        Workload::SilicaSerial,
        Workload::LjFinegrainBsp,
        Workload::SilicaThreaded,
        Workload::ServedMix,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SilicaSerial => "silica-serial",
            Workload::LjFinegrainBsp => "lj-finegrain-bsp",
            Workload::SilicaThreaded => "silica-threaded",
            Workload::ServedMix => "served-mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, well-mixed generator for seeded input choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A system seed: below 2³⁰, so it survives the JSON number round trip.
    pub fn system_seed(&mut self) -> u64 {
        self.next_u64() >> 34
    }
}

const SILICA_SALT: u64 = 1;
const LJ_SALT: u64 = 2;
const SERVED_SALT: u64 = 3;

fn scenario(name: &str, system: &str, potential: &str, method: &str, extra: &str) -> String {
    format!(
        r#"{{"schema": "sc-scenario/1", "name": "{name}", "system": {system}, "potential": {potential}, "method": "{method}", {extra}}}"#
    )
}

fn silica_system(cells: u64, seed: u64) -> String {
    format!(r#"{{"kind": "silica", "cells": {cells}, "a": 7.16, "temp": 0.05, "seed": {seed}}}"#)
}

fn lj_system(cells: u64, seed: u64) -> String {
    format!(r#"{{"kind": "lj", "cells": {cells}, "a": 1.5599, "temp": 1.0, "seed": {seed}}}"#)
}

const VASHISHTA: &str = r#"{"kind": "vashishta"}"#;
const LJ: &str = r#"{"kind": "lj", "cutoff": 2.5}"#;

/// The scenario document of a step workload (not `served-mix`) on the
/// executor `executor` (a JSON object), with `extra` fields spliced in
/// verbatim. `steps` matters to served jobs only; the benchmark steps its
/// own handles as long as it needs.
pub fn step_spec_on(
    workload: Workload,
    seed: u64,
    executor: &str,
    steps: u64,
    extra: &str,
) -> String {
    let name = workload.name();
    match workload {
        Workload::SilicaSerial | Workload::SilicaThreaded => {
            let system = silica_system(4, Rng::new(seed, SILICA_SALT).system_seed());
            let extra = format!(r#""executor": {executor}, "dt": 0.0005, "steps": {steps}{extra}"#);
            scenario(name, &system, VASHISHTA, "sc", &extra)
        }
        Workload::LjFinegrainBsp => {
            let system = lj_system(7, Rng::new(seed, LJ_SALT).system_seed());
            let extra = format!(r#""executor": {executor}, "dt": 0.002, "steps": {steps}{extra}"#);
            scenario(name, &system, LJ, "sc", &extra)
        }
        Workload::ServedMix => unreachable!("served-mix has no single step spec"),
    }
}

/// The executor a step workload runs on, as a spec JSON object.
pub fn executor_of(workload: Workload) -> &'static str {
    match workload {
        Workload::SilicaSerial => r#"{"kind": "serial", "threads": 1}"#,
        Workload::LjFinegrainBsp => r#"{"kind": "bsp", "grid": [4, 4, 4]}"#,
        Workload::SilicaThreaded => r#"{"kind": "threaded", "grid": [2, 1, 1]}"#,
        Workload::ServedMix => unreachable!("served-mix has no single executor"),
    }
}

/// The scenario document of a step workload.
pub fn step_spec(workload: Workload, seed: u64) -> String {
    step_spec_on(workload, seed, executor_of(workload), 1000, "")
}

/// Checkpoint cadence of served jobs, in steps.
pub const JOB_CHECKPOINT_EVERY: u64 = 8;
/// System-seed variants per job kind; distinct specs = kinds × variants.
pub const JOB_VARIANTS: usize = 2;

/// The three kinds of job in the served mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Silica SC-MD, 648 atoms.
    SilicaSc,
    /// Silica Hybrid-MD with a Verlet skin (the fair Hybrid baseline).
    SilicaHybrid,
    /// LJ SC-MD, 500 atoms.
    LjSc,
}

impl JobKind {
    /// Every kind, in spec-table order.
    pub const ALL: [JobKind; 3] = [JobKind::SilicaSc, JobKind::SilicaHybrid, JobKind::LjSc];

    /// Steps per job, chosen so every kind takes about the same wall
    /// time (≈ 0.1 s on a 2-vCPU Xeon host): job turnaround is then one
    /// mode rather than three, and its median does not jump between them.
    pub fn steps(self) -> u64 {
        match self {
            JobKind::SilicaSc => 12,
            JobKind::SilicaHybrid => 24,
            JobKind::LjSc => 64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            JobKind::SilicaSc => "served-silica-sc",
            JobKind::SilicaHybrid => "served-silica-hybrid",
            JobKind::LjSc => "served-lj-sc",
        }
    }
}

/// One distinct served-job spec.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The scenario document.
    pub json: String,
}

/// The distinct job specs of the served mix for `seed`, kind-major:
/// index `kind * JOB_VARIANTS + variant`. `observability` is spliced in
/// verbatim (empty for none).
pub fn served_specs(seed: u64, observability: &str) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, SERVED_SALT);
    let mut out = Vec::new();
    for kind in JobKind::ALL {
        let tail = format!(
            r#""executor": {{"kind": "serial", "threads": 1}}, "steps": {}, "checkpoint": {{"every": {JOB_CHECKPOINT_EVERY}}}{observability}"#,
            kind.steps()
        );
        for _ in 0..JOB_VARIANTS {
            let s = rng.system_seed();
            let json = match kind {
                JobKind::SilicaSc => scenario(
                    kind.name(),
                    &silica_system(3, s),
                    VASHISHTA,
                    "sc",
                    &format!(r#""dt": 0.0005, {tail}"#),
                ),
                JobKind::SilicaHybrid => scenario(
                    kind.name(),
                    &silica_system(3, s),
                    VASHISHTA,
                    "hybrid",
                    &format!(r#""dt": 0.0005, "verlet_skin": 0.3, {tail}"#),
                ),
                JobKind::LjSc => scenario(
                    kind.name(),
                    &lj_system(5, s),
                    LJ,
                    "sc",
                    &format!(r#""dt": 0.002, {tail}"#),
                ),
            };
            out.push(JobSpec { json });
        }
    }
    out
}

/// The seeded order in which the closed loop submits served jobs:
/// indices into [`served_specs`]. Every block of three holds one job of
/// each kind in a seeded order, so the mix is the same for every seed and
/// only its order and its inputs vary.
pub struct JobSequence {
    rng: Rng,
    block: Vec<usize>,
}

impl JobSequence {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> JobSequence {
        JobSequence { rng: Rng::new(seed, SERVED_SALT + 1), block: Vec::new() }
    }
}

impl Iterator for JobSequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block.is_empty() {
            let mut kinds: Vec<usize> = (0..JobKind::ALL.len()).collect();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, self.rng.below(i + 1));
            }
            self.block = kinds
                .into_iter()
                .map(|k| k * JOB_VARIANTS + self.rng.below(JOB_VARIANTS))
                .rev()
                .collect();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_spec::ScenarioSpec;

    #[test]
    fn every_generated_spec_decodes() {
        for w in [Workload::SilicaSerial, Workload::LjFinegrainBsp, Workload::SilicaThreaded] {
            let spec = ScenarioSpec::from_json_str(&step_spec(w, 7)).unwrap();
            assert_eq!(spec.name, w.name());
        }
        for (obs, traced) in [("", false), (r#", "observability": {"trace": true}"#, true)] {
            let specs = served_specs(7, obs);
            assert_eq!(specs.len(), JobKind::ALL.len() * JOB_VARIANTS);
            for (i, j) in specs.iter().enumerate() {
                let spec = ScenarioSpec::from_json_str(&j.json).unwrap();
                assert_eq!(spec.steps, JobKind::ALL[i / JOB_VARIANTS].steps());
                assert_eq!(spec.observability.trace, traced);
            }
        }
    }

    #[test]
    fn inputs_follow_the_seed_and_only_the_seed() {
        let a = step_spec(Workload::SilicaSerial, 1);
        assert_eq!(a, step_spec(Workload::SilicaSerial, 1));
        assert_ne!(a, step_spec(Workload::SilicaSerial, 2));
        // serial and threaded silica run the identical system.
        let t = step_spec(Workload::SilicaThreaded, 1);
        let sys = |s: &str| ScenarioSpec::from_json_str(s).unwrap().system;
        assert_eq!(sys(&a), sys(&t));
        let seq: Vec<usize> = JobSequence::new(5).take(30).collect();
        assert_eq!(seq, JobSequence::new(5).take(30).collect::<Vec<_>>());
        assert_ne!(seq, JobSequence::new(6).take(30).collect::<Vec<_>>());
    }

    #[test]
    fn every_block_of_three_holds_each_kind_once() {
        let seq: Vec<usize> = JobSequence::new(11).take(300).collect();
        for block in seq.chunks(3) {
            let mut kinds: Vec<usize> = block.iter().map(|i| i / JOB_VARIANTS).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, vec![0, 1, 2]);
        }
    }
}
