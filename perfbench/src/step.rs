//! The step workloads (`silica-serial`, `lj-finegrain-bsp`,
//! `silica-threaded`): one long-lived `RunHandle` stepped for the run's
//! duration, every operation checked.
//!
//! An operation is a segment of [`SEGMENT`] consecutive steps — one
//! Morton re-sort period, so every segment holds exactly one re-sort step
//! and segment walls are alike. On these workloads a "job" is a segment.

use crate::check::{step_invariants, Cutoffs, Ledger, Reference, StepSig};
use crate::layers::{self, LayerInput};
use crate::served;
use crate::spans::Spans;
use crate::stats::{median, p90};
use crate::workloads::{self, Workload};
use crate::{per_window, vm_hwm_mb, Metrics, RunConfig};
use sc_geom::SimulationBox;
use sc_md::Telemetry;
use sc_spec::{RunHandle, ScenarioSpec};
use std::time::Instant;

/// Steps per operation (the specs' default `resort_every`).
pub const SEGMENT: usize = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Segments an untraced run needs: one window of segment walls.
pub const MIN_SEGMENTS: usize = crate::stats::WINDOW;
/// Steps per job in the traced run's served pass.
const SERVED_PASS_STEPS: u64 = 16;
/// Jobs in the traced run's served pass.
const SERVED_PASS_JOBS: usize = 3;
/// Observability block of the traced engine in the trace-overhead pair.
pub const TRACED_OBSERVABILITY: &str = r#", "observability": {"metrics": true, "trace": true}"#;
const SERIAL: &str = r#"{"kind": "serial", "threads": 1}"#;

/// The reference runs a workload's first segment is compared against:
/// `(label, executor, bitwise)`.
fn reference_executors(workload: Workload) -> Vec<(&'static str, &'static str, bool)> {
    match workload {
        Workload::SilicaSerial => {
            vec![("threaded 2x1x1", r#"{"kind": "threaded", "grid": [2, 1, 1]}"#, false)]
        }
        Workload::SilicaThreaded => vec![
            ("serial", SERIAL, false),
            ("bsp 2x1x1", r#"{"kind": "bsp", "grid": [2, 1, 1]}"#, true),
        ],
        Workload::LjFinegrainBsp => vec![
            ("serial", SERIAL, false),
            ("threaded 4x4x4", r#"{"kind": "threaded", "grid": [4, 4, 4]}"#, true),
        ],
        Workload::ServedMix => unreachable!("served-mix is not a step workload"),
    }
}

/// The executor the served pass runs the workload's input on: its own,
/// except that the job service does not take threaded jobs, so the
/// threaded workload is served on BSP over the same rank grid (the two
/// are bitwise-identical).
fn served_executor(workload: Workload) -> &'static str {
    match workload {
        Workload::SilicaThreaded => r#"{"kind": "bsp", "grid": [2, 1, 1]}"#,
        w => workloads::executor_of(w),
    }
}

/// A step workload prepared for one seed.
pub struct StepBench {
    spec_json: String,
    /// The same input with the program's own metrics and tracer on.
    traced_json: String,
    /// The job the traced run serves (`None` outside the step workloads).
    served_pass_json: Option<String>,
    spec: ScenarioSpec,
    bbox: SimulationBox,
    atoms: usize,
    cut: Cutoffs,
    /// Other-executor runs of the same input over the first segment.
    pub(crate) refs: Vec<Reference>,
}

/// A handle past its priming step, with the set-up times that built it.
struct Primed {
    handle: RunHandle,
    setup_s: f64,
    decode_s: f64,
    instantiate_s: f64,
}

/// One handle being stepped, and what its timed segments produced.
struct Lane {
    name: &'static str,
    handle: RunHandle,
    e0: f64,
    step_s: Vec<f64>,
    segment_s: Vec<f64>,
    /// (candidates, accepted) of the last step of each segment.
    tuples: Vec<(u64, u64)>,
}

impl Lane {
    fn new(name: &'static str, handle: RunHandle, e0: f64) -> Lane {
        Lane { name, handle, e0, step_s: Vec::new(), segment_s: Vec::new(), tuples: Vec::new() }
    }
}

/// Steps one segment, timing each step in an `md.step` span.
fn segment(h: &mut RunHandle, spans: &mut Spans) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(SEGMENT);
    for _ in 0..SEGMENT {
        let (r, d) = spans.call("md.step", || h.try_step());
        r?;
        out.push(d.as_secs_f64());
    }
    Ok(out)
}

impl StepBench {
    /// Generates the workload's input for `seed` and records the
    /// reference runs (untimed).
    pub fn prepare(workload: Workload, seed: u64) -> Result<StepBench, String> {
        let refs = reference_executors(workload)
            .into_iter()
            .map(|(label, exec, bitwise)| {
                let json = workloads::step_spec_on(workload, seed, exec, 1000, "");
                Reference::record(label, &json, SEGMENT, bitwise)
            })
            .collect::<Result<_, _>>()?;
        let exec = workloads::executor_of(workload);
        let traced = workloads::step_spec_on(workload, seed, exec, 1000, TRACED_OBSERVABILITY);
        let mut bench =
            StepBench::from_specs(&workloads::step_spec(workload, seed), &traced, refs)?;
        let checkpoint = format!(r#", "checkpoint": {{"every": {SEGMENT}}}"#);
        let pass = workloads::step_spec_on(
            workload,
            seed,
            served_executor(workload),
            SERVED_PASS_STEPS,
            &checkpoint,
        );
        bench.served_pass_json = Some(pass);
        Ok(bench)
    }

    /// A bench over an explicit spec, its traced twin, and references.
    pub fn from_specs(
        spec_json: &str,
        traced_json: &str,
        refs: Vec<Reference>,
    ) -> Result<StepBench, String> {
        let spec = ScenarioSpec::from_json_str(spec_json).map_err(|e| e.to_string())?;
        let (store, bbox) = spec.build_workload();
        Ok(StepBench {
            spec_json: spec_json.to_string(),
            traced_json: traced_json.to_string(),
            served_pass_json: None,
            cut: Cutoffs::of(&spec),
            atoms: store.len(),
            spec,
            bbox,
            refs,
        })
    }

    /// Decodes, instantiates and primes (first step) a handle, timing
    /// each part.
    fn setup(&self, json: &str, spans: &mut Spans) -> Result<Primed, String> {
        let start = Instant::now();
        let (spec, decode) = spans.call("spec.decode", || ScenarioSpec::from_json_str(json));
        let spec = spec.map_err(|e| e.to_string())?;
        let (handle, instantiate) = spans.call("spec.instantiate", || spec.instantiate());
        let mut handle = handle.map_err(|e| e.to_string())?;
        spans.call("md.first_step", || handle.try_step()).0?;
        Ok(Primed {
            handle,
            setup_s: start.elapsed().as_secs_f64(),
            decode_s: decode.as_secs_f64(),
            instantiate_s: instantiate.as_secs_f64(),
        })
    }

    /// The first operation: the rest of the first segment of the primed
    /// handle `h`, compared step by step against every reference run,
    /// then the common invariants. The energy after the priming step is
    /// the drift baseline.
    fn checked_warm_up(
        &self,
        name: &'static str,
        mut h: RunHandle,
        ledger: &mut Ledger,
    ) -> Result<Lane, String> {
        let mut sigs = vec![StepSig::of(&h)];
        let e0 = sigs[0].energy;
        for _ in 1..SEGMENT {
            if let Err(e) = h.try_step() {
                ledger.op(name, vec![e.clone()]);
                return Err(e);
            }
            sigs.push(StepSig::of(&h));
        }
        let state = h.gather();
        let mut problems: Vec<String> =
            self.refs.iter().flat_map(|r| r.compare(&sigs, &state, &self.bbox)).collect();
        problems.extend(step_invariants(&h, self.atoms, &self.bbox, self.cut, e0));
        ledger.op(name, problems);
        Ok(Lane::new(name, h, e0))
    }

    /// Steps the lanes in turn, one checked segment each, until `seconds`
    /// have passed and every lane has `min_segments` segments (or the hard
    /// cap is reached). `between` runs after every round, untimed, with the
    /// seconds elapsed. A stepping error fails its operation and ends the
    /// loop: the handle cannot be trusted past it; so does an error from
    /// `between`.
    #[allow(clippy::too_many_arguments)]
    fn timed_loop(
        &self,
        lanes: &mut [Lane],
        min_segments: usize,
        seconds: f64,
        hard_cap_s: f64,
        spans: &mut Spans,
        ledger: &mut Ledger,
        between: &mut dyn FnMut(f64, &mut Spans) -> Result<(), String>,
    ) {
        let start = Instant::now();
        loop {
            for lane in lanes.iter_mut() {
                let (steps, _) = spans.time(lane.name, |spans| segment(&mut lane.handle, spans));
                let steps = match steps {
                    Ok(steps) => steps,
                    Err(e) => {
                        ledger.op(lane.name, vec![e]);
                        return;
                    }
                };
                lane.segment_s.push(steps.iter().sum());
                lane.step_s.extend(steps);
                let t = lane.handle.telemetry();
                lane.tuples.push((t.tuples.total_candidates(), t.tuples.total_accepted()));
                let (problems, _) = spans.call("check", || {
                    step_invariants(&lane.handle, self.atoms, &self.bbox, self.cut, lane.e0)
                });
                ledger.op(lane.name, problems);
            }
            if let Err(e) = between(start.elapsed().as_secs_f64(), spans) {
                ledger.op("setup", vec![e]);
                return;
            }
            let elapsed = start.elapsed().as_secs_f64();
            let enough = lanes.iter().all(|l| l.segment_s.len() >= min_segments);
            if (elapsed >= seconds && enough) || elapsed >= hard_cap_s {
                return;
            }
        }
    }

    /// The untraced run: end-to-end metrics. The timed metrics are
    /// medians over windows of the run (see [`per_window`]), and the
    /// [`SETUP_REPS`] set-ups are spread evenly over it (one before the
    /// timed loop, the rest between segments, their handles dropped), so
    /// neither moves with a slow stretch of the host that covers a
    /// minority of the run.
    pub fn run(&self, cfg: &RunConfig, ledger: &mut Ledger) -> Result<Metrics, String> {
        let mut spans = Spans::new(cfg.run_id(), false);
        let primed = self.setup(&self.spec_json, &mut spans)?;
        let mut setup_s = vec![primed.setup_s];
        let mut lane = self.checked_warm_up("segment", primed.handle, ledger)?;
        let every = cfg.seconds / SETUP_REPS as f64;
        let mut extra_setup = |elapsed: f64, spans: &mut Spans| {
            if setup_s.len() < SETUP_REPS && elapsed >= every * setup_s.len() as f64 {
                setup_s.push(self.setup(&self.spec_json, spans)?.setup_s);
            }
            Ok(())
        };
        self.timed_loop(
            std::slice::from_mut(&mut lane),
            MIN_SEGMENTS,
            cfg.seconds,
            cfg.hard_cap_s(),
            &mut spans,
            ledger,
            &mut extra_setup,
        );
        while setup_s.len() < SETUP_REPS {
            setup_s.push(self.setup(&self.spec_json, &mut spans)?.setup_s);
        }
        let atoms = self.atoms as f64;
        let steps = &lane.step_s;
        let segments = &lane.segment_s;
        let rate = |w: &[f64]| Some(w.len() as f64 / w.iter().sum::<f64>());
        let mut m = Metrics::default();
        m.push("setup_s", median(&setup_s).expect("SETUP_REPS > 0"));
        m.push("step_ms_p50", per_window("step_ms_p50", steps, median)? * 1e3);
        m.push("step_ms_p90", per_window("step_ms_p90", steps, p90)? * 1e3);
        m.push("atom_steps_per_s", atoms * per_window("atom_steps_per_s", steps, rate)?);
        m.push("job_turnaround_s_p50", per_window("job_turnaround_s_p50", segments, median)?);
        m.push("job_turnaround_s_p90", per_window("job_turnaround_s_p90", segments, p90)?);
        m.push("jobs_per_s", per_window("jobs_per_s", segments, rate)?);
        m.push("peak_rss_mb", vm_hwm_mb(std::process::id())?);
        Ok(m)
    }

    /// The traced run: per-layer metrics from [`StepBench::layer_pass`],
    /// then the workload's input served through a `scmd serve` child.
    pub fn run_traced(&self, cfg: &RunConfig, ledger: &mut Ledger) -> Result<Metrics, String> {
        let mut spans = Spans::new(cfg.run_id(), true);
        let mut m = Metrics::default();
        self.layer_pass(cfg, cfg.seconds, &self.spec, &mut spans, ledger, &mut m)?;
        let pass_json =
            self.served_pass_json.as_deref().expect("step workloads have a served pass");
        let jobs =
            vec![spans.call("serve.standalone", || served::JobInput::standalone(pass_json)).0?];
        // One job in flight, so the served wall compares with the
        // standalone wall of the same job on an otherwise idle host.
        let plan = served::Plan {
            lanes: 1,
            min_jobs: SERVED_PASS_JOBS,
            seconds: 0.0,
            hard_cap_s: cfg.hard_cap_s(),
        };
        let stats =
            served::serve_once(cfg, &jobs, std::iter::repeat(0), &plan, &mut spans, ledger)?;
        served::push_serve_metrics(&stats, &mut m)?;
        m.push("fail_ratio", ledger.fail_ratio());
        cfg.write_trace(&spans)?;
        Ok(m)
    }

    /// Per-layer metrics of the engine: set-up split into decode and
    /// instantiate; the plain engine and one with the program's own
    /// metrics and tracer on, stepped in alternating checked segments for
    /// `seconds` (their p50 ratio is the tracing overhead, and the plain
    /// engine's telemetry gives the per-step counts); then every layer
    /// call timed on the plain engine's state. `list_spec` supplies the
    /// Hybrid list settings.
    pub fn layer_pass(
        &self,
        cfg: &RunConfig,
        seconds: f64,
        list_spec: &ScenarioSpec,
        spans: &mut Spans,
        ledger: &mut Ledger,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let (mut decode_s, mut instantiate_s) = (Vec::new(), Vec::new());
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            // The previous handle is dropped before the clock starts.
            drop(kept.take());
            let primed = self.setup(&self.spec_json, spans)?;
            decode_s.push(primed.decode_s);
            instantiate_s.push(primed.instantiate_s);
            kept = Some(primed.handle);
        }
        m.push("spec.decode_ms", median(&decode_s).expect("SETUP_REPS > 0") * 1e3);
        m.push("spec.instantiate_s", median(&instantiate_s).expect("SETUP_REPS > 0"));
        let plain = kept.expect("SETUP_REPS > 0");
        let plain = self.checked_warm_up("segment.plain", plain, ledger)?;
        let traced = self.setup(&self.traced_json, &mut Spans::new(cfg.run_id(), false))?;
        let traced = self.checked_warm_up("segment.traced", traced.handle, ledger)?;
        let before = plain.handle.telemetry();
        let mut lanes = [plain, traced];
        self.timed_loop(
            &mut lanes,
            1,
            seconds,
            cfg.hard_cap_s(),
            spans,
            ledger,
            &mut |_, _| Ok(()),
        );
        let [plain, traced] = lanes;
        let after = plain.handle.telemetry();
        self.telemetry_metrics(&plain, &before, &after, m)?;
        let ratio = median(&traced.step_s)
            .zip(median(&plain.step_s))
            .ok_or("the trace-overhead pair stepped no timed segment")?;
        m.push("obs.trace_overhead_ratio", ratio.0 / ratio.1);

        let ranks = after.per_rank.len().max(1) as f64;
        let steps = plain.step_s.len().max(1) as f64;
        let ghosts = (after.comm.ghosts_imported > 0).then(|| {
            (after.comm.ghosts_imported - before.comm.ghosts_imported) as f64 / steps / ranks
        });
        let bsp_json = workloads::step_spec(Workload::LjFinegrainBsp, cfg.seed);
        let bsp_spec = ScenarioSpec::from_json_str(&bsp_json).map_err(|e| e.to_string())?;
        let input = LayerInput {
            spec: &self.spec,
            list_spec,
            handle: &plain.handle,
            ghosts_per_rank_step: ghosts,
            bsp_spec: &bsp_spec,
        };
        spans.time("layers", |spans| layers::measure(&input, spans, m)).0?;
        Ok(())
    }

    /// Counts the program's own telemetry reports over the timed steps.
    fn telemetry_metrics(
        &self,
        lane: &Lane,
        before: &Telemetry,
        after: &Telemetry,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let n = lane.tuples.len().max(1) as f64;
        let candidates = lane.tuples.iter().map(|t| t.0 as f64).sum::<f64>() / n;
        let accepted = lane.tuples.iter().map(|t| t.1 as f64).sum::<f64>() / n;
        m.push("md.candidates_per_step", candidates);
        m.push("md.accepted_per_step", accepted);
        m.push("md.accept_ratio", accepted / candidates);
        m.push("md.alloc_events", (after.alloc_events - before.alloc_events) as f64);
        let steps = lane.step_s.len().max(1) as f64;
        let per_step = |a: u64, b: u64| (a - b) as f64 / steps;
        m.push("parallel.messages_per_step", per_step(after.comm.messages, before.comm.messages));
        m.push("parallel.bytes_per_step", per_step(after.comm.bytes, before.comm.bytes));
        m.push(
            "parallel.ghosts_per_step",
            per_step(after.comm.ghosts_imported, before.comm.ghosts_imported),
        );
        m.push(
            "parallel.migrated_per_step",
            per_step(after.comm.atoms_migrated, before.comm.atoms_migrated),
        );
        // A serial engine is one rank and keeps no per-rank table: its
        // slowest rank is its mean. A distributed engine must report one.
        let imbalance = match after.imbalance() {
            Some(r) => r.compute_imbalance(),
            None if lane.handle.executor_kind() == "serial" => 1.0,
            None => return Err("a distributed engine reported no per-rank telemetry".into()),
        };
        m.push("parallel.imbalance_max_over_mean", imbalance);
        m.push("parallel.retries", after.comm.retries as f64);
        m.push("parallel.faults_detected", after.comm.faults_detected as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LJ: &str = r#"{"schema": "sc-scenario/1", "name": "t", "system": {"kind": "lj", "cells": 7, "a": 1.5599, "temp": 1.0, "seed": 9}, "potential": {"kind": "lj", "cutoff": 2.5}, "method": "sc", "executor": EXEC, "dt": 0.002, "steps": 8}"#;

    fn lj(exec: &str) -> String {
        LJ.replace("EXEC", exec)
    }

    /// Runs the warm-up operation and one timed segment of a BSP run
    /// against its serial and threaded references; returns the ledger.
    fn checked_run(tamper: impl FnOnce(&mut Vec<Reference>)) -> Ledger {
        let mut refs = vec![
            Reference::record("serial", &lj(SERIAL), SEGMENT, false).unwrap(),
            Reference::record(
                "threaded",
                &lj(r#"{"kind": "threaded", "grid": [2, 1, 1]}"#),
                SEGMENT,
                true,
            )
            .unwrap(),
        ];
        tamper(&mut refs);
        let bsp = lj(r#"{"kind": "bsp", "grid": [2, 1, 1]}"#);
        let bench = StepBench::from_specs(&bsp, &bsp, refs).unwrap();
        let mut ledger = Ledger::default();
        let mut h = bench.spec.instantiate().unwrap();
        h.try_step().unwrap();
        let lane = bench.checked_warm_up("segment", h, &mut ledger).unwrap();
        let spans = &mut Spans::new("t", false);
        bench.timed_loop(&mut [lane], 1, 0.0, 60.0, spans, &mut ledger, &mut |_, _| Ok(()));
        ledger
    }

    #[test]
    fn checked_operations_pass_on_the_real_engines() {
        let ledger = checked_run(|_| {});
        assert_eq!((ledger.attempted, ledger.failed), (2, 0), "{:?}", ledger.messages);
        assert_eq!(ledger.fail_ratio(), 0.0);
    }

    #[test]
    fn a_tampered_reference_makes_fail_ratio_positive() {
        let ledger = checked_run(|refs| refs[1].sigs[3].comm[1] += 8);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert!(ledger.fail_ratio() > 0.0);
        assert!(ledger.messages[0].contains("threaded step 4"), "{:?}", ledger.messages);
        let ledger = checked_run(|refs| refs[0].sigs[7].accepted.0 += 1);
        assert!(ledger.fail_ratio() > 0.0, "{:?}", ledger.messages);
    }
}
