//! `sc-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! sc-perfbench --workload NAME --seed N --seconds S --trace 0|1 --scmd PATH
//! ```
//!
//! Runs one workload for `S` seconds on inputs generated from seed `N`,
//! checks every operation's output, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer metrics. `--scmd`
//! names the `scmd` binary the job-service workloads spawn. See
//! `README.md` for the workloads and the metric definitions.

mod check;
mod layers;
mod served;
mod spans;
mod stats;
mod step;
mod workloads;

use check::Ledger;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use step::StepBench;
use workloads::Workload;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("atom_steps_per_s", "1/s"),
    ("job_turnaround_s_p50", "s"),
    ("job_turnaround_s_p90", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.decode_ms", "ms"),
    ("spec.instantiate_s", "s"),
    ("core.pattern_ms", "ms"),
    ("core.pattern_paths", "count"),
    ("core.generate_fs_ms", "ms"),
    ("core.oc_shift_ms", "ms"),
    ("core.r_collapse_ms", "ms"),
    ("cell.rebin_ms", "ms"),
    ("cell.atoms_per_cell", "count"),
    ("cell.morton_sort_ms", "ms"),
    ("md.enumerate_ms", "ms"),
    ("md.eval_ms", "ms"),
    ("md.enumerate_fs_ms", "ms"),
    ("md.enumerate_oc_only_ms", "ms"),
    ("md.enumerate_rc_only_ms", "ms"),
    ("md.candidates_per_step", "count"),
    ("md.accepted_per_step", "count"),
    ("md.accept_ratio", "ratio"),
    ("md.candidates_per_s", "1/s"),
    ("md.compute_forces_ms", "ms"),
    ("md.integrate_ms", "ms"),
    ("md.compute_forces_fs_ms", "ms"),
    ("md.compute_forces_hybrid_ms", "ms"),
    ("md.list_build_ms", "ms"),
    ("md.hybrid_prune_ms", "ms"),
    ("md.list_builds_per_step", "count"),
    ("md.checkpoint_encode_ms", "ms"),
    ("md.checkpoint_decode_ms", "ms"),
    ("md.checkpoint_bytes", "B"),
    ("md.alloc_events", "count"),
    ("parallel.messages_per_step", "count"),
    ("parallel.bytes_per_step", "B"),
    ("parallel.ghosts_per_step", "count"),
    ("parallel.migrated_per_step", "count"),
    ("parallel.frame_pack_us", "us"),
    ("parallel.frame_verify_us", "us"),
    ("parallel.bsp_step_sc_ms", "ms"),
    ("parallel.bsp_step_fs_ms", "ms"),
    ("parallel.imbalance_max_over_mean", "ratio"),
    ("parallel.retries", "count"),
    ("parallel.faults_detected", "count"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.results_rtt_ms", "ms"),
    ("serve.job_wall_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.slice_ms_p50", "ms"),
    ("serve.lanes_busy_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.checkpoints_written", "count"),
    ("serve.manifests_written", "count"),
    ("serve.backpressure_rejected", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Where runs keep daemon state, sockets and trace files (inside the
/// checkout, next to the build).
const OUT_DIR: &str = ".bench_build/perfbench-run";

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// One invocation's settings.
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Seconds the measurement runs (at least).
    pub seconds: f64,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
    /// The `scmd` binary the job-service workloads spawn.
    pub scmd: PathBuf,
    /// Daemon lanes and jobs in flight: the host's parallelism.
    pub lanes: usize,
    /// Directory for daemon state, sockets and trace files.
    pub out_dir: PathBuf,
}

impl RunConfig {
    fn from_args(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
        let args: Vec<String> = args.collect();
        let get = |flag: &str| -> Option<&str> {
            args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
        };
        for pair in args.chunks(2) {
            let known = ["--workload", "--seed", "--seconds", "--trace", "--scmd"];
            if !known.contains(&pair[0].as_str()) || pair.len() != 2 {
                return Err(format!("unexpected argument {:?}", pair[0]));
            }
        }
        let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
        let workload = need("--workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let seed = need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is out of range"));
        }
        let trace = match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            scmd: PathBuf::from(need("--scmd")?),
            lanes: std::thread::available_parallelism().map_or(1, usize::from),
            out_dir: PathBuf::from(OUT_DIR),
        })
    }

    /// `workload-seed`, the run id spans carry.
    pub fn run_id(&self) -> String {
        format!("{}-{}", self.workload.name(), self.seed)
    }

    /// This process's scratch directory (daemon sockets and state).
    pub fn run_dir(&self) -> PathBuf {
        self.out_dir.join(format!("p{}", std::process::id()))
    }

    /// Seconds after which a run stops starting new operations even if it
    /// lacks the samples its tail percentiles want.
    pub fn hard_cap_s(&self) -> f64 {
        1.5 * self.seconds + 20.0
    }

    /// Writes the run's spans to `trace-<run id>.json` in the output
    /// directory.
    pub fn write_trace(&self, spans: &Spans) -> Result<(), String> {
        let path = self.out_dir.join(format!("trace-{}.json", self.run_id()));
        std::fs::write(&path, spans.to_json().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("# spans written to {}", path.display());
        for (name, (count, total, own)) in spans.summary() {
            eprintln!(
                "#   {name:<26} {count:>7} spans {:>10.3} ms total {:>10.3} ms self",
                total * 1e3,
                own * 1e3
            );
        }
        Ok(())
    }
}

/// `stat` over the [`stats::WINDOW`]-sample windows of `samples`, in
/// time order, as [`stats::windowed`] reports it; the window count goes
/// to stderr. Errs when the run has fewer samples than one window.
pub fn per_window<T>(
    name: &str,
    samples: &[T],
    stat: impl Fn(&[T]) -> Option<f64>,
) -> Result<f64, String> {
    let (value, windows) = stats::windowed(samples, stat).ok_or_else(|| {
        format!("{name}: {} samples do not fill a window of {}", samples.len(), stats::WINDOW)
    })?;
    eprintln!("# {name}: median of {windows} windows over {} samples", samples.len());
    Ok(value)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

/// The host facts recorded with every result.
fn host_facts(lanes: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                (lvl.trim() == level)
                    .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
            })
            .map_or_else(|| "?".into(), |s| s.trim().to_string())
    };
    format!("nproc {lanes} | cpu {cpu} | L2 {} | L3 {}", cache("2"), cache("3"))
}

/// Renders the result line, checking that exactly the declared metrics
/// of the run's kind were measured.
fn render(cfg: &RunConfig, ledger: &Ledger, metrics: &Metrics) -> Result<String, String> {
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    if metrics.0.len() != table.len() {
        let names: Vec<_> = metrics.0.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "measured {} metrics, declared {}: {names:?}",
            names.len(),
            table.len()
        ));
    }
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        fields.join(", ")
    ))
}

/// Removes the per-process scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<String, String> {
    let cfg = RunConfig::from_args(std::env::args().skip(1))?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let _scratch = ScratchDir(cfg.run_dir());
    eprintln!("# {} seed {} | {}", cfg.workload.name(), cfg.seed, host_facts(cfg.lanes));
    let mut ledger = Ledger::default();
    let metrics = match cfg.workload {
        Workload::ServedMix => served::run_mix(&cfg, &mut ledger)?,
        w => {
            let bench = StepBench::prepare(w, cfg.seed)?;
            if cfg.trace {
                bench.run_traced(&cfg, &mut ledger)?
            } else {
                bench.run(&cfg, &mut ledger)?
            }
        }
    };
    for m in &ledger.messages {
        eprintln!("# FAILED {m}");
    }
    render(&cfg, &ledger, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_obs::json::Json;

    #[test]
    fn benchmark_json_declares_exactly_the_measured_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        // `silica-serial` and `lj-finegrain-bsp` run on demand only: they
        // spread too widely from run to run (see README.md).
        let ours: Vec<String> = Workload::ALL[2..].iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_strict() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>().into_iter();
        let ok = RunConfig::from_args(args(
            "--workload served-mix --seed 3 --seconds 2 --trace 1 --scmd x",
        ));
        let cfg = ok.unwrap();
        assert!(cfg.trace && cfg.seed == 3 && cfg.workload == Workload::ServedMix);
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 1 --scmd x",
            "--workload served-mix --seed 3 --seconds 2 --trace 2 --scmd x",
            "--workload served-mix --seed -3 --seconds 2 --trace 0 --scmd x",
            "--workload served-mix --seed 3 --seconds 2 --trace 0",
            "--workload served-mix --seed 3 --seconds 2 --trace 0 --scmd x --extra 1",
        ] {
            assert!(RunConfig::from_args(args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn render_refuses_missing_or_non_finite_metrics() {
        let cfg = RunConfig::from_args(
            "--workload silica-serial --seed 1 --seconds 1 --trace 0 --scmd x"
                .split(' ')
                .map(String::from),
        )
        .unwrap();
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.push(name, 1.5 + i as f64);
        }
        let ledger = Ledger { attempted: 3, failed: 1, messages: vec![] };
        let line = render(&cfg, &ledger, &m).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        m.0.pop();
        assert!(render(&cfg, &ledger, &m).is_err());
        m.push("peak_rss_mb", f64::NAN);
        assert!(render(&cfg, &ledger, &m).is_err());
    }
}
