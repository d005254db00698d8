//! The job service, reached only through a `scmd serve` child process and
//! its JSON-lines protocol: daemon lifetime, the closed-loop client, and
//! the `served-mix` workload.

use crate::check::Ledger;
use crate::spans::Spans;
use crate::stats::{median, p90};
use crate::step::{StepBench, SETUP_REPS, TRACED_OBSERVABILITY};
use crate::workloads::{self, JobKind, JobSequence, JOB_VARIANTS};
use crate::{per_window, vm_hwm_mb, Metrics, RunConfig};
use sc_obs::json::Json;
use sc_serve::client;
use sc_serve::JobId;
use sc_serve::{Request, Response};
use sc_spec::{observables_doc, ScenarioSpec};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Served jobs a run needs: one window of turnarounds.
pub const MIN_JOBS: usize = crate::stats::WINDOW;
/// Longest wait for a daemon to answer its first ping or to exit.
const DAEMON_WAIT: Duration = Duration::from_secs(20);
/// Interval between metrics scrapes of the traced run's sampler.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// A `scmd serve` child with its own socket and state directory. Dropping
/// it kills and reaps the child if [`Daemon::shutdown`] did not.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
    lanes: usize,
}

impl Daemon {
    /// Spawns a daemon under `cfg`'s run directory and waits until it
    /// answers a ping; returns it with the spawn-to-pong seconds.
    pub fn spawn(cfg: &RunConfig, tag: &str) -> Result<(Daemon, f64), String> {
        let dir = cfg.run_dir().join(tag);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let start = Instant::now();
        let child = Command::new(&cfg.scmd)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--lanes", &cfg.lanes.to_string(), "--state"])
            .arg(dir.join("state"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cfg.scmd.display()))?;
        let mut daemon = Daemon { child, socket, dir, lanes: cfg.lanes };
        loop {
            if let Ok(Response::Pong { .. }) = client::request(&daemon.socket, &Request::Ping) {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("scmd serve exited early: {status}"));
            }
            if start.elapsed() > DAEMON_WAIT {
                return Err("scmd serve never answered a ping".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One request/response round trip; daemon errors become `Err`.
    pub fn call(&self, req: &Request) -> Result<Response, String> {
        match client::request(&self.socket, req) {
            Ok(Response::Error { code, message }) => Err(format!("[{code}] {message}")),
            Ok(resp) => Ok(resp),
            Err(e) => Err(format!("daemon request failed: {e}")),
        }
    }

    /// The daemon's peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(self.child.id())
    }

    /// Asks the daemon to stop, waits for it, and removes its directory.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.call(&Request::Shutdown);
        let start = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if start.elapsed() > DAEMON_WAIT {
                return Err("scmd serve did not stop after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        asked.map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One distinct job spec with its standalone reference.
pub struct JobInput {
    /// The spec as parsed JSON, for `Submit`.
    pub spec: Json,
    /// The standalone run's results document, byte for byte.
    pub expected: String,
    /// Wall seconds of the standalone run's steps.
    pub standalone_wall_s: f64,
    /// Atoms in the system.
    pub atoms: usize,
    /// Steps the job runs.
    pub steps: u64,
}

impl JobInput {
    /// Runs `json` standalone (in-process `RunHandle`) to produce the
    /// results document a served run of it must match.
    pub fn standalone(json: &str) -> Result<JobInput, String> {
        let spec = ScenarioSpec::from_json_str(json).map_err(|e| e.to_string())?;
        let mut h = spec.instantiate().map_err(|e| e.to_string())?;
        let start = Instant::now();
        for _ in 0..spec.steps {
            h.try_step()?;
        }
        let standalone_wall_s = start.elapsed().as_secs_f64();
        let energy = h.total_energy();
        let store = h.gather();
        let expected = observables_doc(&spec.name, h.steps_done(), &store, energy).to_string();
        Ok(JobInput {
            spec: Json::parse(json)?,
            expected,
            standalone_wall_s,
            atoms: store.len(),
            steps: spec.steps,
        })
    }
}

/// How long a closed loop runs.
pub struct Plan {
    /// Jobs kept in flight (one per lane).
    pub lanes: usize,
    /// Jobs that must complete before the loop may stop.
    pub min_jobs: usize,
    /// Seconds the loop runs at least.
    pub seconds: f64,
    /// Seconds after which the loop stops submitting regardless.
    pub hard_cap_s: f64,
}

/// What a closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Submit sent → results received, per completed job.
    pub turnaround_s: Vec<f64>,
    /// The daemon's own stepping wall per job (`Status` `wall_ms`).
    pub job_wall_s: Vec<f64>,
    /// Served wall ÷ standalone wall, per job.
    pub overhead: Vec<f64>,
    /// Per-job wall ÷ steps, in ms.
    pub step_ms: Vec<f64>,
    /// `Submit` and `Results` round trips.
    pub submit_s: Vec<f64>,
    pub results_s: Vec<f64>,
    /// Atoms × steps, per job.
    pub atom_steps: Vec<f64>,
    /// Seconds from the previous job's results (the first submit, for the
    /// first job) to each job's, in completion order: the order of every
    /// per-job vector here.
    pub interval_s: Vec<f64>,
    /// Sampled `(lanes busy, queue depth)` gauges (traced runs only).
    pub gauges: Vec<(f64, f64)>,
    /// The daemon's metrics exposition after the loop.
    pub exposition: String,
    /// The daemon's peak RSS (MB) when the `min_jobs`-th job completed:
    /// the daemon keeps finished jobs, so its footprint grows with the
    /// job count and is compared at a fixed count.
    pub peak_rss_mb: f64,
}

/// Blocks until job `id` is terminal: a watch stream with no snapshots
/// ends when the job does (or is refused at once if it already has).
fn wait_terminal(daemon: &Daemon, id: &str) -> Result<(), String> {
    let mut refused = None;
    client::watch(&daemon.socket, id, Some(u64::MAX >> 12), |resp| {
        if let Response::Error { code, message } = resp {
            refused = Some((code.clone(), message.clone()));
        }
        true
    })
    .map_err(|e| format!("watch {id}: {e}"))?;
    match refused {
        Some((code, _)) if code == "not-watchable" => Ok(()),
        Some((code, message)) => Err(format!("watch {id}: [{code}] {message}")),
        None => Ok(()),
    }
}

/// The value of the first exposition sample whose series starts with
/// `series` (name plus optional labels).
fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(series) && l[series.len()..].starts_with([' ', '{']))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The median slice duration from the daemon's cumulative histogram,
/// interpolated linearly inside the bucket that holds it.
fn histogram_median(text: &str, name: &str) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines().filter(|l| l.starts_with(&format!("{name}_bucket{{"))) {
        let le = line.split("le=\"").nth(1)?.split('"').next()?;
        let count: f64 = line.rsplit(' ').next()?.parse().ok()?;
        let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
        buckets.push((le, count));
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    let half = total / 2.0;
    let mut prev = (0.0, 0.0);
    for &(le, count) in &buckets {
        if count >= half && total > 0.0 {
            let hi = if le.is_finite() { le } else { prev.0 };
            let share = if count > prev.1 { (half - prev.1) / (count - prev.1) } else { 1.0 };
            return Some(prev.0 + (hi - prev.0) * share);
        }
        prev = (le, count);
    }
    None
}

/// Keeps one job in flight per lane. A fresh daemon numbers jobs in
/// submit order and pins job `n` to lane `n % lanes`, so the next job is
/// submitted only once its lane is free (at most `plan.lanes` in flight).
/// A waiter thread per job blocks until the job is terminal, so results
/// are fetched the moment a job ends, whatever the order. Each job is
/// checked: it must end `done` and its results document must equal its
/// standalone reference byte for byte. A refused or failed job counts as
/// a failed operation.
pub fn run_loop(
    daemon: &Daemon,
    jobs: &[JobInput],
    mut order: impl Iterator<Item = usize>,
    plan: &Plan,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let stop = AtomicBool::new(false);
    let sampling = spans.enabled();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut gauges = Vec::new();
            while sampling && !stop.load(Ordering::Relaxed) {
                if let Ok(Response::Metrics { text }) = daemon.call(&Request::Metrics) {
                    gauges.push(
                        sample(&text, "serve_lanes_busy").zip(sample(&text, "serve_queue_depth")),
                    );
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            gauges
        });
        let result = drive(scope, daemon, jobs, &mut order, plan, spans, ledger, &mut stats);
        stop.store(true, Ordering::Relaxed);
        let gauges = sampler.join().expect("the metrics sampler does not panic");
        stats.gauges = gauges
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("a metrics scrape lacked serve_lanes_busy or serve_queue_depth")?;
        result
    })?;
    stats.exposition = match daemon.call(&Request::Metrics)? {
        Response::Metrics { text } => text,
        other => return Err(format!("metrics: unexpected {other:?}")),
    };
    Ok(stats)
}

/// A submitted job the loop waits for.
struct InFlight {
    sent: Instant,
    idx: usize,
    lane: usize,
}

#[allow(clippy::too_many_arguments)]
fn drive<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    daemon: &'env Daemon,
    jobs: &[JobInput],
    order: &mut impl Iterator<Item = usize>,
    plan: &Plan,
    spans: &mut Spans,
    ledger: &mut Ledger,
    stats: &mut LoopStats,
) -> Result<(), String> {
    let (ended_tx, ended) = mpsc::channel::<(String, Result<(), String>)>();
    let mut in_flight: HashMap<String, InFlight> = HashMap::new();
    let mut lane_busy = vec![false; daemon.lanes];
    let mut next_id = 0u64;
    let mut completed = 0usize;
    let start = Instant::now();
    let mut last_done = start;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let stopping = (elapsed >= plan.seconds && completed + in_flight.len() >= plan.min_jobs)
            || elapsed >= plan.hard_cap_s;
        let lane = (next_id % daemon.lanes as u64) as usize;
        if !stopping && in_flight.len() < plan.lanes && !lane_busy[lane] {
            let idx = order.next().expect("job sequences are endless");
            let sent = Instant::now();
            let (resp, rtt) = spans.call("serve.submit", || {
                daemon.call(&Request::Submit { spec: jobs[idx].spec.clone() })
            });
            stats.submit_s.push(rtt.as_secs_f64());
            match resp {
                Ok(Response::Submitted { id }) => {
                    let n = JobId::parse(&id)
                        .ok_or_else(|| format!("daemon answered job id {id:?}"))?
                        .0;
                    let lane = (n % daemon.lanes as u64) as usize;
                    lane_busy[lane] = true;
                    next_id = n + 1;
                    in_flight.insert(id.clone(), InFlight { sent, idx, lane });
                    let tx = ended_tx.clone();
                    scope.spawn(move || {
                        let r = wait_terminal(daemon, &id);
                        // The receiver outlives every waiter (scoped threads).
                        let _ = tx.send((id, r));
                    });
                }
                Ok(other) => ledger.op("job", vec![format!("submit answered {other:?}")]),
                Err(e) => ledger.op("job", vec![format!("submit refused: {e}")]),
            }
            continue;
        }
        if in_flight.is_empty() {
            break;
        }
        let (id, waited) = ended.recv().expect("a waiter per in-flight job");
        let job = in_flight.remove(&id).expect("waiters report their own job");
        lane_busy[job.lane] = false;
        let (status, _) =
            spans.call("serve.status", || daemon.call(&Request::Status { id: Some(id.clone()) }));
        let (results, rtt) =
            spans.call("serve.results", || daemon.call(&Request::Results { id: id.clone() }));
        let done = Instant::now();
        let record = match status {
            Ok(Response::Status { jobs }) => jobs.into_iter().next(),
            _ => None,
        };
        let input = &jobs[job.idx];
        let problems = check_job(&id, waited, record.as_ref(), results, &input.expected);
        let wall_ms = record.as_ref().and_then(|r| r.get("wall_ms")).and_then(Json::as_f64);
        let mut problems = problems;
        if wall_ms.is_none() && problems.is_empty() {
            problems.push(format!("{id} status carries no wall_ms"));
        }
        if let (true, Some(wall_ms)) = (problems.is_empty(), wall_ms) {
            let wall_s = wall_ms / 1e3;
            stats.turnaround_s.push((done - job.sent).as_secs_f64());
            stats.interval_s.push((done - last_done).as_secs_f64());
            last_done = done;
            stats.results_s.push(rtt.as_secs_f64());
            stats.job_wall_s.push(wall_s);
            stats.overhead.push(wall_s / input.standalone_wall_s);
            stats.step_ms.push(wall_s * 1e3 / input.steps as f64);
            stats.atom_steps.push((input.atoms as u64 * input.steps) as f64);
            completed += 1;
            if completed == plan.min_jobs {
                stats.peak_rss_mb = daemon.peak_rss_mb()?;
            }
        }
        ledger.op("job", problems);
    }
    if completed == 0 {
        return Err("no served job completed".to_string());
    }
    if completed < plan.min_jobs {
        stats.peak_rss_mb = daemon.peak_rss_mb()?;
    }
    Ok(())
}

/// The checks on one finished job: its waiter saw it end, its status
/// record says `done`, and its results document equals the standalone
/// run's byte for byte.
fn check_job(
    id: &str,
    waited: Result<(), String>,
    record: Option<&Json>,
    results: Result<Response, String>,
    expected: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = waited {
        problems.push(e);
    }
    let field = |k: &str| record.and_then(|r| r.get(k));
    let state = field("state").and_then(Json::as_str).unwrap_or("unknown");
    if state != "done" {
        let error = field("error").and_then(Json::as_str).unwrap_or("");
        problems.push(format!("{id} ended {state} {error}"));
    }
    match results {
        Ok(Response::Results { doc, .. }) if doc.to_string() == expected => {}
        Ok(Response::Results { doc, .. }) => {
            problems.push(format!("{id} results differ from standalone: {doc} vs {expected}"))
        }
        Ok(other) => problems.push(format!("{id} results answered {other:?}")),
        Err(e) => problems.push(format!("{id} results: {e}")),
    }
    problems
}

/// Pushes the `serve.*` layer metrics of a closed loop. A series missing
/// from the daemon's exposition fails the run rather than reading as 0.
pub fn push_serve_metrics(stats: &LoopStats, m: &mut Metrics) -> Result<(), String> {
    let med = |v: &[f64]| median(v).ok_or("no served job completed");
    let text = &stats.exposition;
    let series = |name: &str| sample(text, name).ok_or(format!("exposition lacks {name}"));
    m.push("serve.submit_rtt_ms", med(&stats.submit_s)? * 1e3);
    m.push("serve.results_rtt_ms", med(&stats.results_s)? * 1e3);
    m.push("serve.job_wall_s", med(&stats.job_wall_s)?);
    let waits: Vec<f64> =
        stats.turnaround_s.iter().zip(&stats.job_wall_s).map(|(t, w)| t - w).collect();
    m.push("serve.queue_wait_s", med(&waits)?);
    m.push("serve.overhead_ratio", med(&stats.overhead)?);
    let slice = histogram_median(text, "serve_slice_duration_ms")
        .ok_or("exposition lacks the serve_slice_duration_ms histogram")?;
    m.push("serve.slice_ms_p50", slice);
    if stats.gauges.is_empty() {
        return Err("the metrics sampler took no sample".into());
    }
    let n = stats.gauges.len() as f64;
    m.push("serve.lanes_busy_mean", stats.gauges.iter().map(|g| g.0).sum::<f64>() / n);
    m.push("serve.queue_depth_max", stats.gauges.iter().map(|g| g.1).fold(0.0, f64::max));
    m.push("serve.checkpoints_written", series("serve_checkpoints_written_total")?);
    m.push("serve.manifests_written", series("serve_manifests_written_total")?);
    m.push("serve.backpressure_rejected", series("serve_backpressure_rejected_total")?);
    Ok(())
}

/// The closed loop's end-to-end metrics, each a median over windows of
/// [`crate::stats::WINDOW`] jobs in completion order (see
/// [`per_window`]); a window's rates divide by the time between its
/// first job's predecessor's results and its last job's.
fn push_loop_metrics(stats: &LoopStats, m: &mut Metrics) -> Result<(), String> {
    let gaps = &stats.interval_s;
    let work: Vec<(f64, f64)> =
        stats.atom_steps.iter().copied().zip(gaps.iter().copied()).collect();
    let atom_rate = |w: &[(f64, f64)]| {
        Some(w.iter().map(|x| x.0).sum::<f64>() / w.iter().map(|x| x.1).sum::<f64>())
    };
    let job_rate = |w: &[f64]| Some(w.len() as f64 / w.iter().sum::<f64>());
    m.push("step_ms_p50", per_window("step_ms_p50", &stats.step_ms, median)?);
    m.push("step_ms_p90", per_window("step_ms_p90", &stats.step_ms, p90)?);
    m.push("atom_steps_per_s", per_window("atom_steps_per_s", &work, atom_rate)?);
    m.push(
        "job_turnaround_s_p50",
        per_window("job_turnaround_s_p50", &stats.turnaround_s, median)?,
    );
    m.push("job_turnaround_s_p90", per_window("job_turnaround_s_p90", &stats.turnaround_s, p90)?);
    m.push("jobs_per_s", per_window("jobs_per_s", gaps, job_rate)?);
    m.push("peak_rss_mb", stats.peak_rss_mb);
    Ok(())
}

/// Spawns a daemon, runs one closed loop through it, and stops it.
/// Returns the loop's stats and the daemon's peak RSS.
pub fn serve_once(
    cfg: &RunConfig,
    jobs: &[JobInput],
    order: impl Iterator<Item = usize>,
    plan: &Plan,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Result<LoopStats, String> {
    let (daemon, _) = Daemon::spawn(cfg, "pass")?;
    let stats = run_loop(&daemon, jobs, order, plan, spans, ledger)?;
    daemon.shutdown()?;
    Ok(stats)
}

/// The `served-mix` workload.
pub fn run_mix(cfg: &RunConfig, ledger: &mut Ledger) -> Result<Metrics, String> {
    let traced = cfg.trace;
    let mut spans = Spans::new(cfg.run_id(), traced);
    let specs = workloads::served_specs(cfg.seed, "");
    let jobs = specs
        .iter()
        .map(|j| spans.call("serve.standalone", || JobInput::standalone(&j.json)).0)
        .collect::<Result<Vec<_>, _>>()?;

    // Half the set-ups run before the closed loop (the last daemon serves
    // it) and the rest after it, so their median spans the run rather
    // than one moment of the host.
    let before = SETUP_REPS.div_ceil(2);
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for rep in 0..before {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (d, s) = spans.call("serve.spawn", || Daemon::spawn(cfg, &format!("d{rep}"))).0?;
        setup_s.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let plan = Plan {
        lanes: cfg.lanes,
        min_jobs: MIN_JOBS,
        seconds: cfg.seconds,
        hard_cap_s: cfg.hard_cap_s(),
    };
    let stats = run_loop(&daemon, &jobs, JobSequence::new(cfg.seed), &plan, &mut spans, ledger)?;
    daemon.shutdown()?;
    for rep in before..SETUP_REPS {
        let (d, s) = spans.call("serve.spawn", || Daemon::spawn(cfg, &format!("d{rep}"))).0?;
        setup_s.push(s);
        d.shutdown()?;
    }

    let mut m = Metrics::default();
    if !traced {
        m.push("setup_s", median(&setup_s).expect("SETUP_REPS > 0"));
        push_loop_metrics(&stats, &mut m)?;
        return Ok(m);
    }

    // Traced: the engine layers are timed in-process on the mix's silica
    // SC job (the Hybrid job supplies the list settings), after the
    // daemon has stopped so nothing contends with them.
    push_serve_metrics(&stats, &mut m)?;
    let silica = &specs[JobKind::SilicaSc as usize * JOB_VARIANTS];
    let hybrid = &specs[JobKind::SilicaHybrid as usize * JOB_VARIANTS];
    let traced_json = workloads::served_specs(cfg.seed, TRACED_OBSERVABILITY)
        .swap_remove(JobKind::SilicaSc as usize * JOB_VARIANTS)
        .json;
    let bench = StepBench::from_specs(&silica.json, &traced_json, Vec::new())?;
    let list_spec = ScenarioSpec::from_json_str(&hybrid.json).map_err(|e| e.to_string())?;
    bench.layer_pass(cfg, TRACE_PAIR_SECONDS, &list_spec, &mut spans, ledger, &mut m)?;
    m.push("fail_ratio", ledger.fail_ratio());
    cfg.write_trace(&spans)?;
    Ok(m)
}

/// Seconds the served-mix traced run spends on its in-process
/// plain-versus-traced engine pair.
const TRACE_PAIR_SECONDS: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "# HELP serve_slice_duration_ms x\n\
        serve_lanes_busy 2\n\
        serve_lanes_busy_total 9\n\
        serve_slice_duration_ms_bucket{le=\"1\"} 0\n\
        serve_slice_duration_ms_bucket{le=\"5\"} 10\n\
        serve_slice_duration_ms_bucket{le=\"10\"} 30\n\
        serve_slice_duration_ms_bucket{le=\"+Inf\"} 40\n";

    #[test]
    fn exposition_samples_match_whole_series_names() {
        assert_eq!(sample(EXPOSITION, "serve_lanes_busy"), Some(2.0));
        assert_eq!(sample(EXPOSITION, "serve_lanes_busy_total"), Some(9.0));
        assert_eq!(sample(EXPOSITION, "serve_lanes"), None);
    }

    #[test]
    fn a_served_job_passes_only_when_done_and_byte_equal_to_standalone() {
        let job = JobInput::standalone(&workloads::served_specs(4, "")[0].json).unwrap();
        let doc = Json::parse(&job.expected).unwrap();
        let done = Json::parse(r#"{"id": "job-0", "state": "done", "wall_ms": 12}"#).unwrap();
        let results = || Ok(Response::Results { id: "job-0".into(), doc: doc.clone() });
        assert!(check_job("job-0", Ok(()), Some(&done), results(), &job.expected).is_empty());
        // A tampered reference (one changed byte) fails the job.
        let tampered = job.expected.replacen("0x", "0y", 1);
        assert_eq!(check_job("job-0", Ok(()), Some(&done), results(), &tampered).len(), 1);
        let failed = Json::parse(r#"{"id": "job-0", "state": "failed", "error": "boom"}"#).unwrap();
        assert_eq!(check_job("job-0", Ok(()), Some(&failed), results(), &job.expected).len(), 1);
        let refused = Err("[queue-full] busy".to_string());
        assert_eq!(check_job("job-0", Err("gone".into()), None, refused, &job.expected).len(), 3);
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        // 20 of 40 observations: halfway from 10 (le=5) to 30 (le=10).
        assert_eq!(histogram_median(EXPOSITION, "serve_slice_duration_ms"), Some(7.5));
        assert_eq!(histogram_median("", "serve_slice_duration_ms"), None);
    }
}
