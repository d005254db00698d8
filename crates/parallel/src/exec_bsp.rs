//! Bulk-synchronous executor: the deterministic reference driver of the
//! distributed MD step. Every rank runs each phase of the shared exchange
//! schedule ([`crate::schedule`]) in lockstep over the [`BspWire`], which
//! delivers each unit the moment it is posted — in a fixed sender-major
//! order, through the scriptable [`FaultPlan`], verified and retried — so
//! fault scripts replay exactly. The driver keeps what is BSP-specific:
//! the executor wall-clock phase timings, the pool fan-out of per-rank
//! compute (with the ghost import run as one more pool task under
//! compute/communication overlap), adaptive rebalancing of the rank grid,
//! and checkpoint restore including re-decomposition onto survivors.

use crate::comm::GhostPlan;
use crate::error::{RuntimeError, SetupError};
use crate::fault::{Delivery, FaultPlan};
use crate::grid::RankGrid;
use crate::health::HealthTracker;
use crate::msg::{Channel, Message};
use crate::rank::{
    best_grid_for, decompose, halo_width_for, validate_decomposition, ForceField, InteriorTask,
    RankState, DEFAULT_RESORT_EVERY,
};
use crate::schedule::{
    absorb_staged, gather_store, slot_channel, sum_results, trace_compute, DeliveryCheck,
    DistMetrics, Schedule, StagedBand, Wire,
};
use crate::transport::CommConfig;
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::checkpoint::{Checkpoint, SnapshotLayout};
use sc_md::supervisor::Recoverable;
use sc_md::{EnergyBreakdown, LaneSlots, Observer, Telemetry, ThreadPool, TupleCounts};
use sc_obs::trace::EventKind;
use sc_obs::{CommCounters, ImbalanceReport, Phase, PhaseBreakdown, Registry, TraceSink, Tracer};
use std::sync::Mutex;
use std::time::Instant;

/// Retries after a failed delivery before escalating (so each hop gets
/// `1 + MAX_RETRIES` attempts). Two retries cover every single-fault
/// scenario that is recoverable in-step (drop, delay-by-one, one-attempt
/// stall) while keeping worst-case latency bounded.
const MAX_RETRIES: u32 = 2;

/// The bulk-synchronous [`Wire`]: every unit is delivered the moment it is
/// posted — through the fault plan, checked ([`DeliveryCheck`]) and
/// retried — and buffered for its receiver until the phase is collected.
///
/// Delivery is sender-major: ranks in order, each rank's units in frame
/// order. Scripted faults and storms fire on the first matching attempt,
/// so this fixed order is what makes a fault script reproducible.
struct BspWire {
    fault: FaultPlan,
    /// Traces health transitions on the executor row.
    check: DeliveryCheck,
    /// Per receiving rank: the current phase's delivered `(from, unit)`s.
    buffers: Vec<Vec<(usize, Message)>>,
}

impl BspWire {
    /// Empties the phase buffers (a failed step can leave units behind)
    /// and sizes them for `nranks` receivers.
    fn reset(&mut self, nranks: usize) {
        self.buffers.resize_with(nranks, Vec::new);
        for b in &mut self.buffers {
            b.clear();
        }
    }

    /// Delivers one unit from `from` to `to` through the fault plan,
    /// retrying (the sender re-sends its buffered copy) up to
    /// [`MAX_RETRIES`] times. Detected faults and retries are charged to
    /// the sender's `stats`.
    fn deliver(
        &mut self,
        epoch: u64,
        (from, to): (usize, usize),
        channel: Channel,
        msg: Message,
        stats: &mut CommCounters,
    ) -> Result<Message, RuntimeError> {
        // Inert plan: the delivery cannot be dropped, delayed, or corrupted,
        // so skip the retransmission copy and hand the message straight
        // across.
        if self.fault.is_inert() {
            self.check.check(Ok(&msg), (from, to), channel, epoch, true)?;
            return Ok(msg);
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 1 {
                stats.retries += 1;
            }
            let last = attempts > MAX_RETRIES;
            // The transit copy may be corrupted; the sender keeps the
            // original for retransmission.
            let got = match self.fault.transmit(epoch, from, msg.clone()) {
                Delivery::Deliver(m) => Ok(m),
                Delivery::Lost { stalled: true } => {
                    Err(RuntimeError::RankStalled { rank: from, epoch, attempts })
                }
                Delivery::Lost { stalled: false } => {
                    Err(RuntimeError::MissingHop { rank: to, channel, epoch, attempts })
                }
            };
            let delivered = got.as_ref().map_err(Clone::clone);
            let Err(e) = self.check.check(delivered, (from, to), channel, epoch, last) else {
                return got;
            };
            stats.faults_detected += 1;
            if last || matches!(e, RuntimeError::RankDead { .. }) {
                return Err(e);
            }
        }
    }
}

impl Wire for BspWire {
    fn post(
        &mut self,
        epoch: u64,
        from: usize,
        units: Vec<(usize, Message)>,
        expected: &[Vec<(usize, Channel)>],
        stats: &mut CommCounters,
    ) -> Result<(), RuntimeError> {
        // This wire holds every rank in order: a held position is a rank id.
        for (to, unit) in units {
            let channel = slot_channel(&expected[to], &self.buffers[to], from, &unit);
            let got = self.deliver(epoch, (from, to), channel, unit, stats)?;
            self.buffers[to].push((from, got));
        }
        Ok(())
    }

    fn collect(
        &mut self,
        _phase: u64,
        _epoch: u64,
        to: usize,
        _expected: &[(usize, Channel)],
    ) -> Result<Vec<(usize, Message)>, RuntimeError> {
        Ok(std::mem::take(&mut self.buffers[to]))
    }
}

/// A distributed MD simulation executed bulk-synchronously: all ranks run
/// each phase in lockstep with messages delivered between phases. Message
/// content and counts are identical to the threaded executor — the two
/// share the exchange schedule and differ only in the wire — so this is
/// the deterministic reference for correctness tests and communication
/// accounting. [`CommConfig`] changes message packing and scheduling, never
/// results.
///
/// Every delivery goes through the [`FaultPlan`] (a no-op by default) and is
/// verified against its stamp on arrival; [`DistributedSim::try_step`]
/// surfaces unrecovered faults as [`RuntimeError`], at which point the state
/// is unspecified and the caller must [`restore`](Recoverable::restore) from
/// a checkpoint before continuing (the `sc-md` `Supervisor` automates this).
pub struct DistributedSim {
    grid: RankGrid,
    plan: GhostPlan,
    ranks: Vec<RankState>,
    ff: ForceField,
    dt: f64,
    subdivision: i32,
    resort_every: u64,
    steps_done: u64,
    needs_prime: bool,
    wire: BspWire,
    comm: CommConfig,
    phase: u64,
    last_energy: EnergyBreakdown,
    last_tuples: TupleCounts,
    timings: PhaseBreakdown,
    pool: ThreadPool,
    // Per-rank (energy, tuples, phases) slots reused every compute call so
    // the compute fan-out allocates nothing in steady state.
    results: Vec<(EnergyBreakdown, TupleCounts, PhaseBreakdown)>,
    /// Per-rank staged ghost bands of the import in flight.
    inbox: Vec<Vec<StagedBand>>,
    registry: Registry,
    obs: DistMetrics,
    tracer: Tracer,
    /// One event sink per rank (per-rank compute phases and comm events).
    tsinks: Vec<TraceSink>,
    /// Executor-level sink for the synchronous wall-clock phases, tagged
    /// with the synthetic rank `nranks` so it gets its own timeline row.
    exec_sink: TraceSink,
    /// Counters of rank sets retired by adaptive rebalancing, folded into
    /// [`DistributedSim::comm_stats`] so aggregate totals stay monotone
    /// across re-decompositions.
    carried: CommCounters,
    /// Per-rank compute-seconds baseline at the last rebalance, so each
    /// rebalance window measures fresh load deltas.
    last_loads: Vec<f64>,
    observer: Option<(u64, Box<dyn Observer>)>,
    /// Set by [`DistributedSim::restore_excluding`]: the runtime lost at
    /// least one rank and is running on a re-decomposed survivor grid.
    degraded: bool,
}

impl DistributedSim {
    /// Decomposes `store` over a `pdims` rank grid.
    ///
    /// # Errors
    /// Rejects configurations where the halo would be deeper than one rank
    /// sub-box (forwarded routing delivers only nearest-neighbour data) or
    /// where the global cell lattice is too small for the largest tuple
    /// order.
    pub fn new(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
    ) -> Result<Self, SetupError> {
        Self::new_subdivided(store, bbox, pdims, ff, dt, 1)
    }

    /// Like [`DistributedSim::new`] with `k`-fold subdivided cells and
    /// reach-k patterns (paper §6) on every rank.
    pub fn new_subdivided(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
        k: i32,
    ) -> Result<Self, SetupError> {
        let grid = RankGrid::try_new(pdims, bbox)?;
        let width = validate_decomposition(&ff, &grid)?;
        let plan = GhostPlan::for_method(ff.method, width)?;
        let ranks = decompose(&grid, &store, &ff, k)?;
        let nranks = ranks.len();
        let registry = Registry::disabled();
        Ok(DistributedSim {
            grid,
            plan,
            ranks,
            ff,
            dt,
            subdivision: k,
            resort_every: DEFAULT_RESORT_EVERY,
            steps_done: 0,
            needs_prime: true,
            wire: BspWire {
                fault: FaultPlan::none(),
                check: DeliveryCheck::new(nranks, TraceSink::disabled()),
                buffers: Vec::new(),
            },
            comm: CommConfig::default(),
            phase: 0,
            last_energy: EnergyBreakdown::default(),
            last_tuples: TupleCounts::default(),
            timings: PhaseBreakdown::default(),
            pool: ThreadPool::auto(),
            results: vec![Default::default(); nranks],
            inbox: Vec::new(),
            obs: DistMetrics::register(&registry),
            registry,
            tracer: Tracer::disabled(),
            tsinks: vec![TraceSink::disabled(); nranks],
            exec_sink: TraceSink::disabled(),
            carried: CommCounters::default(),
            last_loads: vec![0.0; nranks],
            observer: None,
            degraded: false,
        })
    }

    /// Replaces the communication configuration (per-neighbor aggregation,
    /// compute/communication overlap, rebalance cadence). All settings are
    /// bitwise-neutral: they change message packing and scheduling, never
    /// physics.
    pub fn set_comm_config(&mut self, comm: CommConfig) {
        self.comm = comm;
    }

    /// The per-rank health watchdog (state and cumulative transitions).
    pub fn health(&self) -> &HealthTracker {
        &self.wire.check.health
    }

    /// Whether the runtime lost a rank and re-decomposed onto survivors.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Routes this executor's counters and phase timings into `registry`
    /// (per-step deltas: `comm.messages`, `comm.bytes`, `comm.retries`, …,
    /// `health.*`, plus a `comm.step_bytes` histogram and the wall-clock
    /// phase slots).
    pub fn set_metrics(&mut self, registry: Registry) {
        let last_health = self.obs.last_health;
        self.obs = DistMetrics::register(&registry);
        self.obs.last_totals = self.comm_stats();
        self.obs.last_health = last_health;
        self.registry = registry;
    }

    /// The metrics registry in use (disabled unless
    /// [`DistributedSim::set_metrics`] installed a live one).
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Routes event-level tracing through `tracer`: one sink per rank
    /// carries that rank's comm send/recv events and its compute-phase
    /// intervals, and an extra sink tagged with the synthetic rank
    /// `nranks` carries the executor's synchronous wall-clock phases and
    /// health transitions on its own timeline row. Rings are allocated once
    /// here; emitting during stepping never allocates.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.attach_sinks();
    }

    /// Derives the per-rank and executor-row sinks from the installed
    /// tracer for the current rank count.
    fn attach_sinks(&mut self) {
        let nranks = self.ranks.len();
        self.tsinks = (0..nranks).map(|r| self.tracer.sink(r as u32, 0)).collect();
        self.exec_sink = self.tracer.sink(nranks as u32, 0);
        self.wire.check.sink = self.exec_sink.clone();
    }

    /// The tracer in use (disabled unless [`DistributedSim::set_tracer`]
    /// installed a live one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Registers a telemetry observer invoked with a fresh
    /// [`Telemetry`] snapshot after every `every` completed steps.
    ///
    /// # Panics
    /// Panics when `every` is 0.
    pub fn observe_every(&mut self, every: u64, observer: Box<dyn Observer>) {
        assert!(every > 0, "observe_every needs a positive interval");
        self.observer = Some((every, observer));
    }

    /// The unified telemetry snapshot: global energies and tuple counts,
    /// the merged phase breakdown (per-rank CPU seconds for bin / enumerate
    /// / eval / reduce, executor wall clock for exchange / migrate /
    /// integrate / compute), aggregate and per-rank communication counters,
    /// and allocation accounting. The distributed executors do not compute
    /// a virial, so `virial` is 0.
    pub fn telemetry(&self) -> Telemetry {
        let comm = self.comm_stats();
        let mut phases = comm.phases;
        for ph in [Phase::Exchange, Phase::Migrate, Phase::Integrate, Phase::Compute] {
            phases.set(ph, self.timings.get(ph));
        }
        Telemetry {
            step: self.steps_done,
            energy: self.last_energy,
            tuples: self.last_tuples,
            virial: 0.0,
            phases,
            total_phases: phases,
            per_rank: self.ranks.iter().map(|r| r.stats.clone()).collect(),
            comm,
            alloc_events: self.registry.allocation_events(),
            degraded: self.degraded,
        }
    }

    /// The per-rank load-imbalance report: each rank's accepted tuples of
    /// the last force computation, and the Eq. 33 import-volume prediction
    /// `Vω = (l + n − 1)³ − l³` for the largest active tuple order (`l` =
    /// cells per sub-box side at that term's cutoff), so measured ghost
    /// imports can be checked against the paper's model per decomposition.
    pub fn imbalance_report(&self) -> ImbalanceReport {
        let per_rank: Vec<CommCounters> = self.ranks.iter().map(|r| r.stats.clone()).collect();
        let tuples: Vec<u64> = self.results.iter().map(|(_, t, _)| t.total_accepted()).collect();
        let mut rep = ImbalanceReport::from_per_rank(&per_rank).with_tuples(&tuples);
        if let Some((n, rcut)) = self.ff.terms().into_iter().max_by_key(|&(n, _)| n) {
            let sub = self.grid.rank_box_lengths();
            let l = (sub.x.min(sub.y).min(sub.z) / rcut).floor().max(1.0);
            rep = rep.with_import_prediction(l, n as u32);
        }
        rep
    }

    /// The rank grid.
    pub fn grid(&self) -> &RankGrid {
        &self.grid
    }

    /// Installs a fault plan; subsequent deliveries route through it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.wire.fault = plan;
    }

    /// Sets the Morton re-sort cadence: every `every`-th step each rank
    /// permutes its owned atoms into cell Z-order at the ghost-free point of
    /// the step (see [`RankState::resort_owned`]). `0` disables re-sorting.
    /// Default 8, matching the serial engine.
    pub fn set_resort_every(&mut self, every: u64) {
        self.resort_every = every;
    }

    /// The active fault plan (to inspect fired [`crate::FaultEvent`]s).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.wire.fault
    }

    /// Steps completed since construction (or since the restored
    /// checkpoint's step).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Potential energy of the last force computation.
    pub fn potential_energy(&self) -> f64 {
        self.last_energy.total()
    }

    /// Energy breakdown of the last force computation.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        self.last_energy
    }

    /// Tuple statistics of the last force computation (global sums).
    pub fn tuple_counts(&self) -> TupleCounts {
        self.last_tuples
    }

    /// Kinetic energy (global).
    pub fn kinetic_energy(&self) -> f64 {
        self.ranks.iter().map(|r| r.kinetic_energy()).sum()
    }

    /// Total energy; recomputes forces.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault; fault-injected runs
    /// should step through [`DistributedSim::try_step`] instead.
    pub fn total_energy(&mut self) -> f64 {
        self.wire.reset(self.ranks.len());
        self.exchange_and_compute().unwrap_or_else(|e| panic!("{e}"));
        self.potential_energy() + self.kinetic_energy()
    }

    /// Accumulated wall-clock phase breakdown since construction. Under
    /// compute/communication overlap the exchange and compute slots cover
    /// concurrent intervals, so their sum may exceed step wall time.
    pub fn timings(&self) -> PhaseBreakdown {
        self.timings
    }

    /// Aggregated per-rank step-phase breakdown (binning / enumeration /
    /// scratch reduction) since construction — summed per-rank seconds, the
    /// fine-grained view inside the wall-clock compute slot.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        self.comm_stats().phases
    }

    /// Load imbalance: `max(owned) / mean(owned)` across ranks — 1.0 is a
    /// perfect partition.
    pub fn load_imbalance(&self) -> f64 {
        let counts: Vec<usize> = self.ranks.iter().map(|r| r.owned()).collect();
        let max = *counts.iter().max().unwrap_or(&0) as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Aggregated communication statistics since start: the live ranks'
    /// counters plus the totals of rank sets retired by adaptive
    /// rebalancing, so aggregates stay monotone across re-decompositions.
    pub fn comm_stats(&self) -> CommCounters {
        let mut total = self.carried.clone();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }

    /// Per-rank communication statistics (since the last re-decomposition,
    /// if adaptive rebalancing replaced the rank set).
    pub fn rank_stats(&self) -> Vec<&CommCounters> {
        self.ranks.iter().map(|r| &r.stats).collect()
    }

    /// The shared schedule over every rank, and the ranks themselves.
    fn schedule(&mut self) -> (Schedule<'_, BspWire>, &mut [RankState]) {
        let sched = Schedule {
            wire: &mut self.wire,
            grid: &self.grid,
            plan: &self.plan,
            sinks: &self.tsinks,
            aggregation: self.comm.aggregation,
            epoch: self.steps_done,
            phase: &mut self.phase,
        };
        (sched, &mut self.ranks)
    }

    /// The per-rank force-computation fan-out: each pool task owns exactly
    /// one rank slot and one result slot.
    fn compute_all(&mut self) {
        let ff = &self.ff;
        let nranks = self.ranks.len();
        let ranks = LaneSlots::new(self.ranks.as_mut_ptr());
        let out = LaneSlots::new(self.results.as_mut_ptr());
        self.pool.run(nranks, &move |r| {
            // SAFETY: task index r is claimed exactly once per run, so
            // each rank/result slot is touched by a single lane.
            let rank = unsafe { &mut *ranks.get(r) };
            let slot = unsafe { &mut *out.get(r) };
            *slot = rank.compute_forces(ff);
        });
    }

    /// One full ghost-import + force-computation + force-return cycle.
    /// With [`CommConfig::overlap`] the import runs as pool task 0 while
    /// the other tasks compute every rank's interior cells on lattices
    /// extracted via [`RankState::begin_interior`] (the import only reads
    /// the ghost-free rank states); the frontier pass completes the forces
    /// once the staged bands are absorbed. Both paths are bitwise-identical:
    /// sweeps always run interior cells first, then frontier cells, and
    /// ghosts are absorbed in canonical order either way.
    fn exchange_and_compute(&mut self) -> Result<(), RuntimeError> {
        // Overlap needs at least one worker lane to hide the import behind;
        // on a single-lane pool the split would serialize anyway and only
        // pay the second lattice rebuild, so compute after the import
        // (bitwise-identical — see the comm_modes suite).
        let overlap = self.comm.overlap && self.pool.lanes() > 1;
        let t0_ns = if self.tracer.enabled() { self.exec_sink.now_ns() } else { 0 };
        let t0 = Instant::now();
        let nranks = self.ranks.len();
        for r in &mut self.ranks {
            r.drop_ghosts();
        }
        self.inbox.resize_with(nranks, Vec::new);
        for staged in &mut self.inbox {
            staged.clear();
        }
        let mut tasks: Vec<InteriorTask> = if overlap {
            self.ranks.iter_mut().map(|r| r.begin_interior()).collect()
        } else {
            vec![]
        };
        // Sends are recorded straight into the rank counters, taken out for
        // the import because the interior tasks read the rank states.
        let mut sent: Vec<CommCounters> =
            self.ranks.iter_mut().map(|r| std::mem::take(&mut r.stats)).collect();
        let mut sched = Schedule {
            wire: &mut self.wire,
            grid: &self.grid,
            plan: &self.plan,
            sinks: &self.tsinks,
            aggregation: self.comm.aggregation,
            epoch: self.steps_done,
            phase: &mut self.phase,
        };
        let (ranks, inbox, ff) = (&self.ranks, &mut self.inbox, &self.ff);
        let (imported, import_secs, interior_secs) = if overlap {
            // The import rides in a Mutex claimed exactly once by whichever
            // lane draws task 0 — no OS thread spawned per step.
            let import = Mutex::new(Some((&mut sched, &mut sent[..], &mut inbox[..])));
            let outcome = Mutex::new(None);
            let slots = LaneSlots::new(tasks.as_mut_ptr());
            let t_int = Instant::now();
            self.pool.run(nranks + 1, &|t| {
                if t == 0 {
                    let (sched, sent, inbox) = import
                        .lock()
                        .expect("no lane panicked")
                        .take()
                        .expect("the import runs once");
                    let t = Instant::now();
                    let r = sched.import_ghosts(ranks, sent, inbox, || {});
                    *outcome.lock().expect("no lane panicked") =
                        Some((r, t.elapsed().as_secs_f64()));
                } else {
                    // SAFETY: task index t is claimed exactly once per run,
                    // so each task slot is touched by a single lane; the
                    // rank states are only read.
                    let task = unsafe { &mut *slots.get(t - 1) };
                    RankState::run_interior(task, &ranks[t - 1], ff);
                }
            });
            let interior_secs = t_int.elapsed().as_secs_f64();
            let (r, secs) = outcome.into_inner().expect("no lane panicked").expect("task 0 ran");
            (r, secs, interior_secs)
        } else {
            (sched.import_ghosts(ranks, &mut sent, inbox, || {}), 0.0, 0.0)
        };
        for (rank, stats) in self.ranks.iter_mut().zip(sent) {
            rank.stats = stats;
        }
        // Bank the interior passes (also on error, so a checkpoint restore
        // finds the rank states structurally whole).
        for (rank, task) in self.ranks.iter_mut().zip(tasks) {
            rank.finish_interior(task);
        }
        imported?;
        absorb_staged(&mut self.ranks, &mut self.inbox);
        let t1 = Instant::now();
        let compute_start_ns = if overlap {
            t0_ns
        } else if self.tracer.enabled() {
            self.exec_sink.now_ns()
        } else {
            0
        };
        self.record_wall(
            Phase::Exchange,
            if overlap { import_secs } else { (t1 - t0).as_secs_f64() },
        );
        // Frontier (and Hybrid full) computation now that the halo landed;
        // ranks compute independently.
        self.compute_all();
        self.record_wall(Phase::Compute, interior_secs + t1.elapsed().as_secs_f64());
        for (sink, (_, _, phases)) in self.tsinks.iter().zip(&self.results) {
            trace_compute(sink, self.steps_done, compute_start_ns, phases);
        }
        let t2 = Instant::now();
        let (mut sched, ranks) = self.schedule();
        sched.return_forces(ranks)?;
        self.record_wall(Phase::Reduce, t2.elapsed().as_secs_f64());
        (self.last_energy, self.last_tuples) =
            sum_results(self.results.iter().map(|(e, t, _)| (e, t)));
        Ok(())
    }

    /// Closes the adaptive load-balance loop: converts the last window's
    /// per-rank compute seconds into non-uniform axis cuts
    /// ([`RankGrid::rebalanced_cuts`]), validates the candidate grid, and
    /// re-decomposes onto it. Infeasible proposals are skipped — the
    /// simulation keeps its current grid. Retired rank counters fold into
    /// [`DistributedSim::comm_stats`] and forces are recomputed by the
    /// priming exchange.
    fn rebalance(&mut self) {
        let loads: Vec<f64> = self
            .ranks
            .iter()
            .zip(&self.last_loads)
            .map(|(r, last)| (r.stats.phases.compute_total_s() - last).max(0.0))
            .collect();
        self.last_loads = self.ranks.iter().map(|r| r.stats.phases.compute_total_s()).collect();
        let min_width = halo_width_for(&self.ff, &self.grid);
        let Some(cuts) = self.grid.rebalanced_cuts(&loads, 0.5, min_width) else { return };
        let Ok(grid) = RankGrid::with_splits(self.grid.pdims(), *self.grid.bbox(), cuts) else {
            return;
        };
        if validate_decomposition(&self.ff, &grid).is_err() {
            return;
        }
        // A malformed split would lose atoms; keep the old grid.
        let Ok(ranks) = decompose(&grid, &self.gather(), &self.ff, self.subdivision) else {
            return;
        };
        for r in &self.ranks {
            self.carried.merge(&r.stats);
        }
        self.exec_sink.instant(
            self.steps_done,
            EventKind::Redecompose { rank: self.ranks.len() as u32, lost: false },
        );
        self.grid = grid;
        self.ranks = ranks;
        self.last_loads = vec![0.0; self.ranks.len()];
        self.wire.check.health.reset(self.ranks.len());
        self.needs_prime = true;
    }

    /// One velocity-Verlet step, surfacing unrecovered communication faults.
    ///
    /// # Errors
    /// Any [`RuntimeError`] that survived the per-delivery retry budget. On
    /// error the simulation state is unspecified (a phase may have half
    /// run); restore from a checkpoint before stepping again.
    pub fn try_step(&mut self) -> Result<(), RuntimeError> {
        self.wire.reset(self.ranks.len());
        // Rebalance before the priming check: re-decomposition drops the
        // force state, and the priming exchange rebuilds it.
        if self.comm.rebalance_every != 0
            && self.steps_done > 0
            && self.steps_done.is_multiple_of(self.comm.rebalance_every)
        {
            self.rebalance();
        }
        if self.needs_prime {
            self.exchange_and_compute()?;
            self.needs_prime = false;
        }
        let t0 = Instant::now();
        for r in &mut self.ranks {
            r.vv_start(self.dt);
        }
        for r in &mut self.ranks {
            r.drop_ghosts();
        }
        // Ghost-free point: permute owned atoms into cell Z-order before
        // migration rebuilds the halo against the new slot layout.
        if self.resort_every != 0 && self.steps_done.is_multiple_of(self.resort_every) {
            for r in &mut self.ranks {
                r.resort_owned();
            }
        }
        let t1 = Instant::now();
        self.record_wall(Phase::Integrate, (t1 - t0).as_secs_f64());
        let (mut sched, ranks) = self.schedule();
        sched.migrate(ranks)?;
        self.record_wall(Phase::Migrate, t1.elapsed().as_secs_f64());
        self.exchange_and_compute()?;
        let t2 = Instant::now();
        for r in &mut self.ranks {
            r.vv_finish(self.dt);
        }
        self.record_wall(Phase::Integrate, t2.elapsed().as_secs_f64());
        self.steps_done += 1;
        self.feed_metrics();
        if let Some((every, mut observer)) = self.observer.take() {
            if self.steps_done.is_multiple_of(every) {
                observer.observe(&self.telemetry());
            }
            self.observer = Some((every, observer));
        }
        Ok(())
    }

    /// Records a wall-clock phase duration both in the cumulative local
    /// breakdown and in the registry (if one is installed).
    fn record_wall(&mut self, phase: Phase, secs: f64) {
        self.timings.add(phase, secs);
        self.registry.record_phase(phase, secs);
        if self.exec_sink.enabled() {
            let dur_ns = (secs * 1e9) as u64;
            let now = self.exec_sink.now_ns();
            self.exec_sink.phase(self.steps_done, phase, now.saturating_sub(dur_ns), dur_ns);
        }
    }

    /// Feeds the step's communication deltas into the registry.
    fn feed_metrics(&mut self) {
        if !self.registry.enabled() {
            return;
        }
        self.obs.feed(self.comm_stats(), self.wire.check.health.counters());
    }

    /// One velocity-Verlet step.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault; fault-injected runs
    /// should use [`DistributedSim::try_step`].
    pub fn step(&mut self) {
        self.try_step().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Runs `n` steps. Panics like [`DistributedSim::step`] on faults.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Gathers all owned atoms into one store, sorted by global id, with
    /// positions wrapped into the global box — directly comparable with a
    /// serial [`sc_md::Simulation`].
    pub fn gather(&self) -> AtomStore {
        let atoms = self.ranks.iter().flat_map(|r| r.owned_atoms()).collect();
        gather_store(atoms, self.ranks[0].store().species_masses().to_vec())
    }

    /// Re-decomposes a checkpoint onto an arbitrary `pdims` rank grid and
    /// resumes from it: atoms are re-sorted into the new sub-boxes, forces
    /// are recomputed by the priming exchange, and the health watchdog is
    /// resized to the new rank count (its cumulative transition counters
    /// survive). Trace sinks are re-derived from the installed tracer so
    /// the executor row stays at the new synthetic rank `nranks`.
    ///
    /// # Errors
    /// The same feasibility checks as [`DistributedSim::new`]: every halo
    /// must fit in one sub-box and the global lattice must accommodate the
    /// largest tuple order.
    pub fn restore_onto(&mut self, cp: &Checkpoint, pdims: IVec3) -> Result<(), SetupError> {
        let grid = RankGrid::try_new(pdims, cp.bbox())?;
        let width = validate_decomposition(&self.ff, &grid)?;
        let plan = GhostPlan::for_method(self.ff.method, width)?;
        let ranks = decompose(&grid, &cp.to_store(), &self.ff, self.subdivision)?;
        let nranks = ranks.len();
        self.grid = grid;
        self.plan = plan;
        self.results = vec![Default::default(); nranks];
        self.resume(cp, ranks);
        self.attach_sinks();
        // Rank indices mean something new now; per-rank health state from
        // the old grid is unusable (cumulative counters are kept).
        self.wire.check.health.reset(nranks);
        Ok(())
    }

    /// Continues from `cp` on `ranks`, freshly decomposed from it: forces
    /// are recomputed by the priming exchange, and the rebuilt rank
    /// counters restart the delta feed.
    fn resume(&mut self, cp: &Checkpoint, ranks: Vec<RankState>) {
        self.last_loads = vec![0.0; ranks.len()];
        self.ranks = ranks;
        self.dt = cp.dt;
        self.steps_done = cp.step;
        self.needs_prime = true;
        self.last_energy = EnergyBreakdown::default();
        self.last_tuples = TupleCounts::default();
        self.obs.last_totals = CommCounters::default();
        self.carried = CommCounters::default();
    }

    /// The dead-rank recovery path: retires the ranks in `exclude` from
    /// the fault plan (a crashed rank must not be re-killed under its new
    /// number), picks the best feasible grid over the survivors via
    /// [`best_grid_for`], and re-decomposes the checkpoint onto it. On
    /// success the runtime is flagged [`DistributedSim::degraded`] and a
    /// [`EventKind::Redecompose`] instant is traced per lost rank.
    ///
    /// # Errors
    /// Fails when no survivor grid is feasible (even `1×1×1`) or the
    /// re-decomposition itself fails its setup checks.
    pub fn restore_excluding(
        &mut self,
        cp: &Checkpoint,
        exclude: &[usize],
    ) -> Result<(), SetupError> {
        let survivors = self.ranks.len().saturating_sub(exclude.len());
        if survivors == 0 {
            return Err(SetupError::BadRankGrid { pdims: [0, 0, 0] });
        }
        for &r in exclude {
            self.wire.fault.retire_rank(r);
            self.exec_sink
                .instant(self.steps_done, EventKind::Redecompose { rank: r as u32, lost: true });
        }
        let pdims = match best_grid_for(&self.ff, cp.bbox(), survivors) {
            Some(p) => p,
            None => {
                // Even one rank cannot host this system; surface the
                // concrete 1×1×1 setup error as the diagnostic.
                let grid = RankGrid::try_new(IVec3::splat(1), cp.bbox())?;
                return Err(validate_decomposition(&self.ff, &grid)
                    .err()
                    .unwrap_or(SetupError::BadRankGrid { pdims: [1, 1, 1] }));
            }
        };
        self.restore_onto(cp, pdims)?;
        self.degraded = true;
        Ok(())
    }
}

impl Recoverable for DistributedSim {
    type Fault = RuntimeError;

    fn try_step(&mut self) -> Result<(), RuntimeError> {
        DistributedSim::try_step(self)
    }

    fn checkpoint(&self) -> Checkpoint {
        let p = self.grid.pdims();
        Checkpoint::from_store(self.steps_done, self.dt, self.grid.bbox(), &self.gather())
            .with_layout(SnapshotLayout::Grid { pdims: [p.x, p.y, p.z] })
    }

    fn restore(&mut self, cp: &Checkpoint) {
        // Re-decompose from the gathered snapshot: every rank reclaims its
        // atoms and forces are recomputed by the priming exchange, so the
        // trajectory continues from exactly the checkpointed phase-space
        // point (summation order inside a rank may differ from the
        // pre-fault run, so continuation is exact physics, not bitwise).
        let store = cp.to_store();
        let ranks = (0..self.grid.len())
            .map(|r| {
                RankState::new_subdivided(r, self.grid.clone(), &store, &self.ff, self.subdivision)
            })
            .collect();
        self.resume(cp, ranks);
    }

    fn atom_count(&self) -> usize {
        self.ranks.iter().map(|r| r.owned()).sum()
    }

    fn total_energy_estimate(&self) -> f64 {
        self.last_energy.total() + self.kinetic_energy()
    }

    fn state_is_finite(&self) -> bool {
        self.ranks.iter().all(RankState::is_finite)
    }

    fn timestep(&self) -> f64 {
        self.dt
    }

    fn set_timestep(&mut self, dt: f64) {
        self.dt = dt;
    }

    fn steps_done(&self) -> u64 {
        self.steps_done
    }

    fn dead_rank(fault: &RuntimeError) -> Option<usize> {
        match fault {
            RuntimeError::RankDead { rank, .. } => Some(*rank),
            _ => None,
        }
    }

    fn restore_excluding(&mut self, cp: &Checkpoint, exclude: &[usize]) -> Result<(), String> {
        DistributedSim::restore_excluding(self, cp, exclude).map_err(|e| e.to_string())
    }
}
