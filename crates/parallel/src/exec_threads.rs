//! Threaded executor: one OS thread per rank, crossbeam channels as the
//! interconnect — true concurrent message passing over the same exchange
//! schedule ([`crate::schedule`]) as the BSP executor, and therefore
//! bitwise-identical physics and equal counters.
//!
//! Each worker drives the shared phase bodies over the one rank it holds;
//! the channel wire ([`Mailbox`]) posts units to the peers' channels and
//! collects its own, verifying every unit (per section for aggregated
//! frames) and feeding a per-peer health watchdog through the same check
//! as the BSP wire. The executor is persistent: workers live across steps
//! and are driven by a per-rank command channel, so it can step, gather,
//! checkpoint, and restore like [`crate::DistributedSim`], and both hide
//! behind one `Executor` surface in `sc-spec`. Deterministic fault
//! *injection* lives in the BSP executor only (scripted faults need a
//! reproducible delivery order, which concurrent threads cannot provide).

use crate::comm::GhostPlan;
use crate::error::{RuntimeError, SetupError};
use crate::grid::RankGrid;
use crate::health::HealthCounters;
use crate::msg::{AtomMsg, Channel, Message, Payload};
use crate::rank::{decompose, validate_decomposition, ForceField, RankState, DEFAULT_RESORT_EVERY};
use crate::schedule::{
    absorb_staged, gather_store, slot_channel, sum_results, trace_compute, DeliveryCheck,
    DistMetrics, Schedule, StagedBand, Wire,
};
use crate::transport::CommConfig;
use crossbeam_channel::{unbounded, Receiver, Sender};
use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox};
use sc_md::checkpoint::{Checkpoint, SnapshotLayout};
use sc_md::supervisor::Recoverable;
use sc_md::{EnergyBreakdown, Telemetry, TupleCounts};
use sc_obs::{CommCounters, Phase, Registry, TraceSink, Tracer};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A wire unit tagged with its sending rank.
type Unit = (usize, Message);

/// Sentinel phase the controller broadcasts to unblock workers whose peer
/// unwound mid-protocol; a mailbox seeing it fails its pending receive.
const POISON_PHASE: u64 = u64::MAX;

/// A command from the controller to one worker thread. Workers process
/// commands strictly in order; every `Step` / `Energy` / `Gather` produces
/// exactly one reply.
enum Cmd {
    /// Run one velocity-Verlet step (priming forces first if needed).
    Step { dt: f64, resort: bool, comm: CommConfig },
    /// Recompute forces without integrating and report fresh energies.
    Energy { comm: CommConfig },
    /// Report this rank's owned atoms for a global gather.
    Gather,
    /// Install a new trace sink (fire-and-forget, no reply).
    Sink(TraceSink),
    /// Exit the worker loop.
    Stop,
}

/// A worker's per-step report back to the controller: everything the
/// executor needs to serve telemetry, metrics, supervision invariants, and
/// energy queries without another round-trip.
#[derive(Clone, Default)]
struct StepView {
    energy: EnergyBreakdown,
    tuples: TupleCounts,
    kinetic: f64,
    owned: usize,
    finite: bool,
    stats: CommCounters,
    health: HealthCounters,
}

/// One reply per `Step` / `Energy` / `Gather` command, tagged with the
/// worker's rank on the shared reply channel.
enum Reply {
    Step(Box<StepView>),
    Gather { atoms: Vec<AtomMsg>, masses: Vec<f64> },
    Failed(RuntimeError),
}

/// The channel [`Wire`] of one worker: senders to every rank, its own
/// receiver, and a pending buffer for out-of-phase units — a fast
/// neighbour may send phase k+1 traffic while this rank still waits on
/// phase k from a slow one.
struct Mailbox {
    rank: usize,
    txs: Vec<Sender<Unit>>,
    rx: Receiver<Unit>,
    pending: Vec<Unit>,
    /// Per-peer watchdog, traced on this rank's row: a stamp failure marks
    /// the sender suspect, and the flap breaker can declare a peer dead
    /// from the receive path alone.
    check: DeliveryCheck,
}

impl Mailbox {
    /// Pulls the next unit stamped with `phase`, from the pending buffer or
    /// the channel. A poison sentinel or a closed channel means a peer
    /// unwound mid-protocol and the slot can never fill.
    fn next_unit(&mut self, phase: u64, epoch: u64, slot0: Channel) -> Result<Unit, RuntimeError> {
        let missing =
            RuntimeError::MissingHop { rank: self.rank, channel: slot0, epoch, attempts: 1 };
        loop {
            let wanted = |m: &Message| m.phase == phase || m.phase == POISON_PHASE;
            let (from, m) = match self.pending.iter().position(|(_, m)| wanted(m)) {
                Some(pos) => self.pending.swap_remove(pos),
                None => self.rx.recv().map_err(|_| missing.clone())?,
            };
            match m.phase {
                POISON_PHASE => return Err(missing),
                p if p == phase => return Ok((from, m)),
                _ => self.pending.push((from, m)),
            }
        }
    }
}

impl Wire for Mailbox {
    /// Puts the units on the peers' channels. A send can fail only when the
    /// peer already unwound with its own error; this rank then errors on
    /// its next receive.
    fn post(
        &mut self,
        _epoch: u64,
        from: usize,
        units: Vec<(usize, Message)>,
        _expected: &[Vec<(usize, Channel)>],
        _stats: &mut CommCounters,
    ) -> Result<(), RuntimeError> {
        for (to, unit) in units {
            let _ = self.txs[to].send((from, unit));
        }
        Ok(())
    }

    /// Receives the phase's expected units in whatever order they arrive;
    /// per-sender channel order is FIFO, so each source's units arrive in
    /// send order.
    fn collect(
        &mut self,
        phase: u64,
        epoch: u64,
        to: usize,
        expected: &[(usize, Channel)],
    ) -> Result<Vec<Unit>, RuntimeError> {
        let mut units: Vec<Unit> = Vec::with_capacity(expected.len());
        while units.len() < expected.len() {
            let (from, m) = self.next_unit(phase, epoch, expected[0].1)?;
            let channel = slot_channel(expected, &units, from, &m);
            self.check.check(Ok(&m), (from, to), channel, epoch, true)?;
            units.push((from, m));
        }
        Ok(units)
    }
}

/// The per-rank worker: rank state plus its end of the interconnect.
struct Worker {
    state: RankState,
    grid: RankGrid,
    plan: GhostPlan,
    ff: Arc<ForceField>,
    mailbox: Mailbox,
    /// This rank's trace sink (phases, Send/Recv).
    tsink: TraceSink,
    /// Staged ghost bands of the import in flight.
    inbox: Vec<StagedBand>,
    phase: u64,
    steps_done: u64,
    needs_prime: bool,
}

impl Worker {
    /// The shared schedule over this worker's rank, the rank, and its
    /// staged-import inbox.
    fn schedule(
        &mut self,
        comm: CommConfig,
        epoch: u64,
    ) -> (Schedule<'_, Mailbox>, &mut RankState, &mut Vec<StagedBand>) {
        let sched = Schedule {
            wire: &mut self.mailbox,
            grid: &self.grid,
            plan: &self.plan,
            sinks: std::slice::from_ref(&self.tsink),
            aggregation: comm.aggregation,
            epoch,
            phase: &mut self.phase,
        };
        (sched, &mut self.state, &mut self.inbox)
    }

    /// One full ghost-import + force-computation + force-return cycle on
    /// this rank. With overlap on, the interior tuples are computed between
    /// posting the first ghost phase and blocking on its arrivals, hiding
    /// peer latency.
    fn exchange_and_compute(
        &mut self,
        comm: CommConfig,
        epoch: u64,
    ) -> Result<(EnergyBreakdown, TupleCounts), RuntimeError> {
        let t_ex = Instant::now();
        let ex0 = self.tsink.now_ns();
        self.state.drop_ghosts();
        let mut task = comm.overlap.then(|| self.state.begin_interior());
        let mut interior_secs = 0.0;
        // The import only reads the rank; its sends are recorded in the
        // rank counters, taken out meanwhile.
        let mut sent = std::mem::take(&mut self.state.stats);
        let ff = Arc::clone(&self.ff);
        let (mut sched, state, inbox) = self.schedule(comm, epoch);
        let state = &*state;
        let imported = sched.import_ghosts(
            std::slice::from_ref(state),
            std::slice::from_mut(&mut sent),
            std::slice::from_mut(inbox),
            || {
                if let Some(task) = task.as_mut() {
                    let t_int = Instant::now();
                    RankState::run_interior(task, state, &ff);
                    interior_secs = t_int.elapsed().as_secs_f64();
                }
            },
        );
        self.state.stats = sent;
        if let Some(task) = task {
            self.state.finish_interior(task);
        }
        imported?;
        absorb_staged(std::slice::from_mut(&mut self.state), std::slice::from_mut(&mut self.inbox));
        // The interior pass is compute, not communication, even though it
        // ran inside the exchange window.
        let exchange_secs = (t_ex.elapsed().as_secs_f64() - interior_secs).max(0.0);
        self.state.stats.phases.add(Phase::Exchange, exchange_secs);
        self.tsink.phase(epoch, Phase::Exchange, ex0, self.tsink.now_ns().saturating_sub(ex0));
        let c0 = self.tsink.now_ns();
        let (energy, tuples, phases) = self.state.compute_forces(&self.ff);
        trace_compute(&self.tsink, epoch, c0, &phases);
        let t_red = Instant::now();
        let r0 = self.tsink.now_ns();
        let (mut sched, state, _) = self.schedule(comm, epoch);
        sched.return_forces(std::slice::from_mut(state))?;
        // The reverse ghost-force reduction is communication too; fold it
        // into the exchange slot of this rank's breakdown.
        self.state.stats.phases.add(Phase::Exchange, t_red.elapsed().as_secs_f64());
        self.tsink.phase(epoch, Phase::Reduce, r0, self.tsink.now_ns().saturating_sub(r0));
        Ok((energy, tuples))
    }

    /// One velocity-Verlet step (priming forces first when needed).
    fn step(
        &mut self,
        dt: f64,
        resort: bool,
        comm: CommConfig,
    ) -> Result<Box<StepView>, RuntimeError> {
        let epoch = self.steps_done;
        if self.needs_prime {
            self.exchange_and_compute(comm, epoch)?;
            self.needs_prime = false;
        }
        let t0 = Instant::now();
        let i0 = self.tsink.now_ns();
        self.state.vv_start(dt);
        self.state.drop_ghosts();
        // Ghost-free point: same re-sort schedule as the BSP executor, so
        // slot layouts (and hence accumulation order) stay identical.
        if resort {
            self.state.resort_owned();
        }
        self.state.stats.phases.add(Phase::Integrate, t0.elapsed().as_secs_f64());
        self.tsink.phase(epoch, Phase::Integrate, i0, self.tsink.now_ns().saturating_sub(i0));
        let t1 = Instant::now();
        let m0 = self.tsink.now_ns();
        let (mut sched, state, _) = self.schedule(comm, epoch);
        sched.migrate(std::slice::from_mut(state))?;
        self.state.stats.phases.add(Phase::Migrate, t1.elapsed().as_secs_f64());
        self.tsink.phase(epoch, Phase::Migrate, m0, self.tsink.now_ns().saturating_sub(m0));
        let (energy, tuples) = self.exchange_and_compute(comm, epoch)?;
        let t2 = Instant::now();
        let f0 = self.tsink.now_ns();
        self.state.vv_finish(dt);
        self.state.stats.phases.add(Phase::Integrate, t2.elapsed().as_secs_f64());
        self.tsink.phase(epoch, Phase::Integrate, f0, self.tsink.now_ns().saturating_sub(f0));
        self.steps_done += 1;
        Ok(self.view(energy, tuples))
    }

    /// The post-command report: fresh energies plus the supervision
    /// invariants (atom count, finiteness) so the controller never needs a
    /// second round-trip to answer them.
    fn view(&self, energy: EnergyBreakdown, tuples: TupleCounts) -> Box<StepView> {
        Box::new(StepView {
            energy,
            tuples,
            kinetic: self.state.kinetic_energy(),
            owned: self.state.owned(),
            finite: self.state.is_finite(),
            stats: self.state.stats.clone(),
            health: self.mailbox.check.health.counters(),
        })
    }
}

/// The worker thread body: drain commands until `Stop` or a failed step.
/// A failed step replies `Failed` and exits, dropping this rank's channel
/// endpoints; the controller then poisons the survivors so nobody blocks
/// on a slot that can never fill.
fn worker_main(mut w: Worker, cmd_rx: Receiver<Cmd>, reply_tx: Sender<(usize, Reply)>) {
    while let Ok(cmd) = cmd_rx.recv() {
        let done = match cmd {
            Cmd::Stop => return,
            Cmd::Sink(sink) => {
                w.tsink = sink.clone();
                w.mailbox.check.sink = sink;
                continue;
            }
            Cmd::Gather => {
                let atoms = w.state.owned_atoms();
                let masses = w.state.store().species_masses().to_vec();
                let _ = reply_tx.send((w.state.rank, Reply::Gather { atoms, masses }));
                continue;
            }
            Cmd::Step { dt, resort, comm } => w.step(dt, resort, comm),
            // Fresh forces without integrating; deliberately does NOT clear
            // the priming flag, matching the BSP executor's total_energy (so
            // both executors run the same number of exchange cycles).
            Cmd::Energy { comm } => {
                w.exchange_and_compute(comm, w.steps_done).map(|(e, t)| w.view(e, t))
            }
        };
        let failed = done.is_err();
        let _ = reply_tx.send((w.state.rank, done.map_or_else(Reply::Failed, Reply::Step)));
        if failed {
            return;
        }
    }
}

/// A distributed MD simulation with one persistent OS thread per rank and
/// channels as the interconnect. Steps, telemetry, gather, checkpoint, and
/// restore mirror [`crate::DistributedSim`]; physics is bitwise-identical
/// between the two executors (and across all [`CommConfig`] packing modes).
pub struct ThreadedSim {
    grid: RankGrid,
    ff: Arc<ForceField>,
    dt: f64,
    subdivision: i32,
    resort_every: u64,
    comm: CommConfig,
    steps_done: u64,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rx: Receiver<(usize, Reply)>,
    reply_tx: Sender<(usize, Reply)>,
    /// Controller-held clones of the data senders, used to poison blocked
    /// workers when one fails mid-protocol.
    data_txs: Vec<Sender<Unit>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-rank report from the most recent step/energy command.
    cached: Vec<StepView>,
    /// Set when the worker pool died mid-step; only `restore` revives it.
    dead: Option<RuntimeError>,
    registry: Registry,
    obs: DistMetrics,
    tracer: Tracer,
}

impl ThreadedSim {
    /// Decomposes `store` over a `pdims` rank grid and spawns one worker
    /// thread per rank.
    ///
    /// # Errors
    /// The same feasibility checks as [`crate::DistributedSim::new`]
    /// (shared helpers).
    pub fn new(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
    ) -> Result<Self, SetupError> {
        Self::new_subdivided(store, bbox, pdims, ff, dt, 1)
    }

    /// Like [`ThreadedSim::new`] with `k`-fold subdivided cells and reach-k
    /// patterns (paper §6) on every rank.
    pub fn new_subdivided(
        store: AtomStore,
        bbox: SimulationBox,
        pdims: IVec3,
        ff: ForceField,
        dt: f64,
        k: i32,
    ) -> Result<Self, SetupError> {
        let grid = RankGrid::try_new(pdims, bbox)?;
        let (reply_tx, reply_rx) = unbounded();
        let registry = Registry::disabled();
        let mut sim = ThreadedSim {
            grid,
            ff: Arc::new(ff),
            dt,
            subdivision: k,
            resort_every: DEFAULT_RESORT_EVERY,
            comm: CommConfig::default(),
            steps_done: 0,
            cmd_txs: Vec::new(),
            reply_rx,
            reply_tx,
            data_txs: Vec::new(),
            handles: Vec::new(),
            cached: Vec::new(),
            dead: None,
            obs: DistMetrics::register(&registry),
            registry,
            tracer: Tracer::disabled(),
        };
        sim.spawn_pool(&store, 0)?;
        Ok(sim)
    }

    /// (Re)builds the worker pool from a full store: rank states, channels,
    /// threads. Any previous pool must already be shut down.
    fn spawn_pool(&mut self, store: &AtomStore, start_step: u64) -> Result<(), SetupError> {
        let width = validate_decomposition(&self.ff, &self.grid)?;
        let plan = GhostPlan::for_method(self.ff.method, width)?;
        let states = decompose(&self.grid, store, &self.ff, self.subdivision)?;
        let nranks = states.len();
        let mut txs: Vec<Sender<Unit>> = Vec::with_capacity(nranks);
        let mut rxs: Vec<Receiver<Unit>> = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        self.data_txs = txs.clone();
        self.cmd_txs = Vec::with_capacity(nranks);
        self.handles = Vec::with_capacity(nranks);
        self.cached = vec![StepView::default(); nranks];
        self.dead = None;
        for (rank, state) in states.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = unbounded();
            self.cmd_txs.push(cmd_tx);
            let tsink = self.tracer.sink(rank as u32, 0);
            let worker = Worker {
                state,
                grid: self.grid.clone(),
                plan: plan.clone(),
                ff: Arc::clone(&self.ff),
                mailbox: Mailbox {
                    rank,
                    txs: txs.clone(),
                    rx: rxs.remove(0),
                    pending: Vec::new(),
                    check: DeliveryCheck::new(nranks, tsink.clone()),
                },
                tsink,
                inbox: Vec::new(),
                phase: 0,
                steps_done: start_step,
                needs_prime: true,
            };
            let reply_tx = self.reply_tx.clone();
            self.handles.push(std::thread::spawn(move || worker_main(worker, cmd_rx, reply_tx)));
        }
        Ok(())
    }

    /// Stops and joins the worker pool (dead workers are already gone).
    fn shutdown_pool(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Stop);
        }
        // Unblock anyone stuck mid-protocol (a peer may have died between
        // our Stop landing and its next receive).
        self.poison();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.cmd_txs.clear();
        self.data_txs.clear();
    }

    /// Broadcasts the poison sentinel so workers blocked on a dead peer's
    /// slot fail their receive instead of waiting forever.
    fn poison(&self) {
        for tx in &self.data_txs {
            let msg = Message::stamped(
                POISON_PHASE,
                0,
                Channel::Migrate { axis: 0, dir: -1 },
                Payload::Migrate(Vec::new()),
            );
            let _ = tx.send((usize::MAX, msg));
        }
    }

    /// Broadcasts a command and collects exactly one `Step`-shaped reply
    /// per rank. On any failure the survivors are poisoned, all replies are
    /// drained, and the pool is marked dead.
    fn command_round(&mut self, make: impl Fn() -> Cmd) -> Result<(), RuntimeError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        for tx in &self.cmd_txs {
            let _ = tx.send(make());
        }
        let nranks = self.cmd_txs.len();
        let mut first_err: Option<RuntimeError> = None;
        for _ in 0..nranks {
            match self.reply_rx.recv() {
                Ok((rank, Reply::Step(view))) => self.cached[rank] = *view,
                Ok((_, Reply::Failed(e))) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                        // Unblock workers waiting on the failed rank so
                        // they too reply (with their own error) and exit.
                        self.poison();
                    }
                }
                Ok((_, Reply::Gather { .. })) | Err(_) => break,
            }
        }
        if let Some(e) = first_err {
            self.dead = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Replaces the communication configuration (per-neighbor aggregation,
    /// compute/communication overlap). The rebalance cadence is ignored —
    /// adaptive re-decomposition lives in the BSP executor. All settings
    /// are bitwise-neutral.
    pub fn set_comm_config(&mut self, comm: CommConfig) {
        self.comm = comm;
    }

    /// Sets the Morton re-sort cadence (0 disables; default 8, matching the
    /// BSP executor).
    pub fn set_resort_every(&mut self, every: u64) {
        self.resort_every = every;
    }

    /// Routes the per-step communication and health deltas into
    /// `registry` (the same `dist.*`, `comm.*` and `health.*` series as
    /// [`crate::DistributedSim::set_metrics`]).
    pub fn set_metrics(&mut self, registry: Registry) {
        self.obs = DistMetrics::register(&registry);
        self.obs.last_totals = self.comm_stats();
        self.obs.last_health = self.health_counters();
        self.registry = registry;
    }

    /// The metrics registry in use.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Routes event-level tracing through `tracer`: each worker writes its
    /// phase intervals and comm events into its own per-rank sink, so the
    /// merged timeline shows the true concurrent schedule.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (rank, tx) in self.cmd_txs.iter().enumerate() {
            let _ = tx.send(Cmd::Sink(tracer.sink(rank as u32, 0)));
        }
        self.tracer = tracer;
    }

    /// The tracer in use.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Steps completed since construction (or the restored checkpoint).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// One velocity-Verlet step, surfacing unrecovered faults.
    ///
    /// # Errors
    /// Any [`RuntimeError`] a worker hit. The pool is dead afterwards;
    /// [`Recoverable::restore`] rebuilds it from a checkpoint.
    pub fn try_step(&mut self) -> Result<(), RuntimeError> {
        let resort = self.resort_every != 0 && self.steps_done.is_multiple_of(self.resort_every);
        let (dt, comm) = (self.dt, self.comm);
        self.command_round(|| Cmd::Step { dt, resort, comm })?;
        self.steps_done += 1;
        self.feed_metrics();
        Ok(())
    }

    /// Runs `n` steps.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault; use
    /// [`ThreadedSim::try_step`] in fault-tolerant loops.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.try_step().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Feeds the step's communication and health deltas into the registry.
    fn feed_metrics(&mut self) {
        if self.registry.enabled() {
            self.obs.feed(self.comm_stats(), self.health_counters());
        }
    }

    /// The workers' watchdog transition totals, summed over ranks.
    fn health_counters(&self) -> HealthCounters {
        self.cached.iter().fold(HealthCounters::default(), |mut sum, v| {
            sum.suspects += v.health.suspects;
            sum.deaths += v.health.deaths;
            sum.recoveries += v.health.recoveries;
            sum.breaker_trips += v.health.breaker_trips;
            sum
        })
    }

    /// Aggregated communication statistics since the pool was (re)built.
    pub fn comm_stats(&self) -> CommCounters {
        let mut total = CommCounters::default();
        for v in &self.cached {
            total.merge(&v.stats);
        }
        total
    }

    /// The unified telemetry snapshot, served from the workers' most recent
    /// step reports. The threaded executor has no central wall clock, so
    /// the phase breakdown is the merged per-rank one (the reverse force
    /// reduction folds into the exchange slot).
    pub fn telemetry(&self) -> Telemetry {
        let comm = self.comm_stats();
        let (energy, tuples) = sum_results(self.cached.iter().map(|v| (&v.energy, &v.tuples)));
        Telemetry {
            step: self.steps_done,
            energy,
            tuples,
            virial: 0.0,
            phases: comm.phases,
            total_phases: comm.phases,
            per_rank: self.cached.iter().map(|v| v.stats.clone()).collect(),
            comm,
            alloc_events: self.registry.allocation_events(),
            degraded: false,
        }
    }

    /// Total energy; recomputes forces on every rank.
    ///
    /// # Panics
    /// Panics on an unrecovered communication fault.
    pub fn total_energy(&mut self) -> f64 {
        let comm = self.comm;
        self.command_round(|| Cmd::Energy { comm }).unwrap_or_else(|e| panic!("{e}"));
        self.cached.iter().map(|v| v.energy.total() + v.kinetic).sum()
    }

    /// Gathers all owned atoms into one store, sorted by global id — the
    /// same canonical form as [`crate::DistributedSim::gather`]. A dead
    /// pool yields an empty store (restore from a checkpoint instead).
    pub fn gather(&self) -> AtomStore {
        let mut atoms: Vec<AtomMsg> = Vec::new();
        let mut masses = vec![1.0];
        if self.dead.is_none() {
            for tx in &self.cmd_txs {
                let _ = tx.send(Cmd::Gather);
            }
            for _ in 0..self.cmd_txs.len() {
                if let Ok((_, Reply::Gather { atoms: a, masses: m })) = self.reply_rx.recv() {
                    atoms.extend(a);
                    masses = m;
                }
            }
        }
        gather_store(atoms, masses)
    }
}

impl Drop for ThreadedSim {
    fn drop(&mut self) {
        self.shutdown_pool();
    }
}

impl Recoverable for ThreadedSim {
    type Fault = RuntimeError;

    fn try_step(&mut self) -> Result<(), RuntimeError> {
        ThreadedSim::try_step(self)
    }

    fn checkpoint(&self) -> Checkpoint {
        let p = self.grid.pdims();
        Checkpoint::from_store(self.steps_done, self.dt, self.grid.bbox(), &self.gather())
            .with_layout(SnapshotLayout::Grid { pdims: [p.x, p.y, p.z] })
    }

    fn restore(&mut self, cp: &Checkpoint) {
        // Rebuild the whole pool from the snapshot: the cheap, always-valid
        // recovery for an interconnect whose threads may have unwound.
        self.shutdown_pool();
        self.dt = cp.dt;
        self.steps_done = cp.step;
        // The new pool's counters and watchdogs start from zero.
        self.obs.last_totals = CommCounters::default();
        self.obs.last_health = HealthCounters::default();
        let store = cp.to_store();
        self.spawn_pool(&store, cp.step).expect("restore onto the original grid cannot fail");
    }

    fn atom_count(&self) -> usize {
        self.cached.iter().map(|v| v.owned).sum()
    }

    fn total_energy_estimate(&self) -> f64 {
        let e: f64 = self.cached.iter().map(|v| v.energy.total() + v.kinetic).sum();
        e
    }

    fn state_is_finite(&self) -> bool {
        self.cached.iter().all(|v| v.finite)
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

    fn restore_excluding(&mut self, _cp: &Checkpoint, _exclude: &[usize]) -> Result<(), String> {
        Err("the threaded executor cannot re-decompose over survivors".to_string())
    }
}
