//! The distributed MD step's exchange schedule, written once for both
//! executors.
//!
//! One step moves data in three kinds of merged phase
//! ([`crate::transport`]): migration (three axis phases), the
//! forwarded-routing ghost import (Eq. 31/33, one phase per hop group), and
//! the reverse force return. The phase bodies, framing, send/receive
//! accounting and tracing, delivery verification with its health feed, and
//! the per-rank result plumbing live here. What differs between the
//! executors is only how a framed unit travels, behind the [`Wire`] trait:
//!
//! * the BSP wire (`exec_bsp.rs`) holds every rank, delivers each unit at
//!   post time through the [`crate::FaultPlan`] with bounded retry, and
//!   buffers it for the receiver until the phase is collected;
//! * the channel wire (`exec_threads.rs`) holds the one rank its worker
//!   thread runs, sends units over crossbeam channels, and verifies them as
//!   they are collected.
//!
//! A driver *holds* a contiguous set of ranks (all of them for BSP, one per
//! threaded worker) and passes them, with one trace sink per held rank, to
//! a [`Schedule`].

use crate::comm::GhostPlan;
use crate::error::RuntimeError;
use crate::grid::RankGrid;
use crate::health::{HealthConfig, HealthCounters, HealthTracker};
use crate::msg::{AtomMsg, Channel, GhostMsg, Message, Payload};
use crate::rank::RankState;
use crate::transport::{self, Slot};
use sc_cell::AtomStore;
use sc_md::{EnergyBreakdown, TupleCounts};
use sc_obs::trace::EventKind;
use sc_obs::{CommCounters, Counter, Histogram, PhaseBreakdown, Registry, TraceSink};

/// A ghost band received during an import and staged until the import
/// ends: `(hop, from, ghosts)`.
pub(crate) type StagedBand = (usize, usize, Vec<GhostMsg>);

/// How one phase's framed units travel between ranks.
pub(crate) trait Wire {
    /// Puts held rank `from`'s framed units for the current phase on the
    /// wire, in frame order. `expected` holds every held rank's expected
    /// units (see [`transport::expected_units`]), indexed by held position;
    /// a wire that verifies at post time reads the receiver's entry there.
    /// Retries and detected faults are charged to the sender's `stats`.
    fn post(
        &mut self,
        epoch: u64,
        from: usize,
        units: Vec<(usize, Message)>,
        expected: &[Vec<(usize, Channel)>],
        stats: &mut CommCounters,
    ) -> Result<(), RuntimeError>;

    /// Returns the units of phase `phase` addressed to held rank `to`, each
    /// verified against the canonical receive slot it fills
    /// ([`DeliveryCheck::check`]). `expected` is `to`'s entry of the table
    /// [`Wire::post`] saw.
    fn collect(
        &mut self,
        phase: u64,
        epoch: u64,
        to: usize,
        expected: &[(usize, Channel)],
    ) -> Result<Vec<(usize, Message)>, RuntimeError>;
}

/// The channel the next unit from `from` must carry: the k-th expected unit
/// from that source, where k counts the units `taken` from it so far (k > 0
/// only without aggregation, and each source's units arrive in send order).
/// A unit from an unexpected source is checked against its own stamp and
/// then fails slot matching.
pub(crate) fn slot_channel(
    expected: &[(usize, Channel)],
    taken: &[(usize, Message)],
    from: usize,
    unit: &Message,
) -> Channel {
    let k = taken.iter().filter(|(f, _)| *f == from).count();
    expected.iter().filter(|(p, _)| *p == from).nth(k).map_or(unit.channel, |&(_, c)| c)
}

/// The receive-side delivery check both wires run: the per-sender health
/// watchdog (deadline + flap circuit breaker) and the sink its transitions
/// are traced on.
pub(crate) struct DeliveryCheck {
    /// The per-sender health watchdog.
    pub health: HealthTracker,
    /// Where health transitions are traced as [`EventKind::Health`].
    pub sink: TraceSink,
}

impl DeliveryCheck {
    /// A check over `nranks` healthy senders.
    pub fn new(nranks: usize, sink: TraceSink) -> Self {
        DeliveryCheck { health: HealthTracker::new(nranks, HealthConfig::default()), sink }
    }

    /// Checks one delivery attempt from `from` to `to`: verifies the unit's
    /// outer stamp against the slot `channel` it must fill and each batch
    /// section's own stamp (so in-frame corruption is caught, and retried
    /// at frame granularity, before anything is unpacked), then feeds the
    /// outcome to the sender's watchdog. A lost delivery arrives as `Err`.
    /// A sender the watchdog holds dead escalates as
    /// [`RuntimeError::RankDead`] — on any verified delivery, and on a
    /// failure that is the `last_attempt`.
    pub fn check(
        &mut self,
        delivered: Result<&Message, RuntimeError>,
        (from, to): (usize, usize),
        channel: Channel,
        epoch: u64,
        last_attempt: bool,
    ) -> Result<(), RuntimeError> {
        let res = delivered.and_then(|m| {
            m.verify(to, epoch, channel)?;
            if let Payload::Batch(secs) = &m.payload {
                for s in secs {
                    s.verify(to, epoch, s.channel)?;
                }
            }
            Ok(())
        });
        let class = channel.trace_class();
        let transition = match &res {
            Ok(()) => self.health.record_success(from, class, epoch),
            Err(_) => self.health.record_failure(from, class, epoch),
        };
        if let Some(state) = transition {
            let peer = from as u32;
            self.sink.instant(epoch, EventKind::Health { peer, state: state.code() });
        }
        // A flapping link can trip the circuit breaker on the very delivery
        // that succeeded; death wins.
        if self.health.is_dead(from) && (res.is_ok() || last_attempt) {
            return Err(RuntimeError::RankDead { rank: from, step: epoch, epoch });
        }
        res
    }
}

/// One exchange run over the ranks a driver holds.
pub(crate) struct Schedule<'a, W> {
    /// The transport.
    pub wire: &'a mut W,
    /// The rank grid.
    pub grid: &'a RankGrid,
    /// The ghost plan (forwarded routing hops).
    pub plan: &'a GhostPlan,
    /// One trace sink per held rank (Send/Recv events).
    pub sinks: &'a [TraceSink],
    /// Pack each phase's sections into one frame per destination.
    pub aggregation: bool,
    /// The MD step the payloads belong to.
    pub epoch: u64,
    /// The driver's monotone phase counter, advanced once per merged phase.
    pub phase: &'a mut u64,
}

impl<W: Wire> Schedule<'_, W> {
    /// Frames held rank `h`'s stamped sections per destination
    /// ([`transport::frame_sections`]) and posts them. `record_send` and the
    /// trace Send event fire **once per wire unit**, with the frame's total
    /// payload bytes and its section count, so `comm.messages`,
    /// `comm.bytes` and `comm.step_bytes` see aggregated traffic once.
    fn post(
        &mut self,
        h: usize,
        from: usize,
        sections: Vec<(usize, Message)>,
        expected: &[Vec<(usize, Channel)>],
        stats: &mut CommCounters,
    ) -> Result<(), RuntimeError> {
        let units = transport::frame_sections(self.aggregation, *self.phase, self.epoch, sections);
        for (to, unit) in &units {
            let bytes = unit.payload.wire_bytes();
            let nsec = unit.payload.section_count() as u16;
            stats.record_send(*to, bytes);
            let class = unit.channel.trace_class();
            self.sinks[h].send(self.epoch, class, *to as u32, bytes, nsec, self.epoch);
        }
        self.wire.post(self.epoch, from, units, expected, stats)
    }

    /// Collects held rank `h`'s verified units (one trace Recv event per
    /// unit) and returns the payloads in canonical slot order
    /// ([`transport::match_sections`]) — the order receivers absorb in,
    /// whatever the arrival order.
    fn collect(
        &mut self,
        h: usize,
        to: usize,
        recvs: &[Slot],
        expected: &[(usize, Channel)],
    ) -> Result<Vec<Payload>, RuntimeError> {
        let units = self.wire.collect(*self.phase, self.epoch, to, expected)?;
        for (from, unit) in &units {
            let bytes = unit.payload.wire_bytes();
            let nsec = unit.payload.section_count() as u16;
            let class = unit.channel.trace_class();
            self.sinks[h].recv(self.epoch, class, *from as u32, bytes, nsec, self.epoch);
        }
        transport::match_sections(to, recvs, units)
    }

    /// The expected-unit table of one phase, per held rank.
    fn expected(&self, slots: &[(Vec<Slot>, Vec<Slot>)]) -> Vec<Vec<(usize, Channel)>> {
        slots.iter().map(|(_, rx)| transport::expected_units(self.aggregation, rx)).collect()
    }

    /// Stamps one section for the current phase.
    fn stamped(&self, slot: &Slot, payload: Payload) -> (usize, Message) {
        (slot.peer, Message::stamped(*self.phase, self.epoch, slot.channel, payload))
    }

    /// Migration: three axis-ordered merged phases. Every rank sends both
    /// directions each axis (empty messages included, as MPI codes do).
    pub fn migrate(&mut self, ranks: &mut [RankState]) -> Result<(), RuntimeError> {
        for axis in 0..3 {
            *self.phase += 1;
            let slots: Vec<_> =
                ranks.iter().map(|r| transport::migrate_phase(self.grid, r.rank, axis)).collect();
            let expected = self.expected(&slots);
            for (h, rank) in ranks.iter_mut().enumerate() {
                let (to_minus, to_plus) = rank.collect_migrants(axis);
                let sections = (slots[h].0.iter().zip([to_minus, to_plus]))
                    .map(|(slot, atoms)| self.stamped(slot, Payload::Migrate(atoms)))
                    .collect();
                self.post(h, rank.rank, sections, &expected, &mut rank.stats)?;
            }
            for (h, rank) in ranks.iter_mut().enumerate() {
                let recvs = &slots[h].1;
                let payloads = self.collect(h, rank.rank, recvs, &expected[h])?;
                for (slot, payload) in recvs.iter().zip(payloads) {
                    let Payload::Migrate(atoms) = payload else {
                        return Err(wrong_payload(rank, slot));
                    };
                    rank.absorb_migrants(&atoms);
                }
            }
        }
        Ok(())
    }

    /// The forwarded-routing ghost import, one merged phase per hop group.
    /// The held ranks stay ghost-free and are only read: received bands
    /// land in each rank's `inbox` in canonical (phase, hop) order, later
    /// phases forward from there ([`RankState::collect_ghost_band`]), and
    /// the driver absorbs the inbox afterwards ([`absorb_staged`]).
    /// Sends are recorded in `stats` (one entry per held rank). `hook` runs
    /// once, after the first phase is posted and before any receive — the
    /// window in which a driver can compute interior tuples.
    pub fn import_ghosts(
        &mut self,
        ranks: &[RankState],
        stats: &mut [CommCounters],
        inbox: &mut [Vec<StagedBand>],
        hook: impl FnOnce(),
    ) -> Result<(), RuntimeError> {
        let mut hook = Some(hook);
        for hops in transport::ghost_phase_groups(self.plan) {
            *self.phase += 1;
            let slots: Vec<_> = ranks
                .iter()
                .map(|r| transport::ghost_phase(self.grid, self.plan, r.rank, &hops))
                .collect();
            let expected = self.expected(&slots);
            for (h, rank) in ranks.iter().enumerate() {
                let sections = (slots[h].0.iter().zip(&hops))
                    .map(|(slot, &hop)| {
                        let (axis, recv_dir) = self.plan.hops[hop];
                        let band = rank.collect_ghost_band(self.plan, axis, recv_dir, &inbox[h]);
                        self.stamped(slot, Payload::Ghosts(band))
                    })
                    .collect();
                self.post(h, rank.rank, sections, &expected, &mut stats[h])?;
            }
            if let Some(hook) = hook.take() {
                hook();
            }
            for (h, rank) in ranks.iter().enumerate() {
                let recvs = &slots[h].1;
                let payloads = self.collect(h, rank.rank, recvs, &expected[h])?;
                for ((slot, &hop), payload) in recvs.iter().zip(&hops).zip(payloads) {
                    let Payload::Ghosts(ghosts) = payload else {
                        return Err(wrong_payload(rank, slot));
                    };
                    inbox[h].push((hop, slot.peer, ghosts));
                }
            }
        }
        Ok(())
    }

    /// Reverse force reduction along the reversed routing schedule, one
    /// merged phase per hop group (hops descending within a group), so
    /// multi-hop forwarded forces drain outward.
    pub fn return_forces(&mut self, ranks: &mut [RankState]) -> Result<(), RuntimeError> {
        for hops in transport::force_phase_groups(self.plan) {
            *self.phase += 1;
            let slots: Vec<_> = ranks
                .iter()
                .map(|r| transport::force_phase(self.grid, self.plan, r.rank, &hops))
                .collect();
            let expected = self.expected(&slots);
            for (h, rank) in ranks.iter_mut().enumerate() {
                let sections = (slots[h].0.iter().zip(&hops))
                    .map(|(slot, &hop)| {
                        let (forces, recorded) = rank.collect_ghost_forces(hop);
                        debug_assert!(
                            recorded.is_none_or(|t| t == slot.peer),
                            "ghost origin disagrees with the routing schedule"
                        );
                        self.stamped(slot, Payload::Forces(forces))
                    })
                    .collect();
                self.post(h, rank.rank, sections, &expected, &mut rank.stats)?;
            }
            for (h, rank) in ranks.iter_mut().enumerate() {
                let recvs = &slots[h].1;
                let payloads = self.collect(h, rank.rank, recvs, &expected[h])?;
                for ((slot, &hop), payload) in recvs.iter().zip(&hops).zip(payloads) {
                    let Payload::Forces(forces) = payload else {
                        return Err(wrong_payload(rank, slot));
                    };
                    rank.absorb_ghost_forces(hop, &forces)?;
                }
            }
        }
        Ok(())
    }
}

fn wrong_payload(rank: &RankState, slot: &Slot) -> RuntimeError {
    RuntimeError::WrongPayload { rank: rank.rank, channel: slot.channel }
}

/// Absorbs each held rank's staged import in canonical order, leaving the
/// inboxes empty for the next import.
pub(crate) fn absorb_staged(ranks: &mut [RankState], inbox: &mut [Vec<StagedBand>]) {
    for (rank, staged) in ranks.iter_mut().zip(inbox) {
        for (hop, from, ghosts) in staged.drain(..) {
            rank.absorb_ghosts(hop, from, &ghosts);
        }
    }
}

/// Sums per-rank energies and tuple counts, in rank order (for
/// determinism), into the global totals.
pub(crate) fn sum_results<'a>(
    per_rank: impl IntoIterator<Item = (&'a EnergyBreakdown, &'a TupleCounts)>,
) -> (EnergyBreakdown, TupleCounts) {
    let mut energy = EnergyBreakdown::default();
    let mut tuples = TupleCounts::default();
    for (e, t) in per_rank {
        energy.pair += e.pair;
        energy.triplet += e.triplet;
        energy.quadruplet += e.quadruplet;
        tuples.pair.merge(t.pair);
        tuples.triplet.merge(t.triplet);
        tuples.quadruplet.merge(t.quadruplet);
    }
    (energy, tuples)
}

/// Traces one rank's fine-grained compute phases (bin / enumerate / eval /
/// reduce) on its own timeline row, laid out cumulatively from `start_ns`.
pub(crate) fn trace_compute(sink: &TraceSink, step: u64, start_ns: u64, phases: &PhaseBreakdown) {
    if !sink.enabled() {
        return;
    }
    let mut cursor = start_ns;
    for (phase, secs) in phases.iter() {
        let dur_ns = (secs * 1e9) as u64;
        if dur_ns > 0 {
            sink.phase(step, phase, cursor, dur_ns);
            cursor += dur_ns;
        }
    }
}

/// Builds the gathered store: all owned atoms sorted by global id —
/// directly comparable with a serial [`sc_md::Simulation`].
pub(crate) fn gather_store(mut atoms: Vec<AtomMsg>, masses: Vec<f64>) -> AtomStore {
    atoms.sort_by_key(|a| a.id);
    let mut out = AtomStore::new(masses);
    for a in &atoms {
        out.push(a.id, a.species, a.position, a.velocity);
    }
    out
}

/// The `comm.*` counter series, in [`comm_values`] order.
const COMM_SERIES: [&str; 6] = [
    "comm.messages",
    "comm.bytes",
    "comm.ghosts_imported",
    "comm.atoms_migrated",
    "comm.retries",
    "comm.faults_detected",
];

fn comm_values(c: &CommCounters) -> [u64; 6] {
    [c.messages, c.bytes, c.ghosts_imported, c.atoms_migrated, c.retries, c.faults_detected]
}

/// The `health.*` counter series, in [`health_values`] order.
const HEALTH_SERIES: [&str; 4] =
    ["health.suspects", "health.deaths", "health.recoveries", "health.breaker_trips"];

fn health_values(h: &HealthCounters) -> [u64; 4] {
    [h.suspects, h.deaths, h.recoveries, h.breaker_trips]
}

/// Pre-registered metric handles of a distributed executor (inert when the
/// registry is disabled), fed per-step deltas of the aggregate counters.
pub(crate) struct DistMetrics {
    steps: Counter,
    comm: [Counter; 6],
    step_bytes: Histogram,
    health: [Counter; 4],
    /// Aggregate counters at the last feed (delta source).
    pub last_totals: CommCounters,
    /// Watchdog transition totals at the last feed (delta source).
    pub last_health: HealthCounters,
}

impl DistMetrics {
    /// Registers the `dist.steps`, `comm.*` and `health.*` series in `reg`,
    /// with zero delta baselines.
    pub fn register(reg: &Registry) -> Self {
        let bounds = [1024.0, 16384.0, 262144.0, 4194304.0, 67108864.0];
        DistMetrics {
            steps: reg.counter("dist.steps"),
            comm: COMM_SERIES.map(|name| reg.counter(name)),
            step_bytes: reg.histogram("comm.step_bytes", &bounds),
            health: HEALTH_SERIES.map(|name| reg.counter(name)),
            last_totals: CommCounters::default(),
            last_health: HealthCounters::default(),
        }
    }

    /// Feeds one completed step: the deltas of the aggregate comm counters
    /// `now` and the watchdog transition totals `health` since the last
    /// feed.
    pub fn feed(&mut self, now: CommCounters, health: HealthCounters) {
        self.steps.inc();
        let deltas = comm_values(&now).into_iter().zip(comm_values(&self.last_totals));
        for (counter, (now, last)) in self.comm.iter().zip(deltas) {
            counter.add(now - last);
        }
        self.step_bytes.observe((now.bytes - self.last_totals.bytes) as f64);
        self.last_totals = now;
        let deltas = health_values(&health).into_iter().zip(health_values(&self.last_health));
        for (counter, (now, last)) in self.health.iter().zip(deltas) {
            counter.add(now - last);
        }
        self.last_health = health;
    }
}
