//! Golden trajectory digests: 16 silica steps (crossing the step-8 Morton
//! re-sort) on every executor, hashed bit for bit — positions, velocities
//! and the per-step tuple counters summed over the run.
//!
//! The constants were pinned before the triplet search gained its link
//! mask. Enumeration optimisations must only remove work that cannot accept
//! a tuple, so they may never move a digest; a changed constant here is a
//! changed trajectory or a changed Eq. 29 count.

use sc_cell::AtomStore;
use sc_geom::{IVec3, SimulationBox, Vec3};
use sc_md::{build_silica_like, Method, RuntimeConfig, Simulation, TupleCounts};
use sc_parallel::rank::ForceField;
use sc_parallel::{DistributedSim, ThreadedSim};
use sc_potential::Vashishta;

const STEPS: usize = 16;
const DT: f64 = 0.0005;

/// BSP and threaded executors share one digest: threaded ≡ BSP bitwise.
const SC_2X1X1: u64 = 8_996_916_445_807_571_677;

fn system() -> (AtomStore, SimulationBox) {
    let masses = Vashishta::silica().params().masses;
    build_silica_like(4, 7.16, masses, 0.01, 7)
}

fn ff(method: Method) -> ForceField {
    let v = Vashishta::silica();
    ForceField {
        pair: Some(Box::new(v.pair.clone())),
        triplet: Some(Box::new(v.triplet.clone())),
        quadruplet: None,
        method,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn vec(&mut self, v: Vec3) {
        self.word(v.x.to_bits());
        self.word(v.y.to_bits());
        self.word(v.z.to_bits());
    }
}

/// Digest of an id-sorted store plus the summed tuple counters.
fn digest(store: &AtomStore, tuples: &TupleCounts) -> u64 {
    let mut store = store.clone();
    store.sort_by_id();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for i in 0..store.len() {
        h.word(store.ids()[i]);
        h.vec(store.positions()[i]);
        h.vec(store.velocities()[i]);
    }
    for s in [tuples.pair, tuples.triplet, tuples.quadruplet] {
        h.word(s.candidates);
        h.word(s.accepted);
    }
    h.0
}

fn add(total: &mut TupleCounts, step: &TupleCounts) {
    total.pair.merge(step.pair);
    total.triplet.merge(step.triplet);
    total.quadruplet.merge(step.quadruplet);
}

fn serial(method: Method, lanes: usize) -> u64 {
    let (store, bbox) = system();
    let v = Vashishta::silica();
    let mut sim = Simulation::builder(store, bbox)
        .pair_potential(Box::new(v.pair.clone()))
        .triplet_potential(Box::new(v.triplet.clone()))
        .method(method)
        .timestep(DT)
        .runtime(RuntimeConfig { threads: lanes, ..RuntimeConfig::default() })
        .build()
        .unwrap();
    let mut total = TupleCounts::default();
    for _ in 0..STEPS {
        add(&mut total, &sim.run(1).tuples);
    }
    digest(sim.store(), &total)
}

fn bsp(method: Method, pdims: IVec3) -> u64 {
    let (store, bbox) = system();
    let mut sim = DistributedSim::new(store, bbox, pdims, ff(method), DT).unwrap();
    let mut total = TupleCounts::default();
    for _ in 0..STEPS {
        sim.step();
        add(&mut total, &sim.telemetry().tuples);
    }
    digest(&sim.gather(), &total)
}

fn threaded(method: Method, pdims: IVec3) -> u64 {
    let (store, bbox) = system();
    let mut sim = ThreadedSim::new(store, bbox, pdims, ff(method), DT).unwrap();
    let mut total = TupleCounts::default();
    for _ in 0..STEPS {
        sim.try_step().unwrap();
        add(&mut total, &sim.telemetry().tuples);
    }
    digest(&sim.gather(), &total)
}

#[test]
fn silica_sc_serial_one_lane() {
    assert_eq!(serial(Method::ShiftCollapse, 1), 9_858_248_692_431_083_696);
}

#[test]
fn silica_sc_serial_two_lanes() {
    assert_eq!(serial(Method::ShiftCollapse, 2), 17_386_958_607_053_436_305);
}

#[test]
fn silica_sc_bsp_2x1x1() {
    assert_eq!(bsp(Method::ShiftCollapse, IVec3::new(2, 1, 1)), SC_2X1X1);
}

#[test]
fn silica_sc_threaded_2x1x1() {
    assert_eq!(threaded(Method::ShiftCollapse, IVec3::new(2, 1, 1)), SC_2X1X1);
}

#[test]
fn silica_fs_serial() {
    assert_eq!(serial(Method::FullShell, 1), 3_508_147_648_344_725_795);
}
