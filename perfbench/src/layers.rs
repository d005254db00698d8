//! Per-layer timings: each layer's public functions called on the
//! workload's own state, each call wrapped in a span. They cover every
//! call the Criterion shim in `crates/bench/benches/` times — pattern
//! generation and the SC pipeline ablation, binning, cell sweeps and the
//! Hybrid list prune, the force step under every method, and whole BSP
//! steps under SC and FS — plus Morton re-sort, checkpoint encoding and
//! transport framing.

use crate::check::Cutoffs;
use crate::spans::Spans;
use crate::stats::median;
use crate::Metrics;
use sc_cell::{AtomStore, CellLattice, Species};
use sc_core::{generate_fs, oc_shift, r_collapse, shift_collapse};
use sc_geom::{SimulationBox, Vec3};
use sc_md::engine::{visit_pairs, visit_triplets, Dedup, PatternPlan};
use sc_md::methods::NeighborList;
use sc_md::{Checkpoint, Method, RuntimeConfig, Simulation};
use sc_parallel::msg::{Channel, GhostMsg, Message, Payload};
use sc_parallel::transport::frame_sections;
use sc_potential::{LennardJones, Vashishta};
use sc_spec::{ExecutorSpec, PotentialSpec, RunHandle, ScenarioSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each layer timing may spend on repetitions.
const BUDGET: Duration = Duration::from_millis(150);
/// Repetitions every layer timing gets at least.
const MIN_REPS: usize = 9;
/// Triplet-to-pair cutoff ratio of the paper's silica benchmark; pair-only
/// workloads time the Hybrid triplet prune at this ratio.
const RCUT3_OVER_RCUT2: f64 = 0.47;

/// The median wall time, in seconds, of repeated calls of `f`, each in a
/// span named `name`. `prep` runs untimed before every call.
fn median_s<S, R>(
    spans: &mut Spans,
    name: &'static str,
    mut prep: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> f64 {
    // Two untimed calls first: lazy allocations and cold caches are
    // set-up, not the layer's steady cost.
    for _ in 0..2 {
        black_box(f(prep()));
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || (start.elapsed() < BUDGET && samples.len() < 10_000) {
        let input = prep();
        let (out, d) = spans.call(name, || f(input));
        black_box(out);
        samples.push(d.as_secs_f64());
    }
    median(&samples).expect("at least MIN_REPS samples")
}

/// A serial single-lane engine for `spec`'s force field and method,
/// started from `store` (the workload's current state).
pub fn serial_sim(spec: &ScenarioSpec, store: AtomStore, bbox: SimulationBox) -> Simulation {
    let runtime = RuntimeConfig {
        threads: 1,
        verlet_skin: spec.verlet_skin,
        resort_every: spec.resort_every,
        ..RuntimeConfig::default()
    };
    let mut b = Simulation::builder(store, bbox)
        .method(spec.method)
        .timestep(spec.dt)
        .cell_subdivision(spec.subdivision)
        .runtime(runtime);
    match &spec.potential {
        PotentialSpec::Lj { cutoff } => {
            b = b.pair_potential(Box::new(LennardJones::reduced(*cutoff)));
        }
        PotentialSpec::Vashishta => {
            let v = Vashishta::silica();
            b = b
                .pair_potential(Box::new(v.pair.clone()))
                .triplet_potential(Box::new(v.triplet.clone()));
        }
    }
    b.build().expect("the workload's own spec builds a serial engine")
}

/// What the layer timings run on.
pub struct LayerInput<'a> {
    /// The spec whose force field, method and input are timed.
    pub spec: &'a ScenarioSpec,
    /// The spec whose Hybrid list settings (`verlet_skin`, method) the
    /// list timings use; the workload spec itself except for served-mix.
    pub list_spec: &'a ScenarioSpec,
    /// The running handle (checkpoint encoding is timed on it).
    pub handle: &'a RunHandle,
    /// Ghost atoms one rank imports per step, when the workload exchanges
    /// any; otherwise the face shell a two-rank split would import.
    pub ghosts_per_rank_step: Option<f64>,
    /// The input whole BSP steps are timed on: the `lj-finegrain-bsp`
    /// system for the run's seed, the one every workload's box can host
    /// on a 2×2×2 rank grid.
    pub bsp_spec: &'a ScenarioSpec,
}

/// Times every layer call on `input`'s state and pushes the results.
pub fn measure(input: &LayerInput<'_>, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let spec = input.spec;
    let (_, bbox) = spec.build_workload();
    let store = input.handle.gather();
    let cut = Cutoffs::of(spec);
    let ff = spec.force_field();
    let orders: Vec<usize> = if cut.triplet.is_some() { vec![2, 3] } else { vec![2] };
    let top = *orders.last().expect("at least the pair order");

    // core: GENERATE-FS → OC-SHIFT → R-COLLAPSE, whole and by stage.
    let pattern_s = median_s(
        spans,
        "core.pattern",
        || (),
        |_| {
            orders
                .iter()
                .map(|&n| PatternPlan::new(&shift_collapse(n), Dedup::Collapsed).len())
                .sum::<usize>()
        },
    );
    let paths: usize =
        orders.iter().map(|&n| PatternPlan::new(&shift_collapse(n), Dedup::Collapsed).len()).sum();
    m.push("core.pattern_ms", pattern_s * 1e3);
    m.push("core.pattern_paths", paths as f64);
    let fs = generate_fs(top);
    let oc = oc_shift(&fs);
    m.push(
        "core.generate_fs_ms",
        median_s(spans, "core.generate_fs", || (), |_| generate_fs(top)) * 1e3,
    );
    m.push("core.oc_shift_ms", median_s(spans, "core.oc_shift", || (), |_| oc_shift(&fs)) * 1e3);
    m.push(
        "core.r_collapse_ms",
        median_s(spans, "core.r_collapse", || (), |_| r_collapse(&oc)) * 1e3,
    );

    // cell: binning and Morton re-sort.
    let mut lat2 = CellLattice::new(bbox, cut.pair);
    m.push("cell.rebin_ms", median_s(spans, "cell.rebin", || (), |_| lat2.rebuild(&store)) * 1e3);
    m.push("cell.atoms_per_cell", lat2.mean_cell_density());
    let sort_s =
        median_s(spans, "cell.morton_sort", || store.clone(), |mut s| s.sort_by_cell(&lat2));
    m.push("cell.morton_sort_ms", sort_s * 1e3);

    // md: the Eq. 29 search (counting closure), then the same search with
    // the potential's eval in the closure.
    let lat3 = cut.triplet.map(|r| {
        let mut l = CellLattice::new(bbox, r);
        l.rebuild(&store);
        l
    });
    let pair_plan = Method::ShiftCollapse.plan_for(2);
    let trip_plan = Method::ShiftCollapse.plan_for(3);
    let search = |spans: &mut Spans, name: &'static str, eval: bool| {
        let species: &[Species] = store.species();
        median_s(
            spans,
            name,
            || (),
            |_| {
                let mut acc = 0.0f64;
                let mut stats = visit_pairs(&lat2, &store, &pair_plan, cut.pair, |i, j, _, r| {
                    if eval {
                        let p = ff.pair.as_ref().expect("pair term");
                        let (si, sj) = (species[i as usize], species[j as usize]);
                        if p.applies(si, sj) {
                            acc += p.eval(si, sj, r).0;
                        }
                    } else {
                        acc += 1.0;
                    }
                });
                if let (Some(lat3), Some(r3)) = (&lat3, cut.triplet) {
                    let t = visit_triplets(lat3, &store, &trip_plan, r3, |a, b, c, d01, d12| {
                        if eval {
                            let tp = ff.triplet.as_ref().expect("triplet term");
                            let s = (species[a as usize], species[b as usize], species[c as usize]);
                            if tp.applies(s.0, s.1, s.2) {
                                acc += tp.eval(s.0, s.1, s.2, -d01, d12).0;
                            }
                        } else {
                            acc += 1.0;
                        }
                    });
                    stats.merge(t);
                }
                (stats.candidates, acc)
            },
        )
    };
    let enumerate_s = search(spans, "md.enumerate", false);
    let with_eval_s = search(spans, "md.enumerate_eval", true);
    let mut candidates =
        visit_pairs(&lat2, &store, &pair_plan, cut.pair, |_, _, _, _| {}).candidates;
    if let (Some(lat3), Some(r3)) = (&lat3, cut.triplet) {
        candidates += visit_triplets(lat3, &store, &trip_plan, r3, |_, _, _, _, _| {}).candidates;
    }
    m.push("md.enumerate_ms", enumerate_s * 1e3);
    m.push("md.eval_ms", (with_eval_s - enumerate_s) * 1e3);
    m.push("md.candidates_per_s", candidates as f64 / enumerate_s);

    // The SC pipeline ablation: the top-order search under each stage's
    // pattern (R-COLLAPSE halves the search, OC-SHIFT leaves it as is).
    let top_lat = lat3.as_ref().unwrap_or(&lat2);
    let top_cut = cut.triplet.unwrap_or(cut.pair);
    for (name, metric, plan) in [
        ("md.enumerate_fs", "md.enumerate_fs_ms", PatternPlan::new(&fs, Dedup::Guarded)),
        ("md.enumerate_oc_only", "md.enumerate_oc_only_ms", PatternPlan::new(&oc, Dedup::Guarded)),
        (
            "md.enumerate_rc_only",
            "md.enumerate_rc_only_ms",
            PatternPlan::new(&r_collapse(&fs), Dedup::Collapsed),
        ),
    ] {
        let s = median_s(
            spans,
            name,
            || (),
            |_| {
                let mut count = 0u64;
                let stats = if top == 3 {
                    visit_triplets(top_lat, &store, &plan, top_cut, |_, _, _, _, _| count += 1)
                } else {
                    visit_pairs(top_lat, &store, &plan, top_cut, |_, _, _, _| count += 1)
                };
                (count, stats.candidates)
            },
        );
        m.push(metric, s * 1e3);
    }

    // md: the Hybrid pair list (cell decomposition with data sorting) and
    // the triplet prune from it.
    let list_spec = input.list_spec;
    let list_cut = cut.pair + list_spec.verlet_skin;
    let mut list_lat = CellLattice::new(bbox, list_cut);
    list_lat.rebuild(&store);
    let hybrid_plan = Method::Hybrid.plan_for(2);
    let build_s = median_s(
        spans,
        "md.list_build",
        || (),
        |_| NeighborList::build(&list_lat, &store, &hybrid_plan, list_cut).0.entry_count(),
    );
    m.push("md.list_build_ms", build_s * 1e3);
    let (list, _) = NeighborList::build(&list_lat, &store, &hybrid_plan, list_cut);
    let prune_cut = cut.triplet.unwrap_or(RCUT3_OVER_RCUT2 * cut.pair);
    let prune_s = median_s(
        spans,
        "md.hybrid_prune",
        || (),
        |_| {
            let mut count = 0u64;
            list.visit_triplets(prune_cut, |_, _, _, _, _| count += 1);
            count
        },
    );
    m.push("md.hybrid_prune_ms", prune_s * 1e3);

    // md: a serial single-lane engine on this state. Each sample is one
    // whole step followed by a force computation on the positions it left
    // (same forces, same cost), so the step's remainder — integration,
    // and on every resort_every-th step the re-sort, which the median
    // skips — is measured against the force computation beside it.
    let mut sim = serial_sim(spec, store.clone(), bbox);
    sim.run(2);
    let (mut forces_s, mut rest_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while forces_s.len() < MIN_REPS || start.elapsed() < BUDGET {
        let (_, step) = spans.call("md.serial_step", || sim.step().step);
        let (_, forces) =
            spans.call("md.compute_forces", || sim.compute_forces().tuples.total_accepted());
        forces_s.push(forces.as_secs_f64());
        rest_s.push(step.as_secs_f64() - forces.as_secs_f64());
    }
    m.push("md.compute_forces_ms", median(&forces_s).expect("samples") * 1e3);
    m.push("md.integrate_ms", median(&rest_s).expect("samples") * 1e3);
    // The same force computation under the other two methods.
    let others = [
        (Method::FullShell, "md.compute_forces_fs", "md.compute_forces_fs_ms"),
        (Method::Hybrid, "md.compute_forces_hybrid", "md.compute_forces_hybrid_ms"),
    ];
    for (method, span, metric) in others {
        let mut other = spec.clone();
        other.method = method;
        let mut sim = serial_sim(&other, store.clone(), bbox);
        let s = median_s(spans, span, || (), |_| sim.compute_forces().tuples.total_accepted());
        m.push(metric, s * 1e3);
    }
    let builds_per_step = if list_spec.method == Method::Hybrid {
        let (list_store, _) = list_spec.build_workload();
        let mut list_sim = serial_sim(list_spec, list_store, bbox);
        let steps = 16;
        spans.call("md.list_steps", || list_sim.run(steps));
        list_sim.hybrid_list_builds() as f64 / steps as f64
    } else {
        0.0
    };
    m.push("md.list_builds_per_step", builds_per_step);

    // md: checkpoint encoding.
    let handle = input.handle;
    let encode_s =
        median_s(spans, "md.checkpoint_encode", || (), |_| handle.checkpoint().to_bytes());
    let bytes = handle.checkpoint().to_bytes();
    let decode_s = median_s(
        spans,
        "md.checkpoint_decode",
        || (),
        |_| Checkpoint::from_bytes(&bytes).expect("a checkpoint just encoded decodes").len(),
    );
    m.push("md.checkpoint_encode_ms", encode_s * 1e3);
    m.push("md.checkpoint_decode_ms", decode_s * 1e3);
    m.push("md.checkpoint_bytes", bytes.len() as f64);

    // parallel: pack one rank's ghost phase into a framed batch, then
    // verify the frame and its sections as a receiver does.
    let ghosts = ghost_payload(&store, &bbox, cut.pair, input.ghosts_per_rank_step);
    let pack = || {
        let hops = 3;
        let per = ghosts.len().div_ceil(hops).max(1);
        let sections: Vec<(usize, Message)> = ghosts
            .chunks(per)
            .enumerate()
            .map(|(hop, g)| {
                (1, Message::stamped(7, 7, Channel::Ghosts { hop }, Payload::Ghosts(g.to_vec())))
            })
            .collect();
        frame_sections(true, 7, 7, sections)
    };
    let pack_s = median_s(spans, "parallel.frame_pack", || (), |_| pack());
    let frames = pack();
    let verify_s = median_s(
        spans,
        "parallel.frame_verify",
        || (),
        |_| {
            let mut ok = true;
            for (_, frame) in &frames {
                ok &= frame.verify(1, 7, frame.channel).is_ok();
                if let Payload::Batch(sections) = &frame.payload {
                    for s in sections {
                        ok &= s.verify(1, 7, s.channel).is_ok();
                    }
                }
            }
            assert!(ok, "a freshly stamped frame verifies");
        },
    );
    m.push("parallel.frame_pack_us", pack_s * 1e6);
    m.push("parallel.frame_verify_us", verify_s * 1e6);

    // parallel: whole BSP steps over a 2×2×2 rank grid — halo exchange,
    // forces, reverse reduction, migration — under SC and FS.
    let bsp_methods = [
        (Method::ShiftCollapse, "parallel.bsp_step_sc", "parallel.bsp_step_sc_ms"),
        (Method::FullShell, "parallel.bsp_step_fs", "parallel.bsp_step_fs_ms"),
    ];
    for (method, span, metric) in bsp_methods {
        let mut bsp = input.bsp_spec.clone();
        bsp.method = method;
        bsp.executor = ExecutorSpec::Bsp { grid: [2, 2, 2] };
        let mut h = bsp.instantiate().map_err(|e| format!("{metric}: {e}"))?;
        let mut failed = None;
        let s = median_s(
            spans,
            span,
            || (),
            |_| {
                if let Err(e) = h.try_step() {
                    failed.get_or_insert(e);
                }
            },
        );
        if let Some(e) = failed {
            return Err(format!("{metric}: {e}"));
        }
        m.push(metric, s * 1e3);
    }
    Ok(())
}

/// Ghost messages for one rank's per-step import: `per_rank` atoms when
/// the workload exchanges ghosts, otherwise every atom within `rcut` of
/// the box's +x face (what one side of a two-rank split imports).
fn ghost_payload(
    store: &AtomStore,
    bbox: &SimulationBox,
    rcut: f64,
    per_rank: Option<f64>,
) -> Vec<GhostMsg> {
    let lx = bbox.lengths().x;
    let all = store.ids().iter().zip(store.species()).zip(store.positions());
    let msg = |((&id, &species), &position): ((&u64, &Species), &Vec3)| GhostMsg {
        id,
        species,
        position,
    };
    match per_rank {
        Some(n) => all.cycle().take(n.round() as usize).map(msg).collect(),
        None => all.filter(|(_, p)| p.x > lx - rcut).map(msg).collect(),
    }
}
