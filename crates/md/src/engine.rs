//! Cell-based n-tuple enumeration: the executable form of the paper's UCP
//! algorithm (Table 1) with chain-cutoff filtering.
//!
//! For each cell `c(q)` of the lattice and each path `p = (v0…v_{n-1})` of
//! the computation pattern, the visitor enumerates candidate tuples with the
//! k-th atom drawn from `c(q + v_k)`, filters them by the chain-cutoff
//! condition `r_{k,k+1} < r_cut-n` (Eq. 6), rejects repeated atoms, and
//! applies the reflective-duplicate guard so that **every undirected tuple
//! is visited exactly once** regardless of the pattern's redundancy:
//!
//! * [`Dedup::Collapsed`] — for R-COLLAPSE'd patterns (SC, HS): only
//!   *self-reflective* paths generate each tuple twice (once per direction),
//!   so only those paths carry the canonical-order guard.
//! * [`Dedup::Guarded`] — for redundant patterns (FS): every undirected
//!   tuple is generated twice (by a path and its reflective twin), so the
//!   guard applies to every path. This is exactly the "filtering out the
//!   unnecessary tuples" whose cost Eq. 12 charges to FS-MD.
//!
//! The guard compares **global atom ids**, not local slots, so the same
//! rule stays consistent when tuples straddle rank boundaries in the
//! distributed runtime: for a pair owned by two different ranks, exactly one
//! rank's directed generation passes the guard.
//!
//! Enumeration is generic over [`TupleSource`] — the serial engine runs it
//! on a periodic [`CellLattice`] (minimum-image displacements), the
//! distributed runtime on a rank-local ghost lattice (plain differences,
//! since ghosts are image-shifted into the local frame).
//!
//! Triplets, the dominant search of the silica workloads, go through one
//! sweep kernel shared by both: [`visit_triplets_in_cells`] skips the cell
//! pairs a [`LinkMask`] shows to hold no in-cutoff atom pair, without
//! changing the callback sequence or the candidate count.

use sc_cell::{AtomStore, CellBins, CellLattice};
use sc_core::{Path, Pattern};
use sc_geom::{IVec3, Vec3};
use std::collections::HashMap;

/// How reflective tuple duplicates are suppressed during enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup {
    /// The pattern has been R-COLLAPSE'd: guard only self-reflective paths.
    Collapsed,
    /// The pattern retains reflective twins (e.g. full shell): guard every
    /// path with the canonical-order test.
    Guarded,
}

/// One triplet path's last leg inside a [`TripletGroup`].
#[derive(Debug, Clone, Copy)]
struct Suffix {
    /// Block index of `v2`.
    c2: usize,
    /// Link bit of the step `v2 − v1`.
    link: u32,
    /// Whether the reflective-duplicate guard applies.
    guard: bool,
}

/// Triplet paths sharing one `(v0, v1)` prefix: the first leg's cells and
/// `d01` cutoff check are resolved once per group instead of once per path.
/// SC(3) collapses 378 paths into 63 groups, FS(3) 729 into 27.
#[derive(Debug, Clone)]
struct TripletGroup {
    /// Block indices of `v0` and `v1`.
    c0: usize,
    c1: usize,
    /// Link bit of the step `v1 − v0`.
    link: u32,
    /// One entry per member path, in path order.
    suffixes: Vec<Suffix>,
}

/// A pattern compiled for enumeration: per-path offsets plus the
/// reflective-duplicate guard flag.
#[derive(Debug, Clone)]
pub struct PatternPlan {
    n: usize,
    paths: Vec<(Vec<IVec3>, bool)>,
    /// The distinct cell offsets the triplet paths read around a base cell
    /// (27 for SC(3), 125 for FS(3)), first-seen order. Empty unless n = 3.
    block: Vec<IVec3>,
    /// The triplet paths grouped by prefix, groups in first-seen prefix
    /// order and suffixes in path order — a pure reordering of the path
    /// list, so enumeration stays deterministic. Empty unless n = 3.
    triplet_groups: Vec<TripletGroup>,
}

impl PatternPlan {
    /// Compiles `pattern` for the given dedup mode.
    pub fn new(pattern: &Pattern, dedup: Dedup) -> Self {
        let paths: Vec<(Vec<IVec3>, bool)> = pattern
            .iter()
            .map(|p: &Path| {
                let guard = match dedup {
                    Dedup::Guarded => true,
                    Dedup::Collapsed => p.is_self_reflective(),
                };
                (p.offsets().to_vec(), guard)
            })
            .collect();
        let mut block: Vec<IVec3> = Vec::new();
        let mut triplet_groups: Vec<TripletGroup> = Vec::new();
        if pattern.n() == 3 {
            let mut slots: HashMap<IVec3, usize> = HashMap::new();
            let mut slot = |v: IVec3| {
                *slots.entry(v).or_insert_with(|| {
                    block.push(v);
                    block.len() - 1
                })
            };
            for (offsets, guard) in &paths {
                let [v0, v1, v2] = [offsets[0], offsets[1], offsets[2]];
                let (c0, c1) = (slot(v0), slot(v1));
                let suffix = Suffix { c2: slot(v2), link: link_bit(v2 - v1), guard: *guard };
                match triplet_groups.iter_mut().find(|g| (g.c0, g.c1) == (c0, c1)) {
                    Some(g) => g.suffixes.push(suffix),
                    None => triplet_groups.push(TripletGroup {
                        c0,
                        c1,
                        link: link_bit(v1 - v0),
                        suffixes: vec![suffix],
                    }),
                }
            }
        }
        PatternPlan { n: pattern.n(), paths, block, triplet_groups }
    }

    /// The tuple order n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the plan has no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Enumeration statistics: the search-cost observables of the paper's
/// Lemma 5 / Fig. 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VisitStats {
    /// The pattern's search space `S_cell` (Eq. 29): summed over base cells
    /// and paths, the product of the occupancies of the path's cells,
    /// Σ |c(q+v0)|·…·|c(q+v_{n−1})|. The pair, triplet and quadruplet
    /// visitors count it from occupancies, so it is not the inner-loop trip
    /// count: the triplet kernel skips cell pairs that cannot accept a
    /// tuple and still reports the full space. The arbitrary-n visitor
    /// counts the leaves of its cutoff-pruned recursion instead.
    pub candidates: u64,
    /// Tuples that passed cutoff, distinctness, and guard — i.e. members of
    /// the filtered force set handed to the potential.
    pub accepted: u64,
}

impl VisitStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, o: VisitStats) {
        self.candidates += o.candidates;
        self.accepted += o.accepted;
    }
}

/// What tuple enumeration needs from the world: cell bins, positions,
/// global ids, and a displacement rule.
pub trait TupleSource {
    /// The binned lattice (indexing convention is the implementor's —
    /// periodic for the global lattice, bounded-local for ghost lattices).
    fn bins(&self) -> CellBins<'_>;
    /// Atom slots binned into cell `q` (empty off a bounded lattice).
    #[inline]
    fn atoms_in(&self, q: IVec3) -> &[u32] {
        let bins = self.bins();
        bins.index(q).map_or(&[], |c| bins.atoms(c))
    }
    /// Position of slot `i`.
    fn pos(&self, i: u32) -> Vec3;
    /// Stable global id of slot `i` (guards compare these).
    fn gid(&self, i: u32) -> u64;
    /// Displacement `r_j − r_i` under this source's geometry.
    fn disp(&self, i: u32, j: u32) -> Vec3;
    /// Box edge lengths if displacements are minimum-image, `None` if they
    /// are plain differences (rank-local frames with image-shifted ghosts).
    /// The batched kernels use this to apply the same displacement rule as
    /// [`TupleSource::disp`] across a whole lane block at once.
    fn pbc_lengths(&self) -> Option<Vec3> {
        None
    }
}

/// [`TupleSource`] over the global periodic lattice: minimum-image
/// displacements.
pub struct PeriodicSource<'a> {
    lat: &'a CellLattice,
    store: &'a AtomStore,
}

impl<'a> PeriodicSource<'a> {
    /// Wraps a lattice + store.
    ///
    /// Debug builds assert the lattice's bins were built against the store's
    /// current slot layout ([`CellLattice::is_current`]): any structural
    /// mutation — `push`, `swap_remove` (which moves the last atom into the
    /// vacated slot while its old lattice entry still points there), a
    /// Morton re-sort — silently invalidates every binned slot index, and
    /// enumerating through stale bins reads the wrong atoms.
    pub fn new(lat: &'a CellLattice, store: &'a AtomStore) -> Self {
        debug_assert!(
            lat.is_current(store),
            "cell lattice is stale: the store's slot layout changed since the last rebuild"
        );
        PeriodicSource { lat, store }
    }
}

impl TupleSource for PeriodicSource<'_> {
    #[inline]
    fn bins(&self) -> CellBins<'_> {
        self.lat.bins()
    }
    #[inline]
    fn pos(&self, i: u32) -> Vec3 {
        self.store.positions()[i as usize]
    }
    #[inline]
    fn gid(&self, i: u32) -> u64 {
        self.store.ids()[i as usize]
    }
    #[inline]
    fn disp(&self, i: u32, j: u32) -> Vec3 {
        self.lat.bbox().min_image(self.pos(i), self.pos(j))
    }
    #[inline]
    fn pbc_lengths(&self) -> Option<Vec3> {
        Some(self.lat.bbox().lengths())
    }
}

/// Lane width of the batched distance kernels: gathered coordinates are
/// processed in fixed-size blocks so the per-lane loops compile to packed
/// f64 vector code (f64x4 on AVX2, f64x8 on AVX-512) without any explicit
/// SIMD dependency. 32 lanes cover a typical cell's population (ρ_cell ≈
/// 5–20 for the paper's benchmark systems) in a single block.
const BATCH: usize = 32;

/// Below this many candidates in the gathered cell, the visitors take the
/// plain scalar inner loop: filling lanes for a near-empty cell (common in
/// triplet/quadruplet lattices, whose cells shrink to the shorter cutoffs)
/// costs more than it saves. Both paths produce bitwise-identical calls in
/// identical order — a cell below `BATCH` is a single chunk, so the batched
/// loop degenerates to the same iteration order the scalar loop uses.
const BATCH_MIN: usize = 16;

/// A gathered block of candidate atoms: SoA coordinates plus the global ids
/// the reflective-duplicate guard compares. Filling it from a Morton-sorted
/// store is a near-contiguous copy, which is what makes the lane loops pay.
struct Gather {
    x: [f64; BATCH],
    y: [f64; BATCH],
    z: [f64; BATCH],
    gid: [u64; BATCH],
}

impl Gather {
    #[inline]
    fn new() -> Self {
        Gather { x: [0.0; BATCH], y: [0.0; BATCH], z: [0.0; BATCH], gid: [0; BATCH] }
    }

    /// Loads `chunk` (≤ `BATCH` slots) from the source.
    #[inline]
    fn load(&mut self, src: &impl TupleSource, chunk: &[u32]) {
        for (k, &j) in chunk.iter().enumerate() {
            let p = src.pos(j);
            self.x[k] = p.x;
            self.y[k] = p.y;
            self.z[k] = p.z;
            self.gid[k] = src.gid(j);
        }
    }
}

/// Per-axis displacement rule for the lane loops: minimum-image when the
/// source is periodic, plain difference otherwise (encoded as `l = 0`,
/// `half = ∞`, which makes both corrections dead).
///
/// Bitwise identical to [`sc_geom::SimulationBox::min_image`]: the two
/// corrections can never both fire for wrapped positions (|d| < L, so after
/// `d -= L` the result is > −L/2), and the untaken arms add `0.0` / `−0.0`,
/// which preserve every `f64` — including signed zeros — exactly.
#[derive(Clone, Copy)]
struct DispRule {
    l: Vec3,
    half: Vec3,
}

impl DispRule {
    #[inline]
    fn of(src: &impl TupleSource) -> Self {
        match src.pbc_lengths() {
            Some(l) => DispRule { l, half: l * 0.5 },
            None => DispRule { l: Vec3::ZERO, half: Vec3::splat(f64::INFINITY) },
        }
    }

    /// Displacement `b − a` under the rule, with the lane loops' per-axis
    /// arithmetic.
    #[inline]
    fn disp(self, a: Vec3, b: Vec3) -> Vec3 {
        Vec3::new(
            min_image1(b.x - a.x, self.l.x, self.half.x),
            min_image1(b.y - a.y, self.l.y, self.half.y),
            min_image1(b.z - a.z, self.l.z, self.half.z),
        )
    }
}

#[inline]
fn min_image1(mut d: f64, l: f64, half: f64) -> f64 {
    d -= if d > half { l } else { 0.0 };
    d += if d < -half { l } else { -0.0 };
    d
}

/// Displacements and squared distances from `origin` to the first `m` lanes
/// of a [`Gather`]. The `k` loops are branch-free straight-line f64
/// arithmetic — exactly the shape LLVM's loop vectorizer turns into packed
/// lanes with select-based masking.
struct Lanes {
    dx: [f64; BATCH],
    dy: [f64; BATCH],
    dz: [f64; BATCH],
    r2: [f64; BATCH],
}

impl Lanes {
    #[inline]
    fn new() -> Self {
        Lanes { dx: [0.0; BATCH], dy: [0.0; BATCH], dz: [0.0; BATCH], r2: [0.0; BATCH] }
    }

    #[inline]
    fn compute(&mut self, origin: Vec3, g: &Gather, m: usize, rule: DispRule) {
        for k in 0..m {
            self.dx[k] = min_image1(g.x[k] - origin.x, rule.l.x, rule.half.x);
            self.dy[k] = min_image1(g.y[k] - origin.y, rule.l.y, rule.half.y);
            self.dz[k] = min_image1(g.z[k] - origin.z, rule.l.z, rule.half.z);
            self.r2[k] =
                self.dx[k] * self.dx[k] + self.dy[k] * self.dy[k] + self.dz[k] * self.dz[k];
        }
    }

    #[inline]
    fn disp(&self, k: usize) -> Vec3 {
        Vec3::new(self.dx[k], self.dy[k], self.dz[k])
    }
}

/// Visits every undirected pair generated by `plan` at base cell `q`.
///
/// The callback receives `(i, j, d_ij, r)` with `d_ij` the displacement
/// `r_j − r_i` and `r = |d_ij| < rcut`.
pub fn visit_pairs_in_cell_src(
    src: &impl TupleSource,
    plan: &PatternPlan,
    rcut: f64,
    q: IVec3,
    mut f: impl FnMut(u32, u32, Vec3, f64),
) -> VisitStats {
    debug_assert_eq!(plan.n, 2);
    let rc2 = rcut * rcut;
    let rule = DispRule::of(src);
    let mut stats = VisitStats::default();
    let mut g = Gather::new();
    let mut lanes = Lanes::new();
    for (offsets, guard) in &plan.paths {
        let cell_i = src.atoms_in(q + offsets[0]);
        let cell_j = src.atoms_in(q + offsets[1]);
        if cell_i.is_empty() {
            continue;
        }
        if cell_j.len() < BATCH_MIN {
            for &i in cell_i {
                let gi = src.gid(i);
                stats.candidates += cell_j.len() as u64;
                for &j in cell_j {
                    if i == j || (*guard && gi > src.gid(j)) {
                        continue;
                    }
                    let d = src.disp(i, j);
                    let r2 = d.norm_sq();
                    if r2 < rc2 {
                        stats.accepted += 1;
                        f(i, j, d, r2.sqrt());
                    }
                }
            }
            continue;
        }
        for chunk in cell_j.chunks(BATCH) {
            let m = chunk.len();
            g.load(src, chunk);
            for &i in cell_i {
                let pi = src.pos(i);
                let gi = src.gid(i);
                stats.candidates += m as u64;
                lanes.compute(pi, &g, m, rule);
                for (k, &j) in chunk.iter().enumerate() {
                    if i == j || (*guard && gi > g.gid[k]) {
                        continue;
                    }
                    let r2 = lanes.r2[k];
                    if r2 < rc2 {
                        stats.accepted += 1;
                        f(i, j, lanes.disp(k), r2.sqrt());
                    }
                }
            }
        }
    }
    stats
}

/// Link bit of a step longer than one cell (reach-k plans). The mask does
/// not resolve such steps, so every cell word carries this bit and a test
/// against it always passes.
const FAR_LINK: u32 = 1 << 27;

/// The link-mask bit of cell step `d`: one per `d ∈ {−1,0,1}³`, and
/// [`FAR_LINK`] for longer steps.
fn link_bit(d: IVec3) -> u32 {
    if d.linf_norm() <= 1 {
        1 << ((d.x + 1) * 9 + (d.y + 1) * 3 + (d.z + 1))
    } else {
        FAR_LINK
    }
}

/// Which neighbouring cells of a binned lattice share an in-cutoff atom
/// pair: one word per cell, with bit `δ` set when some atom of `c(q)` and
/// some distinct atom of `c(q+δ)` are closer than the cutoff.
///
/// The triplet kernel reads it to skip a prefix group whose first leg has
/// no in-cutoff pair, and a suffix cell that no second leg reaches. The
/// mask cannot drop a real link: it is built with the kernel's own
/// displacement rule and squared-distance expression, and where the kernel
/// runs a leg in the other direction it sees the negated displacement,
/// which IEEE arithmetic produces exactly (each minimum-image correction
/// included). Skipping therefore removes only work that accepts nothing,
/// and the callback sequence stays the same call for call.
///
/// A mask describes the bins and positions of its last
/// [`LinkMask::rebuild`]; rebuild it after every lattice rebuild.
#[derive(Debug, Clone, Default)]
pub struct LinkMask {
    words: Vec<u32>,
}

impl LinkMask {
    /// Rebuilds the mask from `src`'s current bins and positions: each cell
    /// against itself and its 13 forward neighbours, stopping at the first
    /// in-cutoff pair and setting the bit on both cells.
    pub fn rebuild(&mut self, src: &impl TupleSource, rcut: f64) {
        let bins = src.bins();
        let rc2 = rcut * rcut;
        let rule = DispRule::of(src);
        self.words.clear();
        self.words.resize(bins.num_cells(), FAR_LINK);
        let forward: Vec<IVec3> = IVec3::box_iter(IVec3::splat(-1), IVec3::splat(1))
            .filter(|&d| d >= IVec3::ZERO)
            .collect();
        for c in 0..bins.num_cells() {
            let a = bins.atoms(c);
            if a.is_empty() {
                continue;
            }
            let q = bins.coord(c);
            for &d in &forward {
                let Some(c2) = bins.index(q + d) else { continue };
                let b = bins.atoms(c2);
                let linked = a.iter().enumerate().any(|(k, &i)| {
                    let p = src.pos(i);
                    // Within one cell, each unordered pair once.
                    let others = if d == IVec3::ZERO { &a[k + 1..] } else { b };
                    others.iter().any(|&j| rule.disp(p, src.pos(j)).norm_sq() < rc2)
                });
                if linked {
                    self.words[c] |= link_bit(d);
                    self.words[c2] |= link_bit(-d);
                }
            }
        }
    }
}

/// Visits every undirected chain triplet `(i0, i1, i2)` generated by `plan`
/// from the base cells `cells`, in order, with both legs shorter than
/// `rcut`. `links` must be built from `src`'s current bins with `rcut`.
///
/// The callback receives `(i0, i1, i2, d01, d12)` where `d01 = r1 − r0` and
/// `d12 = r2 − r1` are link displacement vectors.
///
/// Per base cell the plan's cell block is resolved once. A prefix group is
/// skipped when `links` shows no in-cutoff pair across its first leg, and a
/// suffix cell when it shows none across the second; what survives runs
/// groups in plan order, then `i0`, `i1`, suffixes, `i2`. The candidate
/// count is the full search space from occupancies (see
/// [`VisitStats::candidates`]).
pub fn visit_triplets_in_cells(
    src: &impl TupleSource,
    links: &LinkMask,
    plan: &PatternPlan,
    rcut: f64,
    cells: impl IntoIterator<Item = IVec3>,
    mut f: impl FnMut(u32, u32, u32, Vec3, Vec3),
) -> VisitStats {
    debug_assert_eq!(plan.n, 3);
    let bins = src.bins();
    debug_assert_eq!(links.words.len(), bins.num_cells(), "link mask of another lattice");
    let rc2 = rcut * rcut;
    let rule = DispRule::of(src);
    let mut stats = VisitStats::default();
    // `(atoms, link word)` per block offset of the current base cell.
    let mut block: Vec<(&[u32], u32)> = Vec::with_capacity(plan.block.len());
    // The current group's suffix cells that a second leg can reach.
    let mut live: Vec<(&[u32], bool)> = Vec::new();
    for q in cells {
        block.clear();
        block.extend(plan.block.iter().map(|&v| match bins.index(q + v) {
            Some(c) => (bins.atoms(c), links.words[c]),
            None => (&[][..], 0),
        }));
        for group in &plan.triplet_groups {
            let (cell_0, links_0) = block[group.c0];
            let (cell_1, links_1) = block[group.c1];
            let pairs = (cell_0.len() * cell_1.len()) as u64;
            if pairs == 0 {
                continue;
            }
            let total: u64 = group.suffixes.iter().map(|s| block[s.c2].0.len() as u64).sum();
            stats.candidates += pairs * total;
            if links_0 & group.link == 0 {
                continue;
            }
            live.clear();
            live.extend(
                group
                    .suffixes
                    .iter()
                    .filter(|s| links_1 & s.link != 0 && !block[s.c2].0.is_empty())
                    .map(|s| (block[s.c2].0, s.guard)),
            );
            if live.is_empty() {
                continue;
            }
            for &i0 in cell_0 {
                let p0 = src.pos(i0);
                let g0 = src.gid(i0);
                for &i1 in cell_1 {
                    if i1 == i0 {
                        continue;
                    }
                    let p1 = src.pos(i1);
                    let d01 = rule.disp(p0, p1);
                    if d01.norm_sq() >= rc2 {
                        continue;
                    }
                    for &(cell_2, guard) in &live {
                        for &i2 in cell_2 {
                            if i2 == i1 || i2 == i0 || (guard && g0 > src.gid(i2)) {
                                continue;
                            }
                            let d12 = rule.disp(p1, src.pos(i2));
                            if d12.norm_sq() < rc2 {
                                stats.accepted += 1;
                                f(i0, i1, i2, d01, d12);
                            }
                        }
                    }
                }
            }
        }
    }
    stats
}

/// Visits every undirected chain quadruplet generated by `plan` at base cell
/// `q`, with all three links shorter than `rcut`.
///
/// The callback receives `(ids, d01, d12, d23)`.
pub fn visit_quadruplets_in_cell_src(
    src: &impl TupleSource,
    plan: &PatternPlan,
    rcut: f64,
    q: IVec3,
    mut f: impl FnMut([u32; 4], Vec3, Vec3, Vec3),
) -> VisitStats {
    debug_assert_eq!(plan.n, 4);
    let rc2 = rcut * rcut;
    let rule = DispRule::of(src);
    let mut stats = VisitStats::default();
    let mut g = Gather::new();
    let mut lanes = Lanes::new();
    for (offsets, guard) in &plan.paths {
        let cell_0 = src.atoms_in(q + offsets[0]);
        let cell_1 = src.atoms_in(q + offsets[1]);
        let cell_2 = src.atoms_in(q + offsets[2]);
        let cell_3 = src.atoms_in(q + offsets[3]);
        if cell_0.is_empty() || cell_1.is_empty() || cell_2.is_empty() {
            continue;
        }
        if cell_3.len() < BATCH_MIN {
            for &i0 in cell_0 {
                let g0 = src.gid(i0);
                for &i1 in cell_1 {
                    if i1 == i0 {
                        stats.candidates += cell_2.len() as u64 * cell_3.len() as u64;
                        continue;
                    }
                    let d01 = src.disp(i0, i1);
                    if d01.norm_sq() >= rc2 {
                        stats.candidates += cell_2.len() as u64 * cell_3.len() as u64;
                        continue;
                    }
                    for &i2 in cell_2 {
                        stats.candidates += cell_3.len() as u64;
                        if i2 == i1 || i2 == i0 {
                            continue;
                        }
                        let d12 = src.disp(i1, i2);
                        if d12.norm_sq() >= rc2 {
                            continue;
                        }
                        for &i3 in cell_3 {
                            if i3 == i2 || i3 == i1 || i3 == i0 || (*guard && g0 > src.gid(i3)) {
                                continue;
                            }
                            let d23 = src.disp(i2, i3);
                            if d23.norm_sq() < rc2 {
                                stats.accepted += 1;
                                f([i0, i1, i2, i3], d01, d12, d23);
                            }
                        }
                    }
                }
            }
            continue;
        }
        for chunk in cell_3.chunks(BATCH) {
            let m = chunk.len() as u64;
            g.load(src, chunk);
            for &i0 in cell_0 {
                let g0 = src.gid(i0);
                for &i1 in cell_1 {
                    if i1 == i0 {
                        stats.candidates += cell_2.len() as u64 * m;
                        continue;
                    }
                    let d01 = src.disp(i0, i1);
                    if d01.norm_sq() >= rc2 {
                        stats.candidates += cell_2.len() as u64 * m;
                        continue;
                    }
                    for &i2 in cell_2 {
                        if i2 == i1 || i2 == i0 {
                            stats.candidates += m;
                            continue;
                        }
                        let d12 = src.disp(i1, i2);
                        if d12.norm_sq() >= rc2 {
                            stats.candidates += m;
                            continue;
                        }
                        stats.candidates += m;
                        lanes.compute(src.pos(i2), &g, chunk.len(), rule);
                        for (k, &i3) in chunk.iter().enumerate() {
                            if i3 == i2 || i3 == i1 || i3 == i0 || (*guard && g0 > g.gid[k]) {
                                continue;
                            }
                            if lanes.r2[k] < rc2 {
                                stats.accepted += 1;
                                f([i0, i1, i2, i3], d01, d12, lanes.disp(k));
                            }
                        }
                    }
                }
            }
        }
    }
    stats
}

/// Visits every undirected chain n-tuple for **arbitrary n** at base cell
/// `q` — the fully general form of the paper's UCP search (ReaxFF-style
/// force fields reach n = 6 through chain-rule terms, §1). The callback
/// receives the atom slots of each accepted chain.
///
/// The specialized n = 2..4 visitors above are what the force loops use;
/// this recursive form serves statistics and enumeration at higher n.
pub fn visit_ntuples_in_cell_src(
    src: &impl TupleSource,
    plan: &PatternPlan,
    rcut: f64,
    q: IVec3,
    mut f: impl FnMut(&[u32]),
) -> VisitStats {
    let n = plan.n;
    let rc2 = rcut * rcut;
    let rule = DispRule::of(src);
    let mut stats = VisitStats::default();
    let mut chain: Vec<u32> = Vec::with_capacity(n);
    let mut g = Gather::new();
    let mut lanes = Lanes::new();

    #[allow(clippy::too_many_arguments)]
    fn descend(
        src: &impl TupleSource,
        cells: &[IVec3],
        guard: bool,
        rc2: f64,
        rule: DispRule,
        chain: &mut Vec<u32>,
        g: &mut Gather,
        lanes: &mut Lanes,
        stats: &mut VisitStats,
        f: &mut impl FnMut(&[u32]),
    ) {
        let depth = chain.len();
        let n = cells.len();
        if depth == n - 1 {
            // Leaf level: batched distance checks against the last chain
            // atom. Candidates are counted per lane block — the same "count
            // leaves" accounting as the scalar form.
            let prev = chain.last().copied();
            for chunk in src.atoms_in(cells[depth]).chunks(BATCH) {
                let m = chunk.len();
                stats.candidates += m as u64;
                g.load(src, chunk);
                if let Some(prev) = prev {
                    lanes.compute(src.pos(prev), g, m, rule);
                }
                for (k, &i) in chunk.iter().enumerate() {
                    if chain.contains(&i) {
                        continue;
                    }
                    if prev.is_some() && lanes.r2[k] >= rc2 {
                        continue;
                    }
                    if guard && src.gid(chain[0]) > g.gid[k] {
                        continue;
                    }
                    stats.accepted += 1;
                    chain.push(i);
                    f(chain);
                    chain.pop();
                }
            }
            return;
        }
        let last = chain.last().copied();
        for &i in src.atoms_in(cells[depth]) {
            if chain.contains(&i) {
                continue;
            }
            if let Some(prev) = last {
                if src.disp(prev, i).norm_sq() >= rc2 {
                    continue;
                }
            }
            chain.push(i);
            descend(src, cells, guard, rc2, rule, chain, g, lanes, stats, f);
            chain.pop();
        }
    }

    for (offsets, guard) in &plan.paths {
        let cells: Vec<IVec3> = offsets.iter().map(|&v| q + v).collect();
        descend(src, &cells, *guard, rc2, rule, &mut chain, &mut g, &mut lanes, &mut stats, &mut f);
    }
    stats
}

/// Runs the arbitrary-n visitor over every cell of the lattice (serial).
pub fn visit_ntuples(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    mut f: impl FnMut(&[u32]),
) -> VisitStats {
    let src = PeriodicSource::new(lat, store);
    let mut stats = VisitStats::default();
    for q in lat.cells() {
        stats.merge(visit_ntuples_in_cell_src(&src, plan, rcut, q, &mut f));
    }
    stats
}

/// Per-cell pair visitor over the global periodic lattice.
pub fn visit_pairs_in_cell(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    q: IVec3,
    f: impl FnMut(u32, u32, Vec3, f64),
) -> VisitStats {
    visit_pairs_in_cell_src(&PeriodicSource::new(lat, store), plan, rcut, q, f)
}

/// Per-cell quadruplet visitor over the global periodic lattice.
pub fn visit_quadruplets_in_cell(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    q: IVec3,
    f: impl FnMut([u32; 4], Vec3, Vec3, Vec3),
) -> VisitStats {
    visit_quadruplets_in_cell_src(&PeriodicSource::new(lat, store), plan, rcut, q, f)
}

/// Runs a pair visitor over every cell of the lattice (serial).
pub fn visit_pairs(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    mut f: impl FnMut(u32, u32, Vec3, f64),
) -> VisitStats {
    let mut stats = VisitStats::default();
    for q in lat.cells() {
        stats.merge(visit_pairs_in_cell(lat, store, plan, rcut, q, &mut f));
    }
    stats
}

/// Runs the triplet kernel over every cell of the lattice (serial),
/// building the lattice's link mask first.
pub fn visit_triplets(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    f: impl FnMut(u32, u32, u32, Vec3, Vec3),
) -> VisitStats {
    let src = PeriodicSource::new(lat, store);
    let mut links = LinkMask::default();
    links.rebuild(&src, rcut);
    visit_triplets_in_cells(&src, &links, plan, rcut, lat.cells(), f)
}

/// Runs a quadruplet visitor over every cell of the lattice (serial).
pub fn visit_quadruplets(
    lat: &CellLattice,
    store: &AtomStore,
    plan: &PatternPlan,
    rcut: f64,
    mut f: impl FnMut([u32; 4], Vec3, Vec3, Vec3),
) -> VisitStats {
    let mut stats = VisitStats::default();
    for q in lat.cells() {
        stats.merge(visit_quadruplets_in_cell(lat, store, plan, rcut, q, &mut f));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_gas;
    use proptest::prelude::*;
    use sc_cell::{GhostLattice, Species};
    use sc_core::{generate_fs, oc_shift, r_collapse, shift_collapse};
    use std::collections::HashSet;

    /// A plain-difference source (`disp = r_j − r_i`, no minimum image)
    /// over either lattice's bins — the rank-local geometry.
    struct Plain<'a> {
        bins: CellBins<'a>,
        store: &'a AtomStore,
    }

    impl TupleSource for Plain<'_> {
        fn bins(&self) -> CellBins<'_> {
            self.bins
        }
        fn pos(&self, i: u32) -> Vec3 {
            self.store.positions()[i as usize]
        }
        fn gid(&self, i: u32) -> u64 {
            self.store.ids()[i as usize]
        }
        fn disp(&self, i: u32, j: u32) -> Vec3 {
            self.pos(j) - self.pos(i)
        }
    }

    fn setup(n_atoms: usize, box_l: f64, rcut: f64) -> (CellLattice, AtomStore) {
        let (store, bbox) = random_gas(n_atoms, box_l, 7);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        (lat, store)
    }

    fn pair_set(
        lat: &CellLattice,
        store: &AtomStore,
        plan: &PatternPlan,
        rcut: f64,
    ) -> HashSet<(u32, u32)> {
        let mut out = HashSet::new();
        visit_pairs(lat, store, plan, rcut, |i, j, _, _| {
            let key = (i.min(j), i.max(j));
            assert!(out.insert(key), "pair {key:?} visited twice");
        });
        out
    }

    #[test]
    fn fs_and_sc_visit_identical_pair_sets() {
        let rcut = 1.0;
        let (lat, store) = setup(120, 4.0, rcut);
        let fs = PatternPlan::new(&generate_fs(2), Dedup::Guarded);
        let sc = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        let a = pair_set(&lat, &store, &fs, rcut);
        let b = pair_set(&lat, &store, &sc, rcut);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fs_and_sc_visit_identical_triplet_sets() {
        let rcut = 1.0;
        let (lat, store) = setup(80, 4.0, rcut);
        let collect = |plan: &PatternPlan| {
            let mut out = HashSet::new();
            visit_triplets(&lat, &store, plan, rcut, |i, j, k, _, _| {
                let key = (i.min(k), j, i.max(k));
                assert!(out.insert(key), "triplet {key:?} visited twice");
            });
            out
        };
        let a = collect(&PatternPlan::new(&generate_fs(3), Dedup::Guarded));
        let b = collect(&PatternPlan::new(&shift_collapse(3), Dedup::Collapsed));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fs_and_sc_visit_identical_quadruplet_sets() {
        let rcut = 1.0;
        let (lat, store) = setup(40, 4.0, rcut);
        let collect = |plan: &PatternPlan| {
            let mut out = HashSet::new();
            visit_quadruplets(&lat, &store, plan, rcut, |ids, _, _, _| {
                let key = if ids[0] < ids[3] { ids } else { [ids[3], ids[2], ids[1], ids[0]] };
                assert!(out.insert(key), "quad {key:?} visited twice");
            });
            out
        };
        let a = collect(&PatternPlan::new(&generate_fs(4), Dedup::Guarded));
        let b = collect(&PatternPlan::new(&shift_collapse(4), Dedup::Collapsed));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn fs_examines_about_twice_the_candidates_of_sc() {
        // The search-cost halving of Eq. 29, observed on real data (Fig. 7).
        let rcut = 1.0;
        let (lat, store) = setup(200, 4.0, rcut);
        let fs = PatternPlan::new(&generate_fs(3), Dedup::Guarded);
        let sc = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
        let s_fs = visit_triplets(&lat, &store, &fs, rcut, |_, _, _, _, _| {});
        let s_sc = visit_triplets(&lat, &store, &sc, rcut, |_, _, _, _, _| {});
        let ratio = s_fs.candidates as f64 / s_sc.candidates as f64;
        assert!(
            (1.7..2.2).contains(&ratio),
            "FS/SC candidate ratio {ratio}, expected ≈ 729/378 = 1.93"
        );
        // Both accept the same number of (undirected) tuples.
        assert_eq!(s_fs.accepted, s_sc.accepted);
    }

    #[test]
    fn accepted_pairs_respect_cutoff() {
        let rcut = 0.8;
        let (lat, store) = setup(100, 4.0, rcut);
        let sc = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        visit_pairs(&lat, &store, &sc, rcut, |i, j, d, r| {
            assert!(r < rcut);
            assert!(i != j);
            assert!((d.norm() - r).abs() < 1e-12);
            // d is the minimum-image displacement.
            let expect =
                lat.bbox().min_image(store.positions()[i as usize], store.positions()[j as usize]);
            assert!((d - expect).norm() < 1e-12);
        });
    }

    #[test]
    fn generic_visitor_agrees_with_specialized_ones() {
        let rcut = 1.0;
        let (lat, store) = setup(60, 4.0, rcut);
        for n in [2usize, 3, 4] {
            let plan = PatternPlan::new(&shift_collapse(n), Dedup::Collapsed);
            let mut generic: Vec<Vec<u32>> = vec![];
            visit_ntuples(&lat, &store, &plan, rcut, |chain| {
                let mut c = chain.to_vec();
                let mut r = c.clone();
                r.reverse();
                if r < c {
                    c = r;
                }
                generic.push(c);
            });
            generic.sort();
            let mut specialized: Vec<Vec<u32>> = vec![];
            match n {
                2 => {
                    visit_pairs(&lat, &store, &plan, rcut, |i, j, _, _| {
                        specialized.push(vec![i.min(j), i.max(j)]);
                    });
                }
                3 => {
                    visit_triplets(&lat, &store, &plan, rcut, |i, j, k, _, _| {
                        specialized.push(vec![i.min(k), j, i.max(k)]);
                    });
                }
                4 => {
                    visit_quadruplets(&lat, &store, &plan, rcut, |ids, _, _, _| {
                        let mut c = ids.to_vec();
                        let mut r = c.clone();
                        r.reverse();
                        if r < c {
                            c = r;
                        }
                        specialized.push(c);
                    });
                }
                _ => unreachable!(),
            }
            specialized.sort();
            assert_eq!(generic, specialized, "n = {n}");
        }
    }

    #[test]
    fn generic_visitor_reaches_n5() {
        // n = 5 chains (ReaxFF-regime statistics): SC(5) and FS(5) must
        // find the same undirected chain set.
        let rcut = 1.0;
        let (store, bbox) = random_gas(14, 5.0, 3);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(&store);
        let collect = |plan: &PatternPlan| {
            let mut out: Vec<Vec<u32>> = vec![];
            visit_ntuples(&lat, &store, plan, rcut, |chain| {
                let mut c = chain.to_vec();
                let mut r = c.clone();
                r.reverse();
                if r < c {
                    c = r;
                }
                out.push(c);
            });
            out.sort();
            out.dedup();
            out
        };
        let sc = collect(&PatternPlan::new(&shift_collapse(5), Dedup::Collapsed));
        let fs = collect(&PatternPlan::new(&generate_fs(5), Dedup::Guarded));
        assert_eq!(sc, fs);
    }

    #[test]
    fn guard_uses_global_ids_not_slots() {
        // Two atoms whose slot order and id order disagree: the pair must
        // still be visited exactly once under the Guarded mode.
        let bbox = sc_geom::SimulationBox::cubic(4.0);
        let mut store = AtomStore::single_species();
        store.push(100, sc_cell::Species::DEFAULT, Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO);
        store.push(5, sc_cell::Species::DEFAULT, Vec3::new(1.4, 1.0, 1.0), Vec3::ZERO);
        let mut lat = CellLattice::new(bbox, 1.0);
        lat.rebuild(&store);
        let fs = PatternPlan::new(&generate_fs(2), Dedup::Guarded);
        let mut hits = vec![];
        visit_pairs(&lat, &store, &fs, 1.0, |i, j, _, _| hits.push((i, j)));
        assert_eq!(hits.len(), 1);
        // The accepted direction runs from the smaller gid (atom slot 1).
        assert_eq!(hits[0], (1, 0));
    }

    #[test]
    fn plan_metadata() {
        let p = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        assert_eq!(p.n(), 2);
        assert_eq!(p.len(), 14);
        assert!(!p.is_empty());
    }

    /// The scalar pair loop the batched kernel replaced, kept as the
    /// semantic reference: identical candidate/accepted counters and
    /// bitwise-identical displacements are the contract.
    fn scalar_pairs(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        q: IVec3,
        f: &mut impl FnMut(u32, u32, Vec3, f64),
    ) -> VisitStats {
        let rc2 = rcut * rcut;
        let mut stats = VisitStats::default();
        for (offsets, guard) in &plan.paths {
            let cell_i = src.atoms_in(q + offsets[0]);
            let cell_j = src.atoms_in(q + offsets[1]);
            for &i in cell_i {
                for &j in cell_j {
                    stats.candidates += 1;
                    if i == j || (*guard && src.gid(i) > src.gid(j)) {
                        continue;
                    }
                    let d = src.disp(i, j);
                    let r2 = d.norm_sq();
                    if r2 < rc2 {
                        stats.accepted += 1;
                        f(i, j, d, r2.sqrt());
                    }
                }
            }
        }
        stats
    }

    #[test]
    fn batched_pairs_match_scalar_reference_bitwise() {
        let rcut = 1.1;
        let (lat, store) = setup(300, 4.0, rcut); // ρ_cell high enough to span chunks
        let src = PeriodicSource::new(&lat, &store);
        for plan in [
            PatternPlan::new(&shift_collapse(2), Dedup::Collapsed),
            PatternPlan::new(&generate_fs(2), Dedup::Guarded),
        ] {
            let mut batched: Vec<(u32, u32, [u64; 3], u64)> = vec![];
            let mut scalar: Vec<(u32, u32, [u64; 3], u64)> = vec![];
            let mut total_b = VisitStats::default();
            let mut total_s = VisitStats::default();
            for q in lat.cells() {
                total_b.merge(visit_pairs_in_cell_src(&src, &plan, rcut, q, |i, j, d, r| {
                    batched.push((
                        i,
                        j,
                        [d.x.to_bits(), d.y.to_bits(), d.z.to_bits()],
                        r.to_bits(),
                    ));
                }));
                total_s.merge(scalar_pairs(&src, &plan, rcut, q, &mut |i, j, d, r| {
                    scalar.push((i, j, [d.x.to_bits(), d.y.to_bits(), d.z.to_bits()], r.to_bits()));
                }));
            }
            assert_eq!(total_b, total_s, "counters must match the scalar loop exactly");
            // Chunking may reorder visits within a cell; the visited
            // multiset with bitwise displacements must be identical.
            batched.sort_unstable();
            scalar.sort_unstable();
            assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn batched_kernels_are_exact_on_local_frames() {
        // A plain-difference (no-PBC) source exercises the dead-correction
        // encoding of the displacement rule: l = 0, half = ∞ must be a
        // bitwise no-op, never NaN.
        let rcut = 1.0;
        let (lat, store) = setup(120, 4.0, rcut);
        let src = Plain { bins: lat.bins(), store: &store };
        let plan = PatternPlan::new(&shift_collapse(2), Dedup::Collapsed);
        let mut seen = 0u64;
        for q in lat.cells() {
            visit_pairs_in_cell_src(&src, &plan, rcut, q, |i, j, d, r| {
                seen += 1;
                let expect = src.disp(i, j);
                assert_eq!(d.x.to_bits(), expect.x.to_bits());
                assert_eq!(d.y.to_bits(), expect.y.to_bits());
                assert_eq!(d.z.to_bits(), expect.z.to_bits());
                assert!(r.is_finite());
            });
        }
        assert!(seen > 0);
    }

    /// The grouped per-cell triplet visitor the link-masked kernel
    /// replaced, kept as the ordered reference: per-path cell lookups, a
    /// scalar loop below `BATCH_MIN` and a lane loop above it.
    fn grouped_triplets_reference(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        q: IVec3,
        f: &mut impl FnMut(u32, u32, u32, Vec3, Vec3),
    ) -> VisitStats {
        // Prefix groups in first-seen order, suffixes in path order.
        type Group = ([IVec3; 2], Vec<(IVec3, bool)>);
        let mut groups: Vec<Group> = Vec::new();
        for (offsets, guard) in &plan.paths {
            let prefix = [offsets[0], offsets[1]];
            match groups.iter_mut().find(|g| g.0 == prefix) {
                Some(g) => g.1.push((offsets[2], *guard)),
                None => groups.push((prefix, vec![(offsets[2], *guard)])),
            }
        }
        let rc2 = rcut * rcut;
        let rule = DispRule::of(src);
        let mut stats = VisitStats::default();
        let mut g = Gather::new();
        let mut lanes = Lanes::new();
        let mut cells_2: Vec<(&[u32], bool)> = Vec::new();
        for (prefix, suffixes) in &groups {
            let cell_0 = src.atoms_in(q + prefix[0]);
            if cell_0.is_empty() {
                continue;
            }
            let cell_1 = src.atoms_in(q + prefix[1]);
            if cell_1.is_empty() {
                continue;
            }
            cells_2.clear();
            let mut total: u64 = 0;
            for &(v2, guard) in suffixes {
                let c = src.atoms_in(q + v2);
                total += c.len() as u64;
                if !c.is_empty() {
                    cells_2.push((c, guard));
                }
            }
            if total == 0 {
                continue;
            }
            for &i0 in cell_0 {
                let g0 = src.gid(i0);
                for &i1 in cell_1 {
                    stats.candidates += total;
                    if i1 == i0 {
                        continue;
                    }
                    let d01 = src.disp(i0, i1);
                    if d01.norm_sq() >= rc2 {
                        continue;
                    }
                    let p1 = src.pos(i1);
                    for &(cell_2, guard) in &cells_2 {
                        if cell_2.len() < BATCH_MIN {
                            for &i2 in cell_2 {
                                if i2 == i1 || i2 == i0 || (guard && g0 > src.gid(i2)) {
                                    continue;
                                }
                                let d12 = src.disp(i1, i2);
                                if d12.norm_sq() < rc2 {
                                    stats.accepted += 1;
                                    f(i0, i1, i2, d01, d12);
                                }
                            }
                            continue;
                        }
                        for chunk in cell_2.chunks(BATCH) {
                            let m = chunk.len();
                            g.load(src, chunk);
                            lanes.compute(p1, &g, m, rule);
                            for (k, &i2) in chunk.iter().enumerate() {
                                if i2 == i1 || i2 == i0 || (guard && g0 > g.gid[k]) {
                                    continue;
                                }
                                if lanes.r2[k] < rc2 {
                                    stats.accepted += 1;
                                    f(i0, i1, i2, d01, lanes.disp(k));
                                }
                            }
                        }
                    }
                }
            }
        }
        stats
    }

    type Call = (u32, u32, u32, [u64; 6]);

    fn record(calls: &mut Vec<Call>) -> impl FnMut(u32, u32, u32, Vec3, Vec3) + '_ {
        |i0, i1, i2, d01, d12| {
            let b = [d01.x, d01.y, d01.z, d12.x, d12.y, d12.z].map(f64::to_bits);
            calls.push((i0, i1, i2, b));
        }
    }

    /// Asserts the link-masked kernel emits the reference's callback
    /// sequence — same tuples, same order, bitwise-equal displacements —
    /// and the same counters over `cells`. Returns the accepted count.
    fn assert_kernel_matches_reference(
        src: &impl TupleSource,
        plan: &PatternPlan,
        rcut: f64,
        cells: &[IVec3],
        what: &str,
    ) -> u64 {
        let mut expect = Vec::new();
        let mut expect_stats = VisitStats::default();
        {
            let mut f = record(&mut expect);
            for &q in cells {
                expect_stats.merge(grouped_triplets_reference(src, plan, rcut, q, &mut f));
            }
        }
        let mut links = LinkMask::default();
        links.rebuild(src, rcut);
        let mut got = Vec::new();
        let got_stats = visit_triplets_in_cells(
            src,
            &links,
            plan,
            rcut,
            cells.iter().copied(),
            record(&mut got),
        );
        assert_eq!(got_stats, expect_stats, "{what}: counters");
        assert_eq!(got.len(), expect.len(), "{what}: callback count");
        if let Some(k) = (0..got.len()).find(|&k| got[k] != expect[k]) {
            panic!("{what}: call {k} is {:?}, reference {:?}", got[k], expect[k]);
        }
        got_stats.accepted
    }

    /// SC, FS, OC-shift-only and R-collapse-only triplet plans.
    fn triplet_plans() -> [(&'static str, PatternPlan); 4] {
        let fs = generate_fs(3);
        [
            ("SC", PatternPlan::new(&shift_collapse(3), Dedup::Collapsed)),
            ("FS", PatternPlan::new(&fs, Dedup::Guarded)),
            ("OC-only", PatternPlan::new(&oc_shift(&fs), Dedup::Guarded)),
            ("RC-only", PatternPlan::new(&r_collapse(&fs), Dedup::Collapsed)),
        ]
    }

    /// `store` with its global ids permuted, so gid order differs from slot
    /// order and the reflective guard decides on ids alone.
    fn shuffled_ids(store: &AtomStore) -> AtomStore {
        let n = store.len() as u64;
        let mut out = AtomStore::single_species();
        for i in 0..store.len() {
            let id = (i as u64 * 7919 + 13) % n; // 7919 is prime, so a bijection
            out.push(id, Species::DEFAULT, store.positions()[i], Vec3::ZERO);
        }
        out
    }

    /// Every plan on a periodic (minimum-image) source and on a
    /// plain-difference source over a bounded rank-style lattice, from at
    /// most `max_base_cells` base cells of each.
    fn check_all_sources(store: &AtomStore, box_l: f64, rcut: f64, max_base_cells: usize) -> u64 {
        let bbox = sc_geom::SimulationBox::cubic(box_l);
        let mut lat = CellLattice::new(bbox, rcut);
        lat.rebuild(store);
        let periodic = PeriodicSource::new(&lat, store);
        let base: Vec<IVec3> = lat.cells().take(max_base_cells).collect();
        // A rank-style lattice: owned cells plus an SC-deep upper margin,
        // no wrap — FS offsets step off its low side.
        let dims = lat.dims();
        let edge = box_l / dims.x as f64;
        let mut ghost = GhostLattice::new(
            Vec3::ZERO,
            Vec3::splat(edge),
            dims - IVec3::splat(2),
            IVec3::ZERO,
            IVec3::splat(2),
        );
        ghost.rebuild(store, store.len());
        let local = Plain { bins: ghost.bins(), store };
        let owned: Vec<IVec3> = ghost.owned_region().iter().take(max_base_cells).collect();
        let mut accepted = 0;
        for (name, plan) in triplet_plans() {
            accepted += assert_kernel_matches_reference(
                &periodic,
                &plan,
                rcut,
                &base,
                &format!("{name} periodic"),
            );
            accepted += assert_kernel_matches_reference(
                &local,
                &plan,
                rcut,
                &owned,
                &format!("{name} plain"),
            );
        }
        accepted
    }

    #[test]
    fn link_masked_kernel_matches_reference_on_sparse_cells() {
        // ρ_cell ≈ 1: the triplet lattices of the silica benchmarks.
        let (store, _) = random_gas(216, 6.0, 11);
        assert!(check_all_sources(&store, 6.0, 1.0, usize::MAX) > 0);
        assert!(check_all_sources(&shuffled_ids(&store), 6.0, 1.0, usize::MAX) > 0);
    }

    #[test]
    fn link_masked_kernel_matches_reference_on_dense_cells() {
        // ≥ 32 atoms per cell takes the reference's lane loop; two base
        // cells keep the recorded sequences small.
        let (store, _) = random_gas(1000, 3.0, 5);
        assert!(check_all_sources(&store, 3.0, 1.0, 2) > 0);
        assert!(check_all_sources(&shuffled_ids(&store), 3.0, 1.0, 2) > 0);
    }

    #[test]
    fn link_masked_kernel_matches_reference_on_subdivided_cells() {
        // Reach-2 plans on half-size cells step two cells at a time, which
        // the mask does not resolve: those steps must never be skipped.
        let rcut = 1.0;
        let (store, bbox) = random_gas(120, 3.5, 3);
        let mut lat = CellLattice::new(bbox, rcut / 2.0);
        lat.rebuild(&store);
        let cells: Vec<IVec3> = lat.cells().step_by(5).collect();
        let periodic = PeriodicSource::new(&lat, &store);
        let plain = Plain { bins: lat.bins(), store: &store };
        for (name, pattern, dedup) in [
            ("SC", sc_core::shift_collapse_reach(3, 2), Dedup::Collapsed),
            ("FS", sc_core::generate_fs_reach(3, 2), Dedup::Guarded),
        ] {
            let plan = PatternPlan::new(&pattern, dedup);
            let what = format!("{name} reach-2");
            assert!(assert_kernel_matches_reference(&periodic, &plan, rcut, &cells, &what) > 0);
            assert_kernel_matches_reference(&plain, &plan, rcut, &cells, &what);
        }
    }

    #[test]
    fn link_mask_skips_distant_cells_but_keeps_counting_them() {
        // One atom per cell, each two cutoffs from the next: every mask
        // word is empty, the kernel accepts nothing, and it still reports
        // the full search space.
        let bbox = sc_geom::SimulationBox::cubic(6.0);
        let mut store = AtomStore::single_species();
        for (id, x) in [(0u64, 0.5), (1, 2.5), (2, 4.5)] {
            store.push(id, Species::DEFAULT, Vec3::new(x, 0.5, 0.5), Vec3::ZERO);
        }
        let mut lat = CellLattice::new(bbox, 2.0);
        lat.rebuild(&store);
        let src = PeriodicSource::new(&lat, &store);
        let mut links = LinkMask::default();
        links.rebuild(&src, 1.0);
        assert!(links.words.iter().all(|&w| w == FAR_LINK), "no in-cutoff pair anywhere");
        let plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
        let mut calls = 0;
        let stats =
            visit_triplets_in_cells(&src, &links, &plan, 1.0, lat.cells(), |_, _, _, _, _| {
                calls += 1
            });
        assert_eq!(calls, 0);
        assert_eq!(stats.accepted, 0);
        let mut reference = VisitStats::default();
        for q in lat.cells() {
            reference.merge(grouped_triplets_reference(
                &src,
                &plan,
                1.0,
                q,
                &mut |_, _, _, _, _| {},
            ));
        }
        assert_eq!(stats.candidates, reference.candidates);
        assert!(stats.candidates > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn link_masked_kernel_matches_reference_on_random_gases(
            n in 10usize..160,
            seed in 0u64..1_000,
            rcut in 0.8f64..1.6,
            shuffle in 0u8..2,
        ) {
            let box_l = 5.0;
            let (store, _) = random_gas(n, box_l, seed);
            let store = if shuffle == 1 { shuffled_ids(&store) } else { store };
            check_all_sources(&store, box_l, rcut, usize::MAX);
        }
    }
}
