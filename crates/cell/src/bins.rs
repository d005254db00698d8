//! A borrowed, flat view of a lattice's CSR bins.

use sc_geom::IVec3;

/// The CSR bins of a binned lattice under one flat cell numbering, shared by
/// the periodic [`crate::CellLattice`] and the rank-local
/// [`crate::GhostLattice`].
///
/// Cell `q` has flat index `(t.x·D.y + t.y)·D.z + t.z` with `t = q − low`
/// (wrapped into `[0, D)` on a periodic lattice); on a bounded lattice a
/// cell outside `[low, low + D)` has no index and holds no atoms. Sweeps
/// that visit many cells around one base cell resolve each cell once
/// through this view and then work on flat indices.
#[derive(Debug, Clone, Copy)]
pub struct CellBins<'a> {
    starts: &'a [u32],
    order: &'a [u32],
    dims: IVec3,
    low: IVec3,
    periodic: bool,
}

impl<'a> CellBins<'a> {
    pub(crate) fn new(
        starts: &'a [u32],
        order: &'a [u32],
        dims: IVec3,
        low: IVec3,
        periodic: bool,
    ) -> Self {
        debug_assert_eq!(starts.len() as i64, dims.product() + 1);
        CellBins { starts, order, dims, low, periodic }
    }

    /// Number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Flat index of cell `q`: wrapped on a periodic lattice, `None` off a
    /// bounded one.
    #[inline]
    pub fn index(&self, q: IVec3) -> Option<usize> {
        let mut t = q - self.low;
        let d = self.dims;
        if self.periodic {
            t = t.rem_euclid(d);
        } else if !(t.in_first_octant() && t.x < d.x && t.y < d.y && t.z < d.z) {
            return None;
        }
        Some(((t.x * d.y + t.y) * d.z + t.z) as usize)
    }

    /// Cell coordinate of flat index `c` (the inverse of
    /// [`CellBins::index`] on the lattice's own cells).
    #[inline]
    pub fn coord(&self, c: usize) -> IVec3 {
        let (dy, dz) = (self.dims.y as usize, self.dims.z as usize);
        IVec3::new((c / (dy * dz)) as i32, ((c / dz) % dy) as i32, (c % dz) as i32) + self.low
    }

    /// The atom slots binned into flat cell `c`.
    #[inline]
    pub fn atoms(&self, c: usize) -> &'a [u32] {
        &self.order[self.starts[c] as usize..self.starts[c + 1] as usize]
    }
}
