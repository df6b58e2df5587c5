//! The per-zone solver: a halo'd 5-point Jacobi relaxation.
//!
//! The NPB-MZ reference solves BT/SP/LU systems; what Figure 12 exercises
//! is the *work distribution* (∝ zone area) and the boundary exchange, not
//! the numerics, so the solver here is a real (deterministic, floating-
//! point) stencil sweep whose cost scales with zone area — see DESIGN.md
//! §2 on this substitution.

/// A zone's field with a one-cell halo ring.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneGrid {
    /// Interior points in x.
    pub nx: usize,
    /// Interior points in y.
    pub ny: usize,
    data: Vec<f64>,
    scratch: Vec<f64>,
}

impl ZoneGrid {
    /// Deterministic initial condition derived from the zone id.
    pub fn new(zone_id: usize, nx: usize, ny: usize) -> ZoneGrid {
        let w = nx + 2;
        let h = ny + 2;
        let mut data = vec![0.0; w * h];
        for j in 0..h {
            for i in 0..w {
                data[j * w + i] =
                    ((zone_id * 37 + i * 13 + j * 7) % 101) as f64 * 0.01;
            }
        }
        ZoneGrid {
            nx,
            ny,
            scratch: data.clone(),
            data,
        }
    }

    fn w(&self) -> usize {
        self.nx + 2
    }

    /// Value at interior coordinates (1-based inside the halo).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.w() + i]
    }

    /// The interior column adjacent to the west/east edge (for sending).
    pub fn edge_column(&self, east: bool) -> Vec<f64> {
        let i = if east { self.nx } else { 1 };
        (1..=self.ny).map(|j| self.at(i, j)).collect()
    }

    /// The interior row adjacent to the south/north edge (for sending).
    pub fn edge_row(&self, north: bool) -> Vec<f64> {
        let j = if north { self.ny } else { 1 };
        (1..=self.nx).map(|i| self.at(i, j)).collect()
    }

    /// Install a received ghost column (west edge when `east == false`).
    pub fn set_ghost_column(&mut self, east: bool, vals: &[f64]) {
        assert_eq!(vals.len(), self.ny, "ghost column length");
        let w = self.w();
        let i = if east { self.nx + 1 } else { 0 };
        for (j, v) in (1..=self.ny).zip(vals) {
            self.data[j * w + i] = *v;
        }
    }

    /// Install a received ghost row.
    pub fn set_ghost_row(&mut self, north: bool, vals: &[f64]) {
        assert_eq!(vals.len(), self.nx, "ghost row length");
        let w = self.w();
        let j = if north { self.ny + 1 } else { 0 };
        for (i, v) in (1..=self.nx).zip(vals) {
            self.data[j * w + i] = *v;
        }
    }

    /// One Jacobi sweep over the interior; returns the residual-ish sum of
    /// absolute updates (a cheap convergence witness).
    pub fn sweep(&mut self) -> f64 {
        let w = self.w();
        let mut delta = 0.0;
        for j in 1..=self.ny {
            for i in 1..=self.nx {
                let v = 0.25
                    * (self.data[j * w + i - 1]
                        + self.data[j * w + i + 1]
                        + self.data[(j - 1) * w + i]
                        + self.data[(j + 1) * w + i]);
                delta += (v - self.data[j * w + i]).abs();
                self.scratch[j * w + i] = v;
            }
        }
        // Swap interiors (halo stays in `data`): copy interior back.
        for j in 1..=self.ny {
            let row = j * w;
            self.data[row + 1..row + 1 + self.nx]
                .copy_from_slice(&self.scratch[row + 1..row + 1 + self.nx]);
        }
        delta
    }

    /// Every cell, halo included: the zone's whole state.
    pub fn cells(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of [`ZoneGrid::cells`].
    pub fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sum of interior values (checksum component).
    pub fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for j in 1..=self.ny {
            for i in 1..=self.nx {
                s += self.at(i, j);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_smooth_the_field() {
        let mut g = ZoneGrid::new(0, 8, 8);
        let d1 = g.sweep();
        let mut d_last = d1;
        for _ in 0..20 {
            d_last = g.sweep();
        }
        assert!(d_last < d1, "Jacobi must converge on a fixed boundary");
        assert!(g.interior_sum().is_finite());
    }

    #[test]
    fn ghost_installation_affects_adjacent_cells() {
        let mut g = ZoneGrid::new(1, 4, 4);
        let before = g.at(1, 1);
        g.set_ghost_column(false, &[10.0, 10.0, 10.0, 10.0]);
        g.set_ghost_row(false, &[10.0, 10.0, 10.0, 10.0]);
        g.sweep();
        assert!(g.at(1, 1) > before, "hot ghosts heat the corner");
    }

    #[test]
    fn edges_are_what_neighbors_would_read() {
        let g = ZoneGrid::new(2, 3, 2);
        assert_eq!(g.edge_column(false), vec![g.at(1, 1), g.at(1, 2)]);
        assert_eq!(g.edge_column(true), vec![g.at(3, 1), g.at(3, 2)]);
        assert_eq!(g.edge_row(false), vec![g.at(1, 1), g.at(2, 1), g.at(3, 1)]);
        assert_eq!(g.edge_row(true), vec![g.at(1, 2), g.at(2, 2), g.at(3, 2)]);
    }

    #[test]
    fn determinism() {
        let mut a = ZoneGrid::new(7, 6, 5);
        let mut b = ZoneGrid::new(7, 6, 5);
        for _ in 0..5 {
            a.sweep();
            b.sweep();
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ghost column length")]
    fn wrong_ghost_length_panics() {
        let mut g = ZoneGrid::new(0, 4, 4);
        g.set_ghost_column(false, &[1.0]);
    }
}
