//! The checkerboard successive over-relaxation workload — the paper's
//! running example.
//!
//! "the checkerboard approach to the successive over-relaxation solution
//! of the potential field problem divides into two such phases: the 'odd'
//! locations phase and the 'even' locations phase. ... If all the 'odd'
//! locations adjacent to a particular 'even' location have been updated
//! with new values from the current computational phase, then the new
//! value for that particular 'even' location for the next computational
//! phase can be correctly computed."
//!
//! That neighbor enablement is the **seam mapping** the paper foresees but
//! leaves beyond scope; we implement it (the extension that pushes the
//! fraction of overlappable phases past 90%). This module provides:
//!
//! * [`Checkerboard`] — grid geometry, color-major granule numbering, and
//!   seam-map construction;
//! * [`checkerboard_program`] — simulation programs with the exact
//!   granule counts of the paper's 1024²/1000-processor example;
//! * [`RedBlackGrid`] — a real `f64` red–black SOR kernel (used by the
//!   threaded runtime example and verified against the analytic solution).

use pax_core::mapping::{EnablementMapping, ReverseMap};
use pax_core::phase::PhaseDef;
use pax_core::program::{EnableSpec, Program, ProgramBuilder};
use pax_sim::dist::CostModel;
use std::sync::Arc;

/// Cell colors of the checkerboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Cells with even `row + col` ("odd locations" in the paper's
    /// 1-based numbering).
    Red,
    /// Cells with odd `row + col`.
    Black,
}

impl Color {
    /// The other color.
    pub fn other(self) -> Color {
        match self {
            Color::Red => Color::Black,
            Color::Black => Color::Red,
        }
    }
}

/// Geometry of an `n × n` checkerboard with color-major granule
/// numbering: the granules of one phase are the cells of one color, in
/// row-major order.
#[derive(Debug, Clone)]
pub struct Checkerboard {
    n: usize,
    /// `granule_of[cell]` = granule index within the cell's color.
    granule_of: Vec<u32>,
}

impl Checkerboard {
    /// An `n × n` board (n ≥ 2).
    pub fn new(n: usize) -> Checkerboard {
        assert!(n >= 2, "grid must be at least 2×2");
        let mut granule_of = vec![0u32; n * n];
        let mut red = 0u32;
        let mut black = 0u32;
        for r in 0..n {
            for c in 0..n {
                let i = r * n + c;
                if (r + c) % 2 == 0 {
                    granule_of[i] = red;
                    red += 1;
                } else {
                    granule_of[i] = black;
                    black += 1;
                }
            }
        }
        Checkerboard { n, granule_of }
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Color of cell `(r, c)`.
    pub fn color(&self, r: usize, c: usize) -> Color {
        if (r + c).is_multiple_of(2) {
            Color::Red
        } else {
            Color::Black
        }
    }

    /// Number of cells of `color` (the phase's granule count).
    pub fn granules(&self, color: Color) -> u32 {
        let total = self.n * self.n;
        match color {
            Color::Red => (total as u32).div_ceil(2),
            Color::Black => total as u32 / 2,
        }
    }

    /// Granule index of cell `(r, c)` within its color phase.
    pub fn granule(&self, r: usize, c: usize) -> u32 {
        self.granule_of[r * self.n + c]
    }

    /// Orthogonal neighbors of `(r, c)` (2–4 of them; edges clip).
    pub fn neighbors(&self, r: usize, c: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push((r - 1, c));
        }
        if r + 1 < self.n {
            out.push((r + 1, c));
        }
        if c > 0 {
            out.push((r, c - 1));
        }
        if c + 1 < self.n {
            out.push((r, c + 1));
        }
        out
    }

    /// The seam map from a `from`-colored phase into the following
    /// `from.other()`-colored phase: successor granule `g` (a cell of the
    /// other color) requires all its `from`-colored neighbors.
    pub fn seam_map(&self, from: Color) -> ReverseMap {
        let to = from.other();
        let mut requires: Vec<Vec<u32>> = vec![Vec::new(); self.granules(to) as usize];
        for r in 0..self.n {
            for c in 0..self.n {
                if self.color(r, c) != to {
                    continue;
                }
                let g = self.granule(r, c) as usize;
                for (nr, nc) in self.neighbors(r, c) {
                    debug_assert_eq!(self.color(nr, nc), from);
                    requires[g].push(self.granule(nr, nc));
                }
            }
        }
        ReverseMap::new(requires, self.granules(from))
    }
}

/// Build a simulation program of `sweeps` alternating red/black phases
/// over an `n × n` board, each sweep seam-mapped into the next.
///
/// With `n = 1024` each phase has 524,288 granules — the paper's example
/// ("Each computational phase will provide 524,288 individual
/// computations, or 524 computations for each of the 1000 processors;
/// however, 288 computations will be left over").
pub fn checkerboard_program(n: usize, sweeps: usize, cost: CostModel) -> Program {
    assert!(sweeps >= 1);
    let board = Checkerboard::new(n);
    let mut b = ProgramBuilder::new();
    let red = b.phase(PhaseDef::new(
        "red-sweep",
        board.granules(Color::Red),
        cost.clone(),
    ));
    let black = b.phase(PhaseDef::new(
        "black-sweep",
        board.granules(Color::Black),
        cost,
    ));
    let red_to_black = Arc::new(board.seam_map(Color::Red));
    let black_to_red = Arc::new(board.seam_map(Color::Black));
    for s in 0..sweeps {
        let (phase, succ, map) = if s % 2 == 0 {
            (red, black, &red_to_black)
        } else {
            (black, red, &black_to_red)
        };
        if s + 1 < sweeps {
            b.dispatch_enable(
                phase,
                vec![EnableSpec {
                    successor: succ,
                    mapping: EnablementMapping::Seam(Arc::clone(map)),
                }],
            );
        } else {
            b.dispatch(phase);
        }
    }
    b.build().expect("checkerboard program is always valid")
}

/// A real red–black SOR solver for the Laplace potential problem on an
/// `n × n` grid with fixed boundary values. The interior relaxes toward
/// the discrete harmonic solution; granule `g` of a color phase updates
/// one cell — "nominally, the time for four additions and a divide".
#[derive(Debug, Clone)]
pub struct RedBlackGrid {
    n: usize,
    vals: Vec<f64>,
}

impl RedBlackGrid {
    /// Grid with `top` boundary potential on row 0 and zero elsewhere.
    pub fn with_top_boundary(n: usize, top: f64) -> RedBlackGrid {
        assert!(n >= 3, "need at least one interior point");
        let mut vals = vec![0.0; n * n];
        for v in vals.iter_mut().take(n) {
            *v = top;
        }
        RedBlackGrid { n, vals }
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Value at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.vals[r * self.n + c]
    }

    /// Mutable cell access (for custom boundaries).
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.vals[r * self.n + c] = v;
    }

    /// Raw values (row-major).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Whether `(r, c)` is interior (updatable).
    pub fn interior(&self, r: usize, c: usize) -> bool {
        r > 0 && c > 0 && r + 1 < self.n && c + 1 < self.n
    }

    /// Relax one cell with factor `omega`; returns the |change|.
    /// Out-of-range or boundary cells return 0 (no-op).
    pub fn relax_cell(&mut self, r: usize, c: usize, omega: f64) -> f64 {
        if !self.interior(r, c) {
            return 0.0;
        }
        let n = self.n;
        let idx = r * n + c;
        let avg = 0.25
            * (self.vals[idx - n] + self.vals[idx + n] + self.vals[idx - 1] + self.vals[idx + 1]);
        let new = self.vals[idx] + omega * (avg - self.vals[idx]);
        let delta = (new - self.vals[idx]).abs();
        self.vals[idx] = new;
        delta
    }

    /// Sequentially relax every interior cell of one color; returns the
    /// max |change| (for convergence tests).
    pub fn sweep(&mut self, color: Color, omega: f64) -> f64 {
        let mut max_delta: f64 = 0.0;
        for r in 1..self.n - 1 {
            for c in 1..self.n - 1 {
                if ((r + c) % 2 == 0) == (color == Color::Red) {
                    max_delta = max_delta.max(self.relax_cell(r, c, omega));
                }
            }
        }
        max_delta
    }

    /// Run red/black sweeps until the max change drops below `tol`;
    /// returns the number of full (red+black) iterations.
    pub fn solve(&mut self, omega: f64, tol: f64, max_iters: usize) -> usize {
        for it in 0..max_iters {
            let d1 = self.sweep(Color::Red, omega);
            let d2 = self.sweep(Color::Black, omega);
            if d1.max(d2) < tol {
                return it + 1;
            }
        }
        max_iters
    }

    /// Residual of the interior Laplace equation (max |Δu|), a measure of
    /// solution quality independent of the sweep order.
    pub fn residual(&self) -> f64 {
        let n = self.n;
        let mut worst: f64 = 0.0;
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                let idx = r * n + c;
                let lap = self.vals[idx - n]
                    + self.vals[idx + n]
                    + self.vals[idx - 1]
                    + self.vals[idx + 1]
                    - 4.0 * self.vals[idx];
                worst = worst.max(lap.abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_numbering_is_dense_per_color() {
        let b = Checkerboard::new(6);
        assert_eq!(b.granules(Color::Red), 18);
        assert_eq!(b.granules(Color::Black), 18);
        // granule indices within a color are 0..granules, each exactly once
        let mut seen_red = [false; 18];
        let mut seen_black = [false; 18];
        for r in 0..6 {
            for c in 0..6 {
                let g = b.granule(r, c) as usize;
                match b.color(r, c) {
                    Color::Red => {
                        assert!(!seen_red[g]);
                        seen_red[g] = true;
                    }
                    Color::Black => {
                        assert!(!seen_black[g]);
                        seen_black[g] = true;
                    }
                }
            }
        }
        assert!(seen_red.iter().all(|&x| x));
        assert!(seen_black.iter().all(|&x| x));
    }

    #[test]
    fn odd_grid_red_has_one_extra() {
        let b = Checkerboard::new(5);
        assert_eq!(b.granules(Color::Red), 13);
        assert_eq!(b.granules(Color::Black), 12);
    }

    #[test]
    fn seam_map_matches_neighbor_structure() {
        let b = Checkerboard::new(4);
        let m = b.seam_map(Color::Red);
        // every black cell requires its 2-4 red neighbors
        for r in 0..4 {
            for c in 0..4 {
                if b.color(r, c) != Color::Black {
                    continue;
                }
                let g = b.granule(r, c) as usize;
                assert_eq!(m.requires[g].len(), b.neighbors(r, c).len());
            }
        }
        // corner-adjacent black cell (0,1) requires red (0,0), (1,1), (0,2)
        let g = b.granule(0, 1) as usize;
        let mut req = m.requires[g].clone();
        req.sort_unstable();
        let mut expect = vec![b.granule(0, 0), b.granule(1, 1), b.granule(0, 2)];
        expect.sort_unstable();
        assert_eq!(req, expect);
    }

    #[test]
    fn paper_example_granule_counts() {
        let b = Checkerboard::new(1024);
        assert_eq!(b.granules(Color::Red), 524_288);
        assert_eq!(b.granules(Color::Black), 524_288);
        // "288 computations will be left over for distribution among the
        // 1000 processors"
        assert_eq!(524_288 % 1000, 288);
        assert_eq!(524_288 / 1000, 524);
    }

    #[test]
    fn program_shape() {
        let p = checkerboard_program(8, 4, CostModel::constant(5));
        assert_eq!(p.phases.len(), 2);
        // 4 dispatches + end
        assert_eq!(p.steps.len(), 5);
    }

    #[test]
    fn sor_converges_to_harmonic_solution() {
        let mut g = RedBlackGrid::with_top_boundary(17, 100.0);
        let iters = g.solve(1.5, 1e-8, 10_000);
        assert!(iters < 10_000, "did not converge");
        assert!(g.residual() < 1e-6);
        // Harmonic function properties: interior values strictly between
        // boundary extremes, decreasing away from the hot boundary.
        let mid = g.n() / 2;
        for r in 1..g.n() - 1 {
            let v = g.get(r, mid);
            assert!(v > 0.0 && v < 100.0);
        }
        assert!(g.get(1, mid) > g.get(g.n() - 2, mid));
    }

    #[test]
    fn sweep_only_touches_one_color() {
        let mut g = RedBlackGrid::with_top_boundary(9, 50.0);
        let before: Vec<f64> = g.values().to_vec();
        g.sweep(Color::Red, 1.0);
        let b = Checkerboard::new(9);
        for r in 1..8 {
            for c in 1..8 {
                if b.color(r, c) == Color::Black {
                    assert_eq!(
                        g.get(r, c),
                        before[r * 9 + c],
                        "black cell moved in red sweep"
                    );
                }
            }
        }
    }

    #[test]
    fn relax_cell_ignores_boundary() {
        let mut g = RedBlackGrid::with_top_boundary(5, 10.0);
        assert_eq!(g.relax_cell(0, 2, 1.0), 0.0);
        assert_eq!(g.get(0, 2), 10.0);
    }
}
