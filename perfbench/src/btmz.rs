//! `btmz`: BT-MZ class B (64 zones, ~20x size spread) as 64 AMPI ranks
//! on 2 threaded PEs. A step is a ghost exchange, Jacobi sweeps, and an
//! allreduce of the sweeps' residual; GreedyLB runs once, after step 3.
//! The seed permutes which rank owns which zone.

use crate::episode::{self, Episode};
use crate::probe::{self, TimedLb};
use crate::stats::{now_ns, Rng};
use crate::trace::{self, span, Name};
use crate::Size;
use flows_ampi::{run_world, Ampi, AmpiOptions};
use flows_converse::NetModel;
use flows_lb::GreedyLb;
use flows_npb::{zone_layout, MzBench, MzClass, Zone, ZoneGrid};
use std::sync::{Arc, Mutex};

/// Relative tolerance between the parallel checksum and the serial
/// reference. The only allowed difference is the order in which the
/// allreduce adds the per-rank sums.
const CHECKSUM_RTOL: f64 = 1e-9;

const PES: usize = 2;

#[derive(Clone, Copy)]
enum Side {
    West,
    East,
    South,
    North,
}

const SIDES: [Side; 4] = [Side::West, Side::East, Side::South, Side::North];

impl Side {
    fn edge(self, g: &ZoneGrid) -> Vec<f64> {
        match self {
            Side::West => g.edge_column(false),
            Side::East => g.edge_column(true),
            Side::South => g.edge_row(false),
            Side::North => g.edge_row(true),
        }
    }

    fn set_ghost(self, g: &mut ZoneGrid, vals: &[f64]) {
        match self {
            Side::West => g.set_ghost_column(false, vals),
            Side::East => g.set_ghost_column(true, vals),
            Side::South => g.set_ghost_row(false, vals),
            Side::North => g.set_ghost_row(true, vals),
        }
    }

    fn opposite(self) -> Side {
        match self {
            Side::West => Side::East,
            Side::East => Side::West,
            Side::South => Side::North,
            Side::North => Side::South,
        }
    }
}

/// The zone next to `z` on `side`, if any.
fn neighbor(zones: &[Zone], z: &Zone, side: Side) -> Option<usize> {
    let gx = zones.iter().map(|q| q.gx).max().unwrap_or(0) + 1;
    let gy = zones.iter().map(|q| q.gy).max().unwrap_or(0) + 1;
    let (i, j) = match side {
        Side::West if z.gx > 0 => (z.gx - 1, z.gy),
        Side::East if z.gx + 1 < gx => (z.gx + 1, z.gy),
        Side::South if z.gy > 0 => (z.gx, z.gy - 1),
        Side::North if z.gy + 1 < gy => (z.gx, z.gy + 1),
        _ => return None,
    };
    Some(j * gx + i)
}

fn pack(vals: &[f64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn unpack(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

pub struct Btmz {
    zones: Arc<Vec<Zone>>,
    iters: usize,
    sweeps: usize,
    lb_at: usize,
    seed: u64,
    /// Serial checksum of the same zones and steps.
    reference: f64,
    /// Wall seconds of the serial reference run.
    pub serial_s: f64,
}

impl Btmz {
    pub fn new(seed: u64, size: Size) -> Btmz {
        let (class, iters, sweeps) = match size {
            Size::Full => (MzClass::B, 600, 40),
            Size::Tiny => (MzClass::W, 12, 4),
        };
        let zones = Arc::new(zone_layout(MzBench::BtMz, class));
        let t0 = now_ns();
        let reference = serial(&zones, iters, sweeps);
        let serial_s = (now_ns() - t0) as f64 * 1e-9;
        Btmz {
            zones,
            iters,
            sweeps,
            lb_at: 3,
            seed,
            reference,
            serial_s,
        }
    }

    pub fn ranks(&self) -> usize {
        self.zones.len()
    }

    /// Cell updates in one episode's sweeps.
    pub fn cells_per_episode(&self) -> u64 {
        let area: usize = self.zones.iter().map(Zone::area).sum();
        (area * self.sweeps * self.iters) as u64
    }

    pub fn episode(&self, traced: bool) -> Episode {
        let ranks = self.ranks();
        let timer = episode::begin(ranks, self.iters, traced);
        // Input: which rank owns which zone (one zone per rank).
        let mut zone_of_rank: Vec<usize> = (0..ranks).collect();
        Rng::new(self.seed, 1).shuffle(&mut zone_of_rank);
        let mut rank_of_zone = vec![0; ranks];
        for (r, &z) in zone_of_rank.iter().enumerate() {
            rank_of_zone[z] = r;
        }
        let inputs = Arc::new(RankInputs {
            zones: self.zones.clone(),
            zone_of_rank,
            rank_of_zone,
            iters: self.iters,
            sweeps: self.sweeps,
            lb_at: self.lb_at,
        });
        let checksum = Arc::new(Mutex::new(f64::NAN));
        let out = checksum.clone();
        let opts = AmpiOptions::new(ranks, PES)
            .threaded(true)
            .with_net(NetModel {
                latency_ns: 500,
                ns_per_byte: 0.2,
            })
            .with_strategy(Arc::new(TimedLb(GreedyLb)));
        let report = run_world(opts, move |ampi| rank_main(ampi, &inputs, &out));
        let mut ep = timer.finish(&report);
        let got = *checksum.lock().expect("checksum poisoned");
        let rel = ((got - self.reference) / self.reference).abs();
        ep.check(rel <= CHECKSUM_RTOL);
        ep
    }
}

struct RankInputs {
    zones: Arc<Vec<Zone>>,
    zone_of_rank: Vec<usize>,
    rank_of_zone: Vec<usize>,
    iters: usize,
    sweeps: usize,
    lb_at: usize,
}

fn rank_main(ampi: &mut Ampi, inp: &RankInputs, checksum: &Mutex<f64>) {
    let me = ampi.rank();
    let nz = inp.zones.len();
    let z = inp.zones[inp.zone_of_rank[me]].clone();
    let mut grid = ZoneGrid::new(z.id, z.nx, z.ny);
    let sides: Vec<(Side, usize)> = SIDES
        .iter()
        .filter_map(|&s| neighbor(&inp.zones, &z, s).map(|n| (s, n)))
        .collect();
    let tag = |from: usize, to: usize| (from * nz + to) as u64;
    for it in 0..inp.iters {
        if me == 0 {
            probe::step_begin();
        }
        trace::set_step(me, it);
        span(me, Name::Step, || {
            for &(side, n) in &sides {
                let edge = span(me, Name::NpbGhost, || side.edge(&grid));
                let bytes = pack(&edge);
                span(me, Name::AmpiSend, || {
                    ampi.send(inp.rank_of_zone[n], tag(z.id, n), bytes)
                });
            }
            for &(side, n) in &sides {
                let (_, _, bytes) =
                    span(me, Name::AmpiRecv, || ampi.recv(None, Some(tag(n, z.id))));
                let vals = unpack(&bytes);
                span(me, Name::NpbGhost, || side.set_ghost(&mut grid, &vals));
            }
            let delta = span(me, Name::NpbSweep, || {
                (0..inp.sweeps).map(|_| grid.sweep()).sum::<f64>()
            });
            // The global residual: every rank leaves the step together,
            // so rank 0's step time is the machine's step time.
            let residual = span(me, Name::AmpiAllreduce, || {
                ampi.allreduce_f64(&[delta], flows_comm::ReduceOp::SumF64)
            });
            std::hint::black_box(residual);
            if it + 1 == inp.lb_at {
                span(me, Name::AmpiMigrate, || ampi.migrate());
            }
        });
        if me == 0 {
            probe::step_end();
        }
    }
    let local = grid.interior_sum();
    let global = span(me, Name::AmpiAllreduce, || {
        ampi.allreduce_f64(&[local], flows_comm::ReduceOp::SumF64)
    });
    if me == 0 {
        *checksum.lock().expect("checksum poisoned") = global[0];
    }
    probe::rank_finished();
}

/// The same zones and steps on one thread, no runtime: the reference
/// checksum and the `npb.serial_s` baseline.
fn serial(zones: &[Zone], iters: usize, sweeps: usize) -> f64 {
    let mut grids: Vec<ZoneGrid> = zones
        .iter()
        .map(|z| ZoneGrid::new(z.id, z.nx, z.ny))
        .collect();
    for _ in 0..iters {
        let mut ghosts = Vec::new();
        for z in zones {
            for side in SIDES {
                if let Some(n) = neighbor(zones, z, side) {
                    ghosts.push((z.id, side, side.opposite().edge(&grids[n])));
                }
            }
        }
        for (id, side, vals) in ghosts {
            side.set_ghost(&mut grids[id], &vals);
        }
        for g in grids.iter_mut() {
            for _ in 0..sweeps {
                std::hint::black_box(g.sweep());
            }
        }
    }
    grids.iter().map(ZoneGrid::interior_sum).sum()
}
