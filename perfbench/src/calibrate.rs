//! Host-speed calibration.
//!
//! The host's CPU speed drifts, in phases that can outlast a run (see the
//! README).  A kernel of fixed work, written here and sharing no code with
//! the program, is timed between the engine runs; each engine time is then
//! scaled by `REFERENCE_S / kernel time`, the time it would have taken had
//! the host run the kernel at its reference speed.  A slow phase stretches
//! the kernel and the engines alike, so it cancels out of the ratio, while a
//! change to the program moves the engines only.
//!
//! The kernel is a dozen breadth-first searches over a fixed random graph:
//! indirect, branchy memory access over a working set of about 600 KiB, the
//! access pattern of unit propagation and of AIG traversal on the
//! workloads' designs.

use crate::designs::SplitMix;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, a 2-core "Intel Xeon
/// Processor" VM at its usual speed.  Normalised times are in seconds at
/// that speed.
pub const REFERENCE_S: f64 = 0.004;

const NODES: usize = 1 << 14;
const DEGREE: usize = 8;
const SEARCHES: usize = 12;

pub struct Kernel {
    /// `edges[v * DEGREE..][..DEGREE]` are the successors of `v`.
    edges: Vec<u32>,
    /// The search that last reached each node.
    seen: Vec<u32>,
    queue: Vec<u32>,
    search: u32,
}

impl Kernel {
    /// Builds the graph (the same one in every process) and runs the kernel
    /// once, untimed, so that every timed run finds its memory mapped.
    pub fn new() -> Self {
        let mut rng = SplitMix(0x5eed);
        let mut kernel = Kernel {
            edges: (0..NODES * DEGREE)
                .map(|_| (rng.next() % NODES as u64) as u32)
                .collect(),
            seen: vec![0; NODES],
            queue: Vec::with_capacity(NODES),
            search: 0,
        };
        kernel.time();
        kernel
    }

    /// Runs the fixed work once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut visited = 0u64;
        for s in 0..SEARCHES {
            self.search += 1;
            let root = s * 7919 % NODES;
            self.seen[root] = self.search;
            self.queue.clear();
            self.queue.push(root as u32);
            let mut head = 0;
            while let Some(&v) = self.queue.get(head) {
                head += 1;
                let v = v as usize;
                for &w in &self.edges[v * DEGREE..(v + 1) * DEGREE] {
                    if self.seen[w as usize] != self.search {
                        self.seen[w as usize] = self.search;
                        self.queue.push(w);
                    }
                }
            }
            visited += head as u64;
        }
        black_box(visited);
        start.elapsed().as_secs_f64()
    }

    /// The median of `n` runs.
    pub fn median(&mut self, n: usize) -> f64 {
        let samples: Vec<f64> = (0..n).map(|_| self.time()).collect();
        crate::layers::median(&samples)
    }
}
