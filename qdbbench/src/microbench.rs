//! Cost per call of the parallel runtime's dispatch primitives
//! (`rayon::dispatch_chunks`, `rayon::join`) against work size.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use crate::stats::median;

/// Per-call cost at one work size.
#[derive(Debug, Clone, Copy)]
pub struct DispatchRow {
    /// Indices of work per call.
    pub len: usize,
    /// Median µs per `dispatch_chunks` call.
    pub dispatch_us: f64,
    /// Median µs per `join` call splitting the same work in halves.
    pub join_us: f64,
    /// Median µs for the same work on the calling thread.
    pub serial_us: f64,
}

/// Work sizes measured: no work (pure dispatch cost) up to a range the
/// size of a 20-qubit amplitude sweep.
pub const SIZES: [usize; 4] = [0, 1 << 12, 1 << 16, 1 << 20];

/// Calls timed per size; the median per-call cost is kept.
const CALLS: usize = 64;

fn work(range: Range<usize>) {
    let mut acc = 0u64;
    for i in range {
        acc = acc.wrapping_add(black_box(i as u64));
    }
    black_box(acc);
}

fn per_call_us(mut call: impl FnMut()) -> f64 {
    call(); // warm
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Measure every size in [`SIZES`] at the runtime's current worker
/// count. A zero-length dispatch still hands every worker an empty
/// body (`dispatch_chunks` over one index per worker), so row 0 is the
/// fixed cost of one fan-out.
#[must_use]
pub fn measure() -> Vec<DispatchRow> {
    let workers = rayon::current_num_threads();
    SIZES
        .iter()
        .map(|&size| {
            let len = size.max(workers);
            let body = |r: Range<usize>| {
                if size > 0 {
                    work(r);
                }
            };
            DispatchRow {
                len: size,
                dispatch_us: per_call_us(|| {
                    black_box(rayon::dispatch_chunks(len, body));
                }),
                join_us: per_call_us(|| {
                    rayon::join(|| body(0..len / 2), || body(len / 2..len));
                }),
                serial_us: per_call_us(|| body(0..len)),
            }
        })
        .collect()
}
