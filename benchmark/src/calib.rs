//! The machine index: how slow the machine is right now, from a fixed
//! routine that uses none of the code under test.
//!
//! The benchmark's machine is a shared VM whose neighbours slow it by
//! anything up to a half for minutes at a time, mostly through the
//! memory system, and no choice of blocks inside a run escapes a spell
//! that outlasts the run. So the harness times this routine between
//! blocks and divides every timed end-to-end value by the routine's
//! time over its reference time, measured next to the same blocks. On
//! an undisturbed machine of the reference kind the index is 1 and the
//! values are plain wall-clock values.
//!
//! The routine is three kernels of the kinds of work the library does —
//! sorting and binary search (64 KiB), streaming and pointer chasing
//! (1 MiB), and allocation churn — and its time is their geometric mean,
//! so that no kernel outweighs the others by being longer.

use std::time::Instant;

/// The routine's time in microseconds on the undisturbed 2-core VM this
/// benchmark was sized on.
pub const REFERENCE_US: f64 = 325.0;

const SORTED: usize = 8 * 1024;
const STREAMED: usize = 128 * 1024;

pub struct Calibration {
    values: Vec<u64>,
    probes: Vec<u64>,
    stream: Vec<u64>,
    next: Vec<u32>,
    at: u32,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

impl Calibration {
    /// Fixed inputs: the routine does the same work on every call of
    /// every run.
    pub fn new() -> Calibration {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let values = (0..SORTED).map(|_| xorshift(&mut s)).collect();
        let probes = (0..SORTED).map(|_| xorshift(&mut s)).collect();
        // One random cycle through the whole array.
        let mut next: Vec<u32> = (0..STREAMED as u32).collect();
        for i in (1..STREAMED).rev() {
            next.swap(i, (xorshift(&mut s) % i as u64) as usize);
        }
        Calibration {
            values,
            probes,
            stream: (0..STREAMED as u64).collect(),
            next,
            at: 0,
        }
    }

    /// Runs the routine once; the geometric mean of its three kernels'
    /// times, in microseconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let ranks: usize = self
            .probes
            .iter()
            .map(|p| sorted.binary_search(p).unwrap_or_else(|i| i))
            .sum();
        std::hint::black_box(ranks);
        let sort_search = micros(t);

        let t = Instant::now();
        for _ in 0..4 {
            let sum = self.stream.iter().fold(0u64, |a, x| a.wrapping_add(*x));
            std::hint::black_box(sum);
        }
        for _ in 0..4000 {
            self.at = self.next[self.at as usize];
        }
        std::hint::black_box(self.at);
        let stream_chase = micros(t);

        let t = Instant::now();
        let mut held: Vec<Vec<u32>> = Vec::with_capacity(64);
        for i in 0..1500usize {
            if held.len() == 64 {
                held.swap_remove(i % 64);
            }
            held.push(vec![i as u32; 16 + (i * 37) % 700]);
        }
        drop(std::hint::black_box(held));
        let allocate = micros(t);

        (sort_search * stream_chase * allocate).cbrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routine_is_the_same_work_every_time() {
        let (mut a, mut b) = (Calibration::new(), Calibration::new());
        assert_eq!(a.values, b.values);
        assert_eq!(a.next, b.next);
        assert!(a.run() > 0.0 && b.run().is_finite());
        // The chase is one cycle: equal step counts end at equal places.
        assert_eq!(a.at, b.at);
        let mut seen = vec![false; STREAMED];
        let mut at = 0u32;
        for _ in 0..STREAMED {
            assert!(!std::mem::replace(&mut seen[at as usize], true));
            at = a.next[at as usize];
        }
        assert_eq!(at, 0, "the permutation is a single cycle");
    }
}
