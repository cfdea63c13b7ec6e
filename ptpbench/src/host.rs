//! Host record, the reference kernel and the small statistics helpers.
//!
//! Simulator code on a shared 2-vCPU host does not repeat its own timings:
//! one fixed sweep block can take anywhere from 16 to 29 ms within a single
//! process. A fixed, benchmark-owned reference kernel interleaved with the
//! workload's blocks slows down and speeds up with the host, so the ratio
//! of the two is much steadier than either raw time. [`Interleaver`] does
//! that bookkeeping; the CPU-bound rates are reported rescaled to
//! [`REF_NOMINAL_RATE`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel units per second on the host class the benchmark was
/// calibrated on (Intel Xeon, 2 vCPU). A normalized rate reads "work per
/// second on a host that runs the reference kernel this fast".
pub const REF_NOMINAL_RATE: f64 = 7000.0;

/// Units per reference block: about 7 ms on the calibration host.
const REF_UNITS_PER_BLOCK: u64 = 50;

/// One unit of the reference kernel: ordered-map inserts, removals and
/// small-vector allocations, the same mix of pointer chasing and
/// allocator traffic the simulator's event heap and protocol buffers do.
/// Always the same work.
pub fn ref_unit() -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..1024u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 509).or_default().push(i);
        if i % 3 == 0 {
            if let Some(v) = map.remove(&(x % 127)) {
                acc += v.len() as u64;
            }
        }
    }
    acc + map.values().map(|v| v.iter().sum::<u64>() & 0xff).sum::<u64>()
}

/// Interleaves reference blocks with workload blocks and turns the pairs
/// into normalized rates.
///
/// Each work block is timed between two reference blocks, and its cost is
/// taken in reference time: its wall time over the mean of its two
/// neighbours'. A run repeats every distinct block (`key`) several times;
/// a key's cost is the median of its repeats. Interference can slow a
/// reference block as well as a work block, so the low quantiles pick up
/// repeats whose reference ran slow: over eight 30-s `verify` runs on a
/// 2-vCPU host, the median made the throughput's spread 0.007 and the
/// median block's 0.014, the first quartile 0.013 and 0.022.
#[derive(Default)]
pub struct Interleaver {
    /// Wall seconds of each reference block; `refs[i]` ran just before
    /// work block `i`.
    refs: Vec<f64>,
    blocks: Vec<Block>,
}

struct Block {
    key: usize,
    work: f64,
    wall_s: f64,
}

impl Interleaver {
    /// Runs one fixed reference block.
    pub fn ref_block(&mut self) {
        let started = Instant::now();
        for _ in 0..REF_UNITS_PER_BLOCK {
            black_box(ref_unit());
        }
        self.refs.push(started.elapsed().as_secs_f64());
    }

    /// Runs a reference block, then times `block`, which does `work` units
    /// of the workload. Blocks with the same `key` must do the same work.
    pub fn work_block<T>(&mut self, key: usize, work: usize, block: impl FnOnce() -> T) -> T {
        self.ref_block();
        let started = Instant::now();
        let out = block();
        let wall_s = started.elapsed().as_secs_f64();
        self.blocks.push(Block { key, work: work as f64, wall_s });
        out
    }

    /// Runs the closing reference block; call once after the last block.
    pub fn finish(&mut self) {
        self.ref_block();
    }

    /// Reference-kernel units per second (median block).
    pub fn ref_rate(&self) -> f64 {
        REF_UNITS_PER_BLOCK as f64 / median(&self.refs)
    }

    /// Each key's work, median normalized cost (seconds) and
    /// median wall time (seconds).
    fn keys(&self) -> Vec<(f64, f64, f64)> {
        let nominal_s = REF_UNITS_PER_BLOCK as f64 / REF_NOMINAL_RATE;
        let mut keys: BTreeMap<usize, (f64, Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, b) in self.blocks.iter().enumerate() {
            let after = self.refs.get(i + 1).unwrap_or(&self.refs[i]);
            let ratio = b.wall_s / ((self.refs[i] + after) / 2.0);
            let entry = keys.entry(b.key).or_insert((b.work, Vec::new(), Vec::new()));
            entry.1.push(ratio * nominal_s);
            entry.2.push(b.wall_s);
        }
        keys.into_values()
            .map(|(work, costs, walls)| (work, median(&costs), median(&walls)))
            .collect()
    }

    /// Work per normalized second and per wall second of one pass over
    /// every key: normalized from each key's median reference-time
    /// cost, raw from each key's median wall time.
    pub fn rates(&self) -> (f64, f64) {
        let keys = self.keys();
        let work: f64 = keys.iter().map(|k| k.0).sum();
        let cost: f64 = keys.iter().map(|k| k.1).sum();
        let wall: f64 = keys.iter().map(|k| k.2).sum();
        (work / cost, work / wall)
    }

    /// Quantile `q` of the normalized time one unit of work takes, in ms.
    /// Every unit of a key is charged its key's mean: the key's
    /// median cost over its work.
    pub fn unit_ms(&self, q: f64) -> f64 {
        let mut units: Vec<(f64, f64)> =
            self.keys().into_iter().map(|(work, cost, _)| (cost / work * 1e3, work)).collect();
        units.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = units.iter().map(|u| u.1).sum();
        let mut seen = 0.0;
        for (ms, work) in &units {
            seen += work;
            if seen >= q * total {
                return *ms;
            }
        }
        units.last().map_or(f64::NAN, |u| u.0)
    }
}

/// Median (mean of the middle two when even). `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Times `setup` `reps` times between reference blocks; returns the last
/// result and the set-up time in seconds, normalized like the rates.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut il = Interleaver::default();
    let mut last = None;
    for _ in 0..reps {
        last = Some(black_box(il.work_block(0, 1, &mut setup)));
    }
    il.finish();
    (last.expect("at least one set-up"), 1.0 / il.rates().0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn unit_ms_weights_each_key_by_its_work() {
        let mut il = Interleaver::default();
        // Blocks of equal wall time: the key with 9 units is cheaper per unit.
        for (key, work) in [(0, 1), (1, 9)] {
            il.work_block(key, work, || std::thread::sleep(std::time::Duration::from_millis(2)));
        }
        il.finish();
        assert!(il.unit_ms(0.5) < il.unit_ms(0.95));
        assert_eq!(il.unit_ms(0.5), il.unit_ms(0.9));
    }

    #[test]
    fn ref_unit_is_fixed_work() {
        assert_eq!(ref_unit(), ref_unit());
    }
}
