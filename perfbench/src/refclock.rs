//! The host reference clock.
//!
//! The benchmark shares a few cores of a host with other tenants, and
//! their memory traffic moves the simulator's speed by a fifth either
//! way within a minute: one 90 s run of `kv_read_hot` read from 54,000
//! to 81,000 requests per host second in 10 s blocks. A run's median
//! cannot cancel a slow spell that lasts the whole run.
//!
//! So host times are also stated in *refs*: one ref is the host time of
//! one [`reference_run`], a fixed piece of hash-map and allocator work
//! run between the timed phase's 100 ms slices. The neighbours slow it
//! down as they slow the simulator, and in the same 90 s run requests
//! per ref stayed within 3 % in every block. The kernel is the
//! benchmark's own code and calls nothing in the program, so a faster
//! program still serves more requests per ref.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// Keys the reference map cycles through (about 0.3 MiB of values).
const KEYS: u64 = 2048;
/// Map operations per reference run (about 2 ms on a 2-vCPU Xeon VM).
const OPS: u64 = 20_000;

/// Runs the reference kernel once and returns its host time. The work
/// is the same on every call: fixed keys from a fixed xorshift stream,
/// and a hasher without per-process random keys.
pub fn reference_run() -> Duration {
    let started = Instant::now();
    let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut sum = 0u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        match map.get_mut(&key) {
            Some(v) => {
                sum = sum.wrapping_add(v.len() as u64);
                v.push(i as u8);
                if v.len() > 64 {
                    map.remove(&key);
                }
            }
            None => {
                map.insert(key, vec![i as u8; (x % 200) as usize]);
            }
        }
    }
    std::hint::black_box((sum, map.len()));
    started.elapsed()
}

/// `host` expressed in millionths of `reference` (micro-refs).
pub fn micro_refs(host: Duration, reference: Duration) -> u64 {
    (host.as_nanos() * 1_000_000 / reference.as_nanos().max(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_refs_scale_by_the_reference() {
        let r = Duration::from_millis(2);
        assert_eq!(micro_refs(Duration::from_millis(2), r), 1_000_000);
        assert_eq!(micro_refs(Duration::from_micros(250), r), 125_000);
    }
}
