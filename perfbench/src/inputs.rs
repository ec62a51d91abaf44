//! Seed → generated inputs.
//!
//! Everything random about a run is drawn here, from the workload seed
//! alone: the request stream (operation, key, size, connection, payload
//! seed), the two link seeds, the chaos jitter seed, the retry jitter
//! seed and the store's initial contents. The round loop and the program
//! under test only ever see what this module hands them.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::SECTOR;

/// The three workloads. See the README for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache-resident single-sector GETs over perfect links.
    KvReadHot,
    /// 70 % multi-sector journaled PUTs, 30 % GETs, disk fault windows.
    KvWriteDurable,
    /// Few GETs spread over thousands of keepalive connections on a
    /// lossy, reordering link.
    ConnFanoutLossy,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::KvReadHot,
        Workload::KvWriteDurable,
        Workload::ConnFanoutLossy,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvReadHot => "kv_read_hot",
            Workload::KvWriteDurable => "kv_write_durable",
            Workload::ConnFanoutLossy => "conn_fanout_lossy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::KvReadHot => Shape {
                conns_per_host: 8,
                outstanding: 16,
                put_permille: 0,
                key_space: HOT_SET,
                max_sectors: 1,
                random_conn: false,
                lossy_link_b: false,
                disk_faults: false,
                keepalive: false,
                tick: 100,
                sim_requests: 10_000,
            },
            Workload::KvWriteDurable => Shape {
                conns_per_host: 8,
                outstanding: 16,
                put_permille: 700,
                key_space: 6_000,
                max_sectors: 8,
                random_conn: false,
                lossy_link_b: false,
                disk_faults: true,
                keepalive: false,
                tick: 100,
                sim_requests: 10_000,
            },
            Workload::ConnFanoutLossy => Shape {
                conns_per_host: 512,
                outstanding: 8,
                put_permille: 0,
                key_space: HOT_SET,
                max_sectors: 1,
                random_conn: true,
                lossy_link_b: true,
                disk_faults: false,
                keepalive: true,
                tick: 1_000,
                sim_requests: 10_000,
            },
        }
    }
}

/// Sectors in the hot set the read workloads draw keys from.
pub const HOT_SET: u32 = 1_024;

/// The fixed parameters of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Connections opened from each of the two client hosts.
    pub conns_per_host: usize,
    /// Requests in flight at once (closed loop).
    pub outstanding: usize,
    /// Share of PUTs, in permille.
    pub put_permille: u32,
    /// Keys (first sectors) are drawn from `0..key_space`.
    pub key_space: u32,
    /// Values span `1..=max_sectors` sectors.
    pub max_sectors: u8,
    /// Each request names a uniformly random connection; otherwise it
    /// takes the lowest-numbered idle one.
    pub random_conn: bool,
    /// Link B drops and reorders during the timed phase.
    pub lossy_link_b: bool,
    /// Disk transient-error windows run during the timed phase.
    pub disk_faults: bool,
    /// The server arms keepalive on every accepted connection.
    pub keepalive: bool,
    /// Clock advance per driver round, in cycles.
    pub tick: u64,
    /// Length of the deterministic request prefix the simulated-cycle
    /// metrics and the replay digest are taken over.
    pub sim_requests: u64,
}

impl Shape {
    /// Total client connections.
    pub fn conns(&self) -> usize {
        2 * self.conns_per_host
    }
}

/// A key-value operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read `sectors` sectors starting at `key`.
    Get,
    /// Write `sectors` seeded sectors starting at `key`.
    Put,
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Operation.
    pub op: Op,
    /// First sector.
    pub key: u32,
    /// Sector count (1..=8).
    pub sectors: u8,
    /// Connection index, when the workload chooses one per request.
    pub conn: Option<u32>,
    /// Seed of the PUT payload bytes.
    pub payload_seed: u64,
}

impl Request {
    /// Sectors the request touches.
    pub fn range(&self) -> std::ops::Range<u32> {
        self.key..self.key + u32::from(self.sectors)
    }
}

/// Everything a run needs that is random, derived from the seed.
pub struct Inputs {
    /// Seed of link A (client host A ↔ router interface 0).
    pub link_a_seed: u64,
    /// Seed of link B (client host B ↔ router interface 1).
    pub link_b_seed: u64,
    /// Seed of the chaos plan's jitter.
    pub chaos_seed: u64,
    /// Seed of the store retry layer's backoff jitter.
    pub retry_seed: u64,
    /// Seed of the store's initial contents.
    pub content_seed: u64,
    /// The request stream.
    pub requests: RequestStream,
}

/// SplitMix64: the one mixing function every derived seed and fill uses.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Derives every input of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let sub = |tag: u64| mix(seed ^ mix(tag));
        Inputs {
            link_a_seed: sub(1),
            link_b_seed: sub(2),
            chaos_seed: sub(3),
            retry_seed: sub(4),
            content_seed: sub(5),
            requests: RequestStream {
                shape: workload.shape(),
                rng: StdRng::seed_from_u64(sub(6)),
            },
        }
    }
}

/// An endless, seeded request stream.
pub struct RequestStream {
    shape: Shape,
    rng: StdRng,
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let s = &self.shape;
        let op = if self.rng.gen_range(0..1000) < s.put_permille {
            Op::Put
        } else {
            Op::Get
        };
        let sectors = self.rng.gen_range(1..s.max_sectors + 1);
        let key = self.rng.gen_range(0..s.key_space - u32::from(sectors) + 1);
        let conn = s
            .random_conn
            .then(|| self.rng.gen_range(0..s.conns() as u32));
        let payload_seed = self.rng.gen();
        Some(Request {
            op,
            key,
            sectors,
            conn,
            payload_seed,
        })
    }
}

/// Fills `out` with the seeded byte stream of `seed`.
fn fill(seed: u64, out: &mut [u8]) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let w = mix(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// The store's initial contents of `sector`.
pub fn initial_sector(content_seed: u64, sector: u32) -> [u8; SECTOR] {
    let mut out = [0u8; SECTOR];
    fill(mix(content_seed ^ u64::from(sector)), &mut out);
    out
}

/// The value a PUT writes: `sectors` sectors of seeded bytes.
pub fn put_payload(req: &Request) -> Vec<u8> {
    let mut out = vec![0u8; usize::from(req.sectors) * SECTOR];
    fill(req.payload_seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, n: usize) -> (Vec<Request>, [u64; 5]) {
        let inputs = Inputs::generate(workload, seed);
        let seeds = [
            inputs.link_a_seed,
            inputs.link_b_seed,
            inputs.chaos_seed,
            inputs.retry_seed,
            inputs.content_seed,
        ];
        (inputs.requests.take(n).collect(), seeds)
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(first(w, 42, 500), first(w, 42, 500));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in Workload::ALL {
            let (a, sa) = first(w, 42, 500);
            let (b, sb) = first(w, 43, 500);
            assert_ne!(a, b);
            assert!(sa.iter().zip(&sb).all(|(x, y)| x != y));
        }
        assert_ne!(initial_sector(1, 7), initial_sector(2, 7));
        assert_ne!(initial_sector(1, 7), initial_sector(1, 8));
    }

    #[test]
    fn requests_respect_the_shape() {
        for w in Workload::ALL {
            let s = w.shape();
            let (reqs, _) = first(w, 7, 5_000);
            let puts = reqs.iter().filter(|r| r.op == Op::Put).count() as u32;
            let expect = s.put_permille * 5;
            assert!(puts.abs_diff(expect) <= 150, "{}: {puts} puts", w.name());
            for r in &reqs {
                assert!((1..=s.max_sectors).contains(&r.sectors));
                assert!(r.range().end <= s.key_space);
                assert_eq!(r.conn.is_some(), s.random_conn);
                assert!(r.conn.is_none_or(|c| (c as usize) < s.conns()));
            }
        }
    }

    #[test]
    fn payloads_repeat_per_request() {
        let (reqs, _) = first(Workload::KvWriteDurable, 3, 10);
        let p = put_payload(&reqs[0]);
        assert_eq!(p.len(), usize::from(reqs[0].sectors) * SECTOR);
        assert_eq!(p, put_payload(&reqs[0]));
        assert_ne!(p[..SECTOR], put_payload(&reqs[1])[..SECTOR]);
    }
}
