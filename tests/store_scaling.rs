//! Store scaling suite (PR 5): the sharded, vectorized block cache.
//!
//! - Differential property test: any operation sequence through the
//!   cache — transactions forwarded to the driver's volatile ones
//!   included — followed by a final flush, leaves the backing disk
//!   byte-identical to running the same sequence against the raw driver —
//!   across shard counts {1, 4, 8} and several capacities.
//! - Durability: a failed backing write must never lose dirty data
//!   (lines are marked clean only after the write succeeds).
//! - Strict capacity: eviction happens before insertion.
//! - Batching: coalesced writeback issues fewer backing invocations and
//!   costs fewer simulated cycles than per-sector writes.
//! - Stress: several non-cooperating domains hammer one shared cache
//!   installed by interposition.
//! - Golden fingerprint: a fixed single-client sequence over 1 and 4
//!   shards reproduces pinned clock, cache and driver counters and disk
//!   and read digests, so a rewrite of the cache's internals cannot
//!   silently change what it does.

use proptest::prelude::*;
use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Arc,
};

use paramecium::core::memsvc::MemService;
use paramecium::machine::dev::disk::{batch_transfer_cost, SECTOR_SIZE, SECTOR_TRANSFER_COST};
use paramecium::machine::Machine;
use paramecium::obj::interpose::interposer_target;
use paramecium::prelude::*;
use paramecium::store::vectored::{pairs_arg, sectors_arg, txn_arg, txn_write_args};
use paramecium::store::StackBuilder;
use parking_lot::Mutex;

/// Sector range the tests operate on: small enough that random sequences
/// collide and evict constantly.
const RANGE: i64 = 24;

fn fresh_driver() -> (Arc<MemService>, ObjRef) {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
    (mem, driver)
}

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn resident_of(cache: &ObjRef) -> i64 {
    cache
        .invoke("cache", "stats", &[])
        .unwrap()
        .as_list()
        .unwrap()[3]
        .as_int()
        .unwrap()
}

/// One abstract storage operation.
#[derive(Clone, Debug)]
enum StoreOp {
    Read(i64),
    Write(i64, u8),
    ReadMany(Vec<i64>),
    WriteMany(Vec<(i64, u8)>),
    Flush,
    /// `begin_txn`, one `txn_write` per pair, then `commit` (true) or
    /// `abort` (false).
    Txn(Vec<(i64, u8)>, bool),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0..RANGE).prop_map(StoreOp::Read),
        (0..RANGE, 0u8..=255).prop_map(|(s, b)| StoreOp::Write(s, b)),
        proptest::collection::vec(0..RANGE, 1..12).prop_map(StoreOp::ReadMany),
        proptest::collection::vec((0..RANGE, 0u8..=255), 1..12).prop_map(StoreOp::WriteMany),
        (0u8..1).prop_map(|_| StoreOp::Flush),
        (
            proptest::collection::vec((0..RANGE, 0u8..=255), 1..6),
            0u8..2
        )
            .prop_map(|(writes, commit)| StoreOp::Txn(writes, commit == 1)),
    ]
}

/// Applies `op` to any blockdev-speaking object, returning the read
/// payloads (first byte of each sector) so cache and raw driver can be
/// compared call by call, not just at the end.
fn apply(dev: &ObjRef, op: &StoreOp, is_cache: bool) -> Vec<u8> {
    match op {
        StoreOp::Read(sec) => {
            let v = dev.invoke("blockdev", "read", &[Value::Int(*sec)]).unwrap();
            vec![v.as_bytes().unwrap()[0]]
        }
        StoreOp::Write(sec, byte) => {
            dev.invoke("blockdev", "write", &[Value::Int(*sec), sector_of(*byte)])
                .unwrap();
            Vec::new()
        }
        StoreOp::ReadMany(secs) => {
            let v = dev
                .invoke(
                    "blockdev",
                    "read_many",
                    &[sectors_arg(secs.iter().copied())],
                )
                .unwrap();
            v.as_list()
                .unwrap()
                .iter()
                .map(|b| b.as_bytes().unwrap()[0])
                .collect()
        }
        StoreOp::WriteMany(pairs) => {
            let arg = pairs_arg(
                pairs
                    .iter()
                    .map(|(sec, byte)| (*sec, bytes::Bytes::from(vec![*byte; SECTOR_SIZE]))),
            );
            dev.invoke("blockdev", "write_many", &[arg]).unwrap();
            Vec::new()
        }
        StoreOp::Flush => {
            if is_cache {
                dev.invoke("cache", "flush", &[]).unwrap();
            }
            Vec::new()
        }
        StoreOp::Txn(writes, commit) => {
            let txn = dev
                .invoke("blockdev", "begin_txn", &[])
                .unwrap()
                .as_int()
                .unwrap();
            for (sec, byte) in writes {
                let data = bytes::Bytes::from(vec![*byte; SECTOR_SIZE]);
                dev.invoke("blockdev", "txn_write", &txn_write_args(txn, *sec, data))
                    .unwrap();
            }
            let verb = if *commit { "commit" } else { "abort" };
            dev.invoke("blockdev", verb, &txn_arg(txn)).unwrap();
            Vec::new()
        }
    }
}

fn disk_contents(driver: &ObjRef) -> Vec<u8> {
    let v = driver
        .invoke("blockdev", "read_many", &[sectors_arg(0..RANGE)])
        .unwrap();
    v.as_list()
        .unwrap()
        .iter()
        .flat_map(|b| b.as_bytes().unwrap().to_vec())
        .collect()
}

proptest! {
    /// The cache is transparent: every read returns what the raw driver
    /// would have returned, and after a final flush the backing disk is
    /// byte-identical to the driver-only run — for shard counts 1, 4 and
    /// 8 and capacities from thrashing-small to ample.
    #[test]
    fn cache_is_differentially_transparent(
        ops in proptest::collection::vec(store_op(), 0..60),
        capacity in 2usize..40,
    ) {
        for shards in [1usize, 4, 8] {
            let (_mem_c, backing) = fresh_driver();
            let cache = StackBuilder::on(backing.clone())
                .sharded_cache(capacity, shards)
                .build()
                .unwrap()
                .top;
            let (_mem_r, raw) = fresh_driver();
            for op in &ops {
                let through_cache = apply(&cache, op, true);
                let through_raw = apply(&raw, op, false);
                prop_assert_eq!(
                    &through_cache, &through_raw,
                    "read divergence (shards={}, capacity={}, op={:?})", shards, capacity, op
                );
                // Strict capacity invariant after every operation.
                let resident = resident_of(&cache);
                let cap_total = (capacity.div_ceil(shards) * shards) as i64;
                prop_assert!(
                    resident <= cap_total,
                    "resident {} over capacity {} (shards={})", resident, cap_total, shards
                );
            }
            cache.invoke("cache", "flush", &[]).unwrap();
            prop_assert_eq!(
                disk_contents(&backing),
                disk_contents(&raw),
                "disk divergence after final flush (shards={}, capacity={})", shards, capacity
            );
        }
    }
}

/// Wraps `driver` in an interposer whose writes fail while `armed`.
fn failing_backing(driver: ObjRef, armed: Arc<AtomicBool>) -> ObjRef {
    let a1 = armed.clone();
    let a2 = armed;
    InterposerBuilder::new(driver)
        .override_method("blockdev", "write", move |this, args| {
            if a1.load(Ordering::Relaxed) {
                return Err(paramecium::obj::ObjError::failed("injected write failure"));
            }
            interposer_target(this)?.invoke("blockdev", "write", args)
        })
        .override_method("blockdev", "write_many", move |this, args| {
            if a2.load(Ordering::Relaxed) {
                return Err(paramecium::obj::ObjError::failed("injected write failure"));
            }
            interposer_target(this)?.invoke("blockdev", "write_many", args)
        })
        .build()
}

#[test]
fn failed_flush_loses_no_dirty_data() {
    for shards in [1usize, 4, 8] {
        let (_mem, driver) = fresh_driver();
        let armed = Arc::new(AtomicBool::new(false));
        let flaky = failing_backing(driver.clone(), armed.clone());
        let cache = StackBuilder::on(flaky)
            .sharded_cache(64, shards)
            .build()
            .unwrap()
            .top;
        for sec in 0..10i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0xD0 + sec as u8)],
                )
                .unwrap();
        }
        // Flush against a failing backing store: the error surfaces and
        // NO line may be marked clean.
        armed.store(true, Ordering::Relaxed);
        assert!(
            cache.invoke("cache", "flush", &[]).is_err(),
            "flush must propagate the backing failure (shards={shards})"
        );
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(
            dstats.as_list().unwrap()[1],
            Value::Int(0),
            "nothing reached the disk"
        );
        // Recovery: disarm and flush again — every dirty line must still
        // be dirty and reach the disk now.
        armed.store(false, Ordering::Relaxed);
        assert_eq!(
            cache.invoke("cache", "flush", &[]).unwrap(),
            Value::Int(10),
            "a failed flush must leave all lines dirty (shards={shards})"
        );
        for sec in 0..10i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0xD0 + sec as u8);
        }
        // And the durable flush is idempotent.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
    }
}

#[test]
fn failed_eviction_writeback_keeps_victim_and_surfaces_error() {
    let (_mem, driver) = fresh_driver();
    let armed = Arc::new(AtomicBool::new(false));
    let flaky = failing_backing(driver.clone(), armed.clone());
    let cache = StackBuilder::on(flaky).cache(2).build().unwrap().top;
    cache
        .invoke("blockdev", "write", &[Value::Int(0), sector_of(0xAA)])
        .unwrap();
    cache
        .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xBB)])
        .unwrap();
    // A third write needs to evict a dirty victim; the backing write
    // fails, so the client write fails and the victim's data survives.
    armed.store(true, Ordering::Relaxed);
    assert!(cache
        .invoke("blockdev", "write", &[Value::Int(2), sector_of(0xCC)])
        .is_err());
    armed.store(false, Ordering::Relaxed);
    // The original dirty data is intact (flushable), nothing was lost.
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(2));
    for (sec, byte) in [(0i64, 0xAAu8), (1, 0xBB)] {
        let v = driver
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], byte);
    }
}

#[test]
fn failed_write_many_applies_nothing() {
    // The cache's write_many matches the driver's no-partial-effects
    // contract: if the eviction writeback that makes room for the batch
    // fails, no pair of the batch may be cached.
    let (_mem, driver) = fresh_driver();
    let armed = Arc::new(AtomicBool::new(false));
    let flaky = failing_backing(driver.clone(), armed.clone());
    let cache = StackBuilder::on(flaky).cache(2).build().unwrap().top;
    cache
        .invoke("blockdev", "write", &[Value::Int(0), sector_of(0xAA)])
        .unwrap();
    cache
        .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xBB)])
        .unwrap();
    armed.store(true, Ordering::Relaxed);
    let pairs = pairs_arg([
        (0i64, bytes::Bytes::from(vec![0x11u8; SECTOR_SIZE])),
        (2, bytes::Bytes::from(vec![0x22u8; SECTOR_SIZE])),
    ]);
    assert!(
        cache.invoke("blockdev", "write_many", &[pairs]).is_err(),
        "eviction writeback failure must fail the batch"
    );
    armed.store(false, Ordering::Relaxed);
    // Neither pair applied: sector 0 still holds its old data and sector
    // 2 is absent, so flushing persists exactly the pre-batch state.
    let v = cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0xAA, "batch must not half-apply");
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(2));
    let v = driver.invoke("blockdev", "read", &[Value::Int(2)]).unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0, "sector 2 never written");
}

#[test]
fn oversized_write_many_streams_through_in_one_backing_call() {
    // A batch larger than the cache bypasses it as one vectorized
    // write-through instead of thrashing every line.
    let (_mem, driver) = fresh_driver();
    let cache = StackBuilder::on(driver.clone())
        .cache(8)
        .build()
        .unwrap()
        .top;
    cache
        .invoke("blockdev", "write", &[Value::Int(0), sector_of(0x01)])
        .unwrap();
    let before = driver.invocation_count();
    let pairs: Vec<(i64, bytes::Bytes)> = (0..64i64)
        .map(|sec| (sec, bytes::Bytes::from(vec![0x40 + sec as u8; SECTOR_SIZE])))
        .collect();
    let n = cache
        .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
        .unwrap();
    assert_eq!(n, Value::Int(64));
    assert_eq!(
        driver.invocation_count() - before,
        1,
        "streaming write-through issues one backing call"
    );
    // Everything is on disk already; the resident line was refreshed in
    // place (clean), so flush has nothing to do.
    for sec in [0i64, 7, 63] {
        let v = driver
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x40 + sec as u8);
    }
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
    // And the refreshed line still serves reads with the new data.
    let v = cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0x40);
}

#[test]
fn batched_flush_beats_per_sector_writes_on_invocations_and_cost() {
    const N: i64 = 256;
    // Per-sector: 256 individual driver writes.
    let (mem_a, driver_a) = fresh_driver();
    let t0 = mem_a.machine().lock().now();
    let inv0 = driver_a.invocation_count();
    for sec in 0..N {
        driver_a
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let per_sector_cost = mem_a.machine().lock().now() - t0;
    let per_sector_invocations = driver_a.invocation_count() - inv0;

    // Batched: 256 dirty lines, one coalesced flush.
    let (mem_b, driver_b) = fresh_driver();
    let cache = StackBuilder::on(driver_b.clone())
        .sharded_cache(512, 8)
        .build()
        .unwrap()
        .top;
    for sec in 0..N {
        cache
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let t0 = mem_b.machine().lock().now();
    let inv0 = driver_b.invocation_count();
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(N));
    let batched_cost = mem_b.machine().lock().now() - t0;
    let batched_invocations = driver_b.invocation_count() - inv0;

    assert_eq!(per_sector_invocations, N as u64);
    assert_eq!(batched_invocations, 1, "one vectorized backing call");
    assert_eq!(per_sector_cost, N as u64 * SECTOR_TRANSFER_COST);
    assert_eq!(batched_cost, batch_transfer_cost(N as usize));
    assert!(
        batched_cost * 2 < per_sector_cost,
        "batched flush must cost well under half: {batched_cost} vs {per_sector_cost}"
    );
    // Both strategies leave identical bytes behind.
    assert_eq!(disk_contents(&driver_a)[..], disk_contents(&driver_b)[..]);
}

#[test]
fn multi_client_stress_through_interposition() {
    // The paper's scenario at load: one shared cache interposed over
    // /dev/disk, several non-cooperating user domains hammering it
    // through their proxies.
    let world = World::boot();
    let n = &world.nucleus;
    n.repository.add_native("disk-driver", "1.0", {
        let mem = n.mem.clone();
        Arc::new(move || {
            StackBuilder::disk(&mem, KERNEL_DOMAIN)
                .build()
                .map(|stack| stack.top)
                .map_err(|e| paramecium::obj::ObjError::failed(e.to_string()))
        })
    });
    world
        .certify_by_root("disk-driver", &[Right::RunKernel, Right::DeviceAccess])
        .unwrap();
    n.load("disk-driver", &LoadOptions::kernel("/dev/disk"))
        .unwrap();
    let raw = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    let cache = StackBuilder::on(raw)
        .sharded_cache(32, 4)
        .build()
        .unwrap()
        .top;
    n.interpose(KERNEL_DOMAIN, "/dev/disk", cache).unwrap();

    let clients: Vec<ObjRef> = (0..4)
        .map(|i| {
            let d = n
                .create_domain(format!("client-{i}"), KERNEL_DOMAIN, [])
                .unwrap();
            n.bind(d.id, "/dev/disk").unwrap()
        })
        .collect();

    // Interleaved traffic over overlapping ranges: client i stripes its
    // id into sectors [i, i+4, ...), then everyone reads everyone's.
    let writes = Arc::new(AtomicU64::new(0));
    for round in 0..8u8 {
        for (i, c) in clients.iter().enumerate() {
            for k in 0..16i64 {
                let sec = (i as i64 + 4 * k) % 64;
                c.invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(round.wrapping_mul(sec as u8))],
                )
                .unwrap();
                writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        for c in &clients {
            let v = c
                .invoke("blockdev", "read_many", &[sectors_arg(0..16)])
                .unwrap();
            assert_eq!(v.as_list().unwrap().len(), 16);
        }
    }

    // The shared cache saw every client: aggregated accesses match the
    // traffic, the capacity invariant held, and a final flush persists a
    // consistent image.
    let shared = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    let stats = shared.invoke("cache", "stats", &[]).unwrap();
    let s: Vec<i64> = stats
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let total_ops = writes.load(Ordering::Relaxed) as i64 + 8 * 4 * 16;
    assert_eq!(s[0] + s[1], total_ops, "hits+misses == every client op");
    assert!(s[3] <= 32, "resident {} within capacity", s[3]);
    let shard_stats = shared.invoke("cache", "shard_stats", &[]).unwrap();
    let shard_stats = shard_stats.as_list().unwrap();
    assert_eq!(shard_stats.len(), 4);
    assert!(
        shard_stats
            .iter()
            .all(|sh| sh.as_list().unwrap()[0].as_int().unwrap() > 0),
        "traffic reaches every shard"
    );
    shared.invoke("cache", "flush", &[]).unwrap();
    // After the flush the last round's stripes are on disk.
    let disk = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    for sec in 0..16i64 {
        let v = disk.invoke("blockdev", "read", &[Value::Int(sec)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 7u8.wrapping_mul(sec as u8));
    }
}

/// Everything one run of [`golden_workload`] leaves behind that a change
/// to the cache's internals must not move.
#[derive(Debug, PartialEq, Eq)]
struct CacheFingerprint {
    clock: u64,
    stats: Vec<i64>,
    shard_stats: Vec<Vec<i64>>,
    driver_reads_writes: Vec<i64>,
    driver_invocations: u64,
    reads_digest: u64,
    disk_digest: u64,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn ints(v: &Value) -> Vec<i64> {
    v.as_list()
        .unwrap()
        .iter()
        .map(|x| x.as_int().unwrap())
        .collect()
}

/// A fixed single-client sequence over a `shards`-way cache of 8 lines:
/// single-sector write and read hits and misses (dirty evictions that
/// coalesce cold dirty lines into their writeback), `read_many` fills
/// that fit their shard, `write_many` batches whose evictions are all
/// clean (one with a duplicate sector), `flush` and `barrier`.
fn golden_workload(shards: usize) -> CacheFingerprint {
    let (mem, driver) = fresh_driver();
    let cache = StackBuilder::on(driver.clone())
        .sharded_cache(8, shards)
        .build()
        .unwrap()
        .top;
    let inv0 = driver.invocation_count();
    let mut reads = 0u64;
    let mut read = |sec: i64| {
        let v = cache
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        reads = fnv(reads, v.as_bytes().unwrap());
    };
    let write = |sec: i64, byte: u8| {
        cache
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(byte)])
            .unwrap();
    };
    let write_many = |pairs: &[(i64, u8)]| {
        let arg = pairs_arg(
            pairs
                .iter()
                .map(|&(sec, byte)| (sec, bytes::Bytes::from(vec![byte; SECTOR_SIZE]))),
        );
        cache.invoke("blockdev", "write_many", &[arg]).unwrap();
    };
    let read_many = |secs: &[i64]| -> u64 {
        let v = cache
            .invoke(
                "blockdev",
                "read_many",
                &[sectors_arg(secs.iter().copied())],
            )
            .unwrap();
        v.as_list()
            .unwrap()
            .iter()
            .fold(0, |h, b| fnv(h, b.as_bytes().unwrap()))
    };

    // Dirty write misses past capacity: evictions with coalesced extras.
    for sec in 0..12 {
        write(sec, 0x10 + sec as u8);
    }
    // Write hits, then read hits and misses (some evicting dirty lines).
    for sec in [11, 10, 9] {
        write(sec, 0x40 + sec as u8);
    }
    for sec in [11, 0, 1, 10, 2, 13, 0] {
        read(sec);
    }
    for sec in [20, 21, 22, 3] {
        write(sec, 0x60 + sec as u8);
    }
    for sec in [20, 4, 5] {
        read(sec);
    }
    // Every line clean, then fills and batches that evict only clean lines.
    cache.invoke("cache", "flush", &[]).unwrap();
    let mut batch_reads = read_many(&[16, 17, 18, 19, 11]);
    write_many(&[(3, 0x83), (21, 0x95), (11, 0x8b), (12, 0x8c)]);
    cache.invoke("blockdev", "barrier", &[]).unwrap();
    write_many(&[(6, 0xa6), (6, 0xa7), (14, 0xae)]);
    batch_reads = fnv(batch_reads, &read_many(&[6, 7, 23, 14]).to_le_bytes());
    cache.invoke("blockdev", "flush", &[]).unwrap();
    write(7, 0xc7);
    read(7);
    read(15);
    cache.invoke("blockdev", "flush", &[]).unwrap();

    let clock = mem.machine().lock().now();
    CacheFingerprint {
        clock,
        stats: ints(&cache.invoke("cache", "stats", &[]).unwrap()),
        shard_stats: cache
            .invoke("cache", "shard_stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(ints)
            .collect(),
        driver_reads_writes: ints(&driver.invoke("blockdev", "stats", &[]).unwrap()),
        driver_invocations: driver.invocation_count() - inv0,
        reads_digest: fnv(reads, &batch_reads.to_le_bytes()),
        disk_digest: fnv(0, &disk_contents(&driver)),
    }
}

/// `golden_workload(1)` and `golden_workload(4)` as recorded on the cache
/// with separate single-sector and batch insertion paths. Any rewrite
/// of the cache's internals must reproduce them exactly: same simulated
/// clock, same hits, misses, writebacks and residency per shard, same
/// backing traffic, same bytes read and on disk.
fn golden_fingerprint(shards: usize) -> CacheFingerprint {
    const READS: u64 = 548_168_551_944_373_673;
    const DISK: u64 = 1_068_494_571_249_433_381;
    match shards {
        1 => CacheFingerprint {
            clock: 194_000,
            stats: vec![13, 35, 23, 8],
            shard_stats: vec![vec![13, 35, 23, 8]],
            driver_reads_writes: vec![14, 23],
            driver_invocations: 20,
            reads_digest: READS,
            disk_digest: DISK,
        },
        4 => CacheFingerprint {
            clock: 232_000,
            stats: vec![13, 35, 23, 8],
            shard_stats: vec![
                vec![2, 8, 5, 2],
                vec![1, 9, 5, 2],
                vec![5, 8, 6, 2],
                vec![5, 10, 7, 2],
            ],
            driver_reads_writes: vec![13, 23],
            driver_invocations: 25,
            reads_digest: READS,
            disk_digest: DISK,
        },
        _ => unreachable!("no golden values for {shards} shards"),
    }
}

#[test]
fn cache_fingerprint_matches_golden_values() {
    for shards in [1usize, 4] {
        assert_eq!(
            golden_workload(shards),
            golden_fingerprint(shards),
            "shards={shards}"
        );
    }
}
