//! The shared block cache — the paper's canonical certified component.
//!
//! "Certified kernel components can include protocol stack
//! implementations that are shared between multiple non-cooperating
//! users, security modules, shared caches, etc. Trust and sharing are
//! important notions in an operating system kernel that are hard to
//! formalize and even harder to check automatically." (paper, section 4).
//!
//! A write-back LRU cache over any `blockdev` object. Because it exports
//! `blockdev` itself, it is installed by *interposition*: replace the
//! `/dev/disk` binding with the cache wrapping the old driver, and every
//! client — from any protection domain — transparently shares it. That
//! sharing is exactly why software verification is not enough (the cache
//! sees everyone's data) and certification is the paper's answer.
//!
//! # Architecture (PR 5)
//!
//! The cache is a sharded pipeline built for the "serve millions" load
//! profile:
//!
//! - **Sharding.** Lines are partitioned `N` ways by sector
//!   (`sector % N`). Each shard owns an independent index, LRU list and
//!   hit/miss/writeback counters; the `cache` interface aggregates them.
//!   One object still exports `blockdev`, so interposition and
//!   certification are unchanged.
//! - **O(1) LRU.** Each shard keeps its lines in a slot arena threaded
//!   with an index-based intrusive doubly-linked list (no unsafe, no
//!   per-node allocation): touch, insert and evict are all O(1), where
//!   the seed implementation paid an O(n) min-scan per eviction.
//! - **Zero-copy hits.** Lines store [`bytes::Bytes`]; a hit returns a
//!   ref-counted clone of the resident buffer — no 512-byte copies on
//!   the hot path (the seed copied twice per hit).
//! - **Coalesced writeback.** Eviction and `flush` gather dirty lines
//!   into sector-sorted (elevator-order) batches and issue one
//!   vectorized `write_many` to the backing store, which charges the
//!   amortised batch transfer cost — instead of one full-price object
//!   invocation per sector. An eviction opportunistically takes up to
//!   [`EVICTION_WRITEBACK_BATCH`] dirty lines from the cold end of the
//!   LRU with it, so write-heavy scans retire their writeback debt in
//!   bursts.
//! - **Durability.** Dirty lines are marked clean only *after* the
//!   backing write succeeds, checked against a per-line version so a
//!   line rewritten while its writeback was in flight stays dirty. A
//!   failed backing write loses nothing: flush leaves every line dirty
//!   and eviction reinserts the victim.
//! - **Strict capacity.** Eviction happens *before* insertion, so the
//!   cache never holds more than `capacity` lines, even transiently.
//! - **Per-shard locking (PR 7).** Each shard sits behind its own spin
//!   [`TryLock`] instead of the object's exclusive instance state, so
//!   concurrent clients on real OS threads (the world pool) proceed in
//!   parallel on disjoint shards. Uncontended acquisition is one atomic
//!   swap — the same cost the old `with_state` path paid — and no lock
//!   is ever held across a backing-store invocation. Multi-shard
//!   operations lock one shard at a time: under concurrency they are
//!   atomic per shard, not across the cache (single-client behaviour is
//!   unchanged).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium_machine::dev::disk::SECTOR_SIZE;
use paramecium_obj::{
    ObjError, ObjRef, ObjResult, ObjectBuilder, TryLock, TryLockGuard, TypeTag, Value,
};

use crate::vectored::{
    pairs_arg, parse_pairs, parse_txn, parse_txn_write, sectors_arg, TXN_WRITE_PARAMS,
};

/// Multiplicative hasher for sector numbers (Fibonacci mixing). Sector
/// keys are small trusted integers, so the index doesn't need SipHash's
/// flooding resistance — and on the warmed hit path the default hasher
/// costs more than the rest of the lookup combined.
#[derive(Default)]
struct SectorHasher(u64);

impl Hasher for SectorHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

type SectorMap<V> = HashMap<i64, V, BuildHasherDefault<SectorHasher>>;
type SectorSet = std::collections::HashSet<i64, BuildHasherDefault<SectorHasher>>;

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Most dirty lines one eviction writeback will coalesce (the victim plus
/// opportunistic extras from the cold end of the LRU list). Bounded so a
/// single miss never turns into an unbounded flush.
pub const EVICTION_WRITEBACK_BATCH: usize = 8;

/// One cache line. LRU threading lives in the shard's parallel `links`
/// array so the hot touch path only writes the compact link table, not
/// three of these ~48-byte entries.
struct Line {
    sector: i64,
    data: Bytes,
    dirty: bool,
    /// Drawn from the shard's monotonic `version_clock` on every insert
    /// and overwrite. A completed writeback only clears the dirty bit if
    /// the version still matches the snapshot it wrote, so a line
    /// rewritten (or evicted and re-inserted) mid-writeback stays dirty
    /// (durability).
    version: u64,
}

/// Intrusive doubly-linked list node: `(prev, next)` slot indices.
type Link = (u32, u32);

/// One shard: an independent slot arena + hash index + LRU list + stats.
struct Shard {
    /// sector → slot index.
    map: SectorMap<u32>,
    /// Slot arena; freed slots are recycled via `free`.
    slots: Vec<Line>,
    /// LRU threading parallel to `slots`: 8 bytes per line keeps the
    /// touch path's writes inside a handful of cache lines.
    links: Vec<Link>,
    free: Vec<u32>,
    /// Most-recently-used end of the intrusive list.
    head: u32,
    /// Least-recently-used end (eviction candidate).
    tail: u32,
    capacity: usize,
    /// Monotonic source for line versions. Never reused — a re-inserted
    /// sector gets a fresh version, so an in-flight writeback snapshot
    /// can never mistake new data for the bytes it wrote.
    version_clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: SectorMap::default(),
            slots: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
            version_clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Next unique line version.
    fn next_version(&mut self) -> u64 {
        self.version_clock += 1;
        self.version_clock
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = self.links[idx as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].1 = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].0 = prev;
        }
    }

    fn link_front(&mut self, idx: u32) {
        let old = self.head;
        self.links[idx as usize] = (NIL, old);
        if old == NIL {
            self.tail = idx;
        } else {
            self.links[old as usize].0 = idx;
        }
        self.head = idx;
    }

    /// O(1) LRU touch: move the slot to the MRU end.
    #[inline]
    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    /// Inserts a new line at the MRU end. The caller guarantees the sector
    /// is absent and the shard has room.
    fn insert(&mut self, sector: i64, data: Bytes, dirty: bool) {
        debug_assert!(self.len() < self.capacity);
        let line = Line {
            sector,
            data,
            dirty,
            version: self.next_version(),
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = line;
                i
            }
            None => {
                self.slots.push(line);
                self.links.push((NIL, NIL));
                (self.slots.len() - 1) as u32
            }
        };
        self.link_front(idx);
        self.map.insert(sector, idx);
    }

    /// Removes the LRU line, returning `(sector, data, dirty)`.
    fn pop_lru(&mut self) -> Option<(i64, Bytes, bool)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        self.free.push(idx);
        let line = &mut self.slots[idx as usize];
        self.map.remove(&line.sector);
        Some((line.sector, std::mem::take(&mut line.data), line.dirty))
    }

    /// Snapshots up to `max` dirty lines starting from the LRU end,
    /// without clearing their dirty bits (that happens only after the
    /// backing write succeeds, version-checked).
    fn dirty_from_lru(&self, max: usize) -> Vec<(i64, Bytes, u64)> {
        let mut out = Vec::new();
        let mut idx = self.tail;
        while idx != NIL && out.len() < max {
            let l = &self.slots[idx as usize];
            if l.dirty {
                out.push((l.sector, l.data.clone(), l.version));
            }
            idx = self.links[idx as usize].0;
        }
        out
    }

    /// Snapshots every dirty line in the shard (for `flush`).
    fn all_dirty(&self) -> Vec<(i64, Bytes, u64)> {
        self.map
            .values()
            .filter_map(|&idx| {
                let l = &self.slots[idx as usize];
                l.dirty.then(|| (l.sector, l.data.clone(), l.version))
            })
            .collect()
    }

    /// Clears the dirty bit of `sector` if still resident at `version`.
    fn mark_clean_if_unchanged(&mut self, sector: i64, version: u64) {
        if let Some(&idx) = self.map.get(&sector) {
            let line = &mut self.slots[idx as usize];
            if line.version == version {
                line.dirty = false;
            }
        }
    }

    /// Drops `sector`'s line if it is resident and *clean*. Used when a
    /// committed transaction rewrites the sector below the cache: the
    /// resident copy is stale and must not serve another hit. A dirty
    /// line survives — it holds a direct client write the cache has not
    /// acknowledged to the backing store yet, and dropping it would lose
    /// acknowledged data.
    fn invalidate_clean(&mut self, sector: i64) {
        if let Some(&idx) = self.map.get(&sector) {
            if !self.slots[idx as usize].dirty {
                self.map.remove(&sector);
                self.unlink(idx);
                self.free.push(idx);
                self.slots[idx as usize].data = Bytes::new();
            }
        }
    }
}

/// Shared cache instance: the backing `blockdev`, the shard array — each
/// shard behind its own spin lock — and the lazily fetched device size.
///
/// Every method closure captures this as an `Arc`, bypassing the object's
/// exclusive instance state entirely: two clients touching different
/// shards never serialize, which is what lets one shared cache serve many
/// concurrent worlds (the world pool) without a global lock. The per-shard
/// invariants are unchanged from the exclusive design — evict-before-
/// insert, dirty lines cleaned only after a version-checked successful
/// backing write, failed batches reinsert their victims. The one semantic
/// narrowing under *concurrent* clients: multi-shard operations
/// (`read_many`, `write_many`, `flush`, `stats`) lock one shard at a
/// time, so they are atomic per shard rather than across the whole cache;
/// single-client behaviour is bit-identical to the old global-lock
/// design.
struct CacheShared {
    backing: ObjRef,
    /// Always a power-of-two length so routing is a mask, not a divide.
    /// Each shard is independently locked; the uncontended acquire is one
    /// atomic swap, so a warmed single-client hit costs what it did under
    /// the exclusive-state design.
    shards: Vec<TryLock<Shard>>,
    shard_mask: u64,
    /// Per-shard line capacity (uniform across shards), readable without
    /// any lock for batch planning.
    per_shard: usize,
    /// Largest batch the backing store accepts as one `write_many` —
    /// a journal below bounds it by its log capacity (its `write_limit`
    /// method); a backing without the method is unbounded
    /// (`usize::MAX`). Probed once at build time. Every internal
    /// writeback path chunks to this, so a flush of more dirty lines
    /// than one journal transaction can carry degrades into several
    /// transactions instead of an unservable oversized one that would
    /// leave the lines dirty forever.
    write_limit: usize,
    /// Backing device size, fetched lazily on the first dirty write and
    /// used to reject out-of-range writes up front — an unwritable sector
    /// must never become a dirty line, or it would poison every later
    /// all-or-nothing writeback batch.
    total_sectors: OnceLock<i64>,
    /// Sectors written by each forwarded open transaction, so a
    /// successful commit can invalidate the stale resident copies.
    txn_sectors: Mutex<HashMap<i64, Vec<i64>>>,
}

impl CacheShared {
    #[inline]
    fn shard_of(&self, sector: i64) -> usize {
        (sector as u64 & self.shard_mask) as usize
    }

    /// Locks the shard owning `sector`.
    #[inline]
    fn shard(&self, sector: i64) -> TryLockGuard<'_, Shard> {
        self.shards[self.shard_of(sector)].lock()
    }

    /// The backing device's sector count (cached after the first query).
    fn backing_sectors(&self) -> ObjResult<i64> {
        if let Some(&n) = self.total_sectors.get() {
            return Ok(n);
        }
        let n = self.backing.invoke("blockdev", "sectors", &[])?.as_int()?;
        // A racing fetch computed the same value; first writer wins.
        let _ = self.total_sectors.set(n);
        Ok(n)
    }

    /// Rejects sectors the backing store could never write back.
    fn check_writable_sector(&self, sector: i64) -> ObjResult<()> {
        if sector < 0 {
            return Err(ObjError::failed("negative sector"));
        }
        let total = self.backing_sectors()?;
        if sector >= total {
            return Err(ObjError::failed(format!(
                "sector {sector} out of range (device has {total})"
            )));
        }
        Ok(())
    }
}

/// Writes an internal writeback `batch` (sector-sorted by the caller)
/// to the backing store, split into sub-batches no larger than the
/// backing's atomic-write limit (see `CacheShared::write_limit`).
/// Writeback needs every sector durable, not one atomic unit, so the
/// split never weakens a guarantee — client-visible atomicity comes
/// from the transaction verbs, which bypass this path entirely. Against
/// an unbounded backing this is exactly one `write_many`.
fn write_back_chunked(shared: &CacheShared, batch: &[(i64, Bytes)]) -> ObjResult<()> {
    for chunk in batch.chunks(shared.write_limit) {
        shared
            .backing
            .invoke("blockdev", "write_many", &[pairs_arg(chunk.to_vec())])?;
    }
    Ok(())
}

/// Outcome of one locked reservation attempt in [`insert_line`].
enum Reserve {
    /// The line is resident (updated in place or inserted).
    Done,
    /// The shard was full of dirty lines: `victims` were evicted (removed)
    /// and must be written back or reinserted; `extras` are still-resident
    /// dirty lines coalesced into the same batch.
    NeedWriteback {
        victims: Vec<(i64, Bytes)>,
        extras: Vec<(i64, Bytes, u64)>,
    },
}

/// One locked reservation attempt for [`insert_line`]: resolves the
/// sector in place when possible, otherwise evicts and reports what needs
/// writing back. Never invokes the backing store (the shard lock is held).
fn reserve_line(sh: &mut Shard, sector: i64, data: &Bytes, dirty: bool, count: bool) -> Reserve {
    if let Some(&idx) = sh.map.get(&sector) {
        if count {
            sh.hits += 1;
        }
        if dirty {
            let version = sh.next_version();
            let line = &mut sh.slots[idx as usize];
            line.data = data.clone();
            line.dirty = true;
            line.version = version;
        }
        sh.touch(idx);
        return Reserve::Done;
    }
    if count {
        sh.misses += 1;
    }
    if sh.len() < sh.capacity {
        sh.insert(sector, data.clone(), dirty);
        return Reserve::Done;
    }
    // Full: evict-before-insert. Clean victims just drop; dirty ones must
    // reach the backing store first.
    let mut victims = Vec::new();
    while sh.len() >= sh.capacity {
        let (vsec, vdata, vdirty) = sh.pop_lru().expect("full shard has an LRU line");
        if vdirty {
            victims.push((vsec, vdata));
        }
    }
    if victims.is_empty() {
        sh.insert(sector, data.clone(), dirty);
        return Reserve::Done;
    }
    let extras = sh.dirty_from_lru(EVICTION_WRITEBACK_BATCH.saturating_sub(victims.len()));
    Reserve::NeedWriteback { victims, extras }
}

/// Makes `sector` resident with `data`.
///
/// With `dirty` the line is (over)written and marked dirty (a client
/// write); without it the call only *fills* — an already-resident line is
/// left untouched so a fetch completing late can never clobber newer
/// client data. `count_stats` records one hit or miss (vectorized paths
/// and internal retries manage their own accounting).
///
/// Eviction happens *before* insertion — the shard never exceeds its
/// capacity, even transiently — and dirty victims leave through a
/// sector-sorted batched `write_many` together with up to
/// [`EVICTION_WRITEBACK_BATCH`] cold dirty lines. If the backing write
/// fails the victims are reinserted and the error surfaces to the caller:
/// no acknowledged write is ever dropped. Only the one shard owning
/// `sector` is ever locked, and never across a backing invocation.
fn insert_line(
    shared: &CacheShared,
    sector: i64,
    data: &Bytes,
    dirty: bool,
    count_stats: bool,
) -> ObjResult<()> {
    let mut count = count_stats;
    loop {
        let step = reserve_line(&mut shared.shard(sector), sector, data, dirty, count);
        count = false;
        let (victims, extras) = match step {
            Reserve::Done => return Ok(()),
            Reserve::NeedWriteback { victims, extras } => (victims, extras),
        };
        let mut batch: Vec<(i64, Bytes)> = victims
            .iter()
            .cloned()
            .chain(extras.iter().map(|(sec, d, _)| (*sec, d.clone())))
            .collect();
        batch.sort_unstable_by_key(|(sec, _)| *sec);
        let written = batch.len() as u64;
        match write_back_chunked(shared, &batch) {
            Ok(_) => {
                let mut sh = shared.shard(sector);
                sh.writebacks += written;
                for (sec, _, version) in &extras {
                    sh.mark_clean_if_unchanged(*sec, *version);
                }
                // Loop around: the shard now has room for the insert.
            }
            Err(e) => {
                // Durability: the backing write failed, so the evicted
                // dirty data goes back into the cache and the caller sees
                // the error. (The slot freed by the eviction is still
                // free, so reinsertion cannot overflow.)
                let mut sh = shared.shard(sector);
                for (vsec, vdata) in victims {
                    if !sh.map.contains_key(&vsec) && sh.len() < sh.capacity {
                        sh.insert(vsec, vdata, true);
                    }
                }
                return Err(e);
            }
        }
    }
}

fn cache_read(shared: &CacheShared, sector: i64) -> ObjResult<Value> {
    // Fast path: a hit returns a ref-counted clone of the resident
    // buffer — no byte copy, one O(1) LRU touch, one shard lock.
    let hit = {
        let mut sh = shared.shard(sector);
        match sh.map.get(&sector).copied() {
            Some(idx) => {
                sh.hits += 1;
                sh.touch(idx);
                Some(sh.slots[idx as usize].data.clone())
            }
            None => {
                sh.misses += 1;
                None
            }
        }
    };
    if let Some(data) = hit {
        return Ok(Value::Bytes(data));
    }
    // Miss: fetch with no lock held (the backing store may itself be an
    // object graph).
    let fetched = shared
        .backing
        .invoke("blockdev", "read", &[Value::Int(sector)])?;
    let data = fetched.as_bytes()?.clone();
    if data.len() != SECTOR_SIZE {
        return Err(ObjError::failed("backing store returned a short sector"));
    }
    insert_line(shared, sector, &data, false, false)?;
    Ok(Value::Bytes(data))
}

fn cache_read_many(shared: &CacheShared, sectors: &[Value]) -> ObjResult<Value> {
    // One pass builds the result list in place, re-locking only when the
    // owning shard changes — a single-shard cache pays exactly one lock
    // for the whole batch, and runs of shard-local sectors amortize
    // theirs. At most one shard lock is ever held (the previous guard is
    // dropped before the next acquire), so concurrent batches cannot
    // deadlock however their shard orders interleave. Hits resolve to a
    // zero-copy clone immediately, misses leave a `Unit` placeholder.
    let mut results: Vec<Value> = Vec::with_capacity(sectors.len());
    let mut missing: Vec<i64> = Vec::new();
    {
        // Take every shard guard up front, in ascending index order —
        // the one multi-lock site in the cache, and every other path
        // holds at most one shard at a time, so no acquisition cycle can
        // form. This keeps the hit pass identical to the single-lock
        // original (one pass, no per-sector lock traffic, no grouping
        // allocations): the whole batch pays `nshards` uncontended
        // atomic swaps, not one per sector. Guards drop before the miss
        // path runs, so no shard lock is held across a backing
        // invocation.
        let mut guards: Vec<TryLockGuard<'_, Shard>> =
            shared.shards.iter().map(|s| s.lock()).collect();
        for v in sectors {
            let sec = v.as_int()?;
            let sh = &mut guards[shared.shard_of(sec)];
            match sh.map.get(&sec).copied() {
                Some(slot) => {
                    sh.hits += 1;
                    sh.touch(slot);
                    results.push(Value::Bytes(sh.slots[slot as usize].data.clone()));
                }
                None => {
                    sh.misses += 1;
                    missing.push(sec);
                    results.push(Value::Unit);
                }
            }
        }
    }
    if !missing.is_empty() {
        // One vectorized backing fetch for all misses, in elevator order.
        // (Negative sectors land here too and are rejected by the
        // backing driver's own validation.)
        missing.sort_unstable();
        missing.dedup();
        let fetched = shared.backing.invoke(
            "blockdev",
            "read_many",
            &[sectors_arg(missing.iter().copied())],
        )?;
        let list = fetched.as_list()?;
        if list.len() != missing.len() {
            return Err(ObjError::failed("backing read_many returned a short batch"));
        }
        let mut by_sector: HashMap<i64, Bytes> = HashMap::with_capacity(missing.len());
        for (&sec, v) in missing.iter().zip(list.iter()) {
            let data = v.as_bytes()?.clone();
            if data.len() != SECTOR_SIZE {
                return Err(ObjError::failed("backing store returned a short sector"));
            }
            insert_line(shared, sec, &data, false, false)?;
            by_sector.insert(sec, data);
        }
        for (pos, v) in sectors.iter().enumerate() {
            if matches!(results[pos], Value::Unit) {
                results[pos] = Value::Bytes(by_sector[&v.as_int()?].clone());
            }
        }
    }
    Ok(Value::List(results))
}

/// Applies a validated batch of `(sector, data)` writes with the
/// driver's no-partial-effects contract: shard space for every batch
/// sector is reserved (evicting, writing dirty victims back) *before*
/// any pair is cached, so a failed eviction writeback surfaces with the
/// cache unchanged; the apply pass then locks each shard once and cannot
/// fail for a single client. Batches too large for their shards bypass
/// the cache as one streaming write-through (resident lines are
/// refreshed in place).
fn cache_write_many(shared: &CacheShared, pairs: &[(i64, Bytes)]) -> ObjResult<Value> {
    if pairs.is_empty() {
        return Ok(Value::Int(0));
    }
    let n = pairs.len() as i64;
    // Distinct batch sectors per shard decide whether the batch can be
    // fully resident after the apply pass. Capacities are fixed, so this
    // plan needs no locks at all.
    let mut in_batch = SectorSet::default();
    let mut shard_sectors: Vec<Vec<i64>> = vec![Vec::new(); shared.shards.len()];
    for (sec, _) in pairs {
        if in_batch.insert(*sec) {
            shard_sectors[shared.shard_of(*sec)].push(*sec);
        }
    }
    let fits = shard_sectors.iter().all(|s| s.len() <= shared.per_shard);
    if !fits {
        // Streaming write-through: one sector-sorted backing write (a
        // stable sort keeps duplicate-sector order, so last-wins is
        // preserved — chunks land in order, so it survives the split
        // too), then refresh any resident lines as clean.
        let mut batch: Vec<(i64, Bytes)> = pairs.to_vec();
        batch.sort_by_key(|(sec, _)| *sec);
        write_back_chunked(shared, &batch)?;
        let mut by_shard: Vec<Vec<&(i64, Bytes)>> = vec![Vec::new(); shared.shards.len()];
        for pair in pairs {
            by_shard[shared.shard_of(pair.0)].push(pair);
        }
        for (i, entries) in by_shard.iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let mut sh = shared.shards[i].lock();
            for (sec, data) in entries.iter().copied() {
                if let Some(idx) = sh.map.get(sec).copied() {
                    let version = sh.next_version();
                    let line = &mut sh.slots[idx as usize];
                    line.data = data.clone();
                    line.dirty = false;
                    line.version = version;
                    sh.touch(idx);
                }
            }
        }
        return Ok(Value::Int(n));
    }
    // Reserve: evict until every shard can absorb its batch sectors.
    // Evicting a batch-resident line just converts it into demand (it is
    // re-inserted by the apply pass), so progress comes from non-batch
    // victims; termination holds because each pop removes one line. Each
    // shard is locked once per pass, never across the backing write.
    loop {
        let mut victims: Vec<(i64, Bytes)> = Vec::new();
        for (i, secs) in shard_sectors.iter().enumerate() {
            if secs.is_empty() {
                continue;
            }
            let mut sh = shared.shards[i].lock();
            let mut need = secs.iter().filter(|sec| !sh.map.contains_key(sec)).count();
            while sh.len() + need > sh.capacity {
                let (vsec, vdata, vdirty) =
                    sh.pop_lru().expect("over-demand shard has an LRU line");
                if in_batch.contains(&vsec) {
                    need += 1;
                }
                if vdirty {
                    victims.push((vsec, vdata));
                }
            }
        }
        if victims.is_empty() {
            break;
        }
        let mut batch = victims.clone();
        batch.sort_unstable_by_key(|(sec, _)| *sec);
        match write_back_chunked(shared, &batch) {
            Ok(_) => {
                for (sec, _) in &victims {
                    shared.shard(*sec).writebacks += 1;
                }
                // Loop re-checks demand in case the backing re-entered
                // the cache during the writeback.
            }
            Err(e) => {
                // Nothing was applied yet: reinsert the dirty victims and
                // surface the error — the batch has no partial effects.
                for (vsec, vdata) in victims {
                    let mut sh = shared.shard(vsec);
                    if !sh.map.contains_key(&vsec) && sh.len() < sh.capacity {
                        sh.insert(vsec, vdata, true);
                    }
                }
                return Err(e);
            }
        }
    }
    // Apply: space is reserved, so for a single client this pass cannot
    // evict and cannot fail. A concurrent client racing the same shard
    // could steal reserved space between the passes; the defensive
    // eviction below keeps `resident ≤ capacity` and writes any displaced
    // dirty line back afterwards.
    let mut by_shard: Vec<Vec<&(i64, Bytes)>> = vec![Vec::new(); shared.shards.len()];
    for pair in pairs {
        by_shard[shared.shard_of(pair.0)].push(pair);
    }
    let mut displaced: Vec<(i64, Bytes)> = Vec::new();
    for (i, entries) in by_shard.iter().enumerate() {
        if entries.is_empty() {
            continue;
        }
        let mut sh = shared.shards[i].lock();
        for (sec, data) in entries.iter().copied() {
            match sh.map.get(sec).copied() {
                Some(idx) => {
                    sh.hits += 1;
                    let version = sh.next_version();
                    let line = &mut sh.slots[idx as usize];
                    line.data = data.clone();
                    line.dirty = true;
                    line.version = version;
                    sh.touch(idx);
                }
                None => {
                    sh.misses += 1;
                    while sh.len() >= sh.capacity {
                        let (vsec, vdata, vdirty) =
                            sh.pop_lru().expect("full shard has an LRU line");
                        if vdirty {
                            displaced.push((vsec, vdata));
                        }
                    }
                    sh.insert(*sec, data.clone(), true);
                }
            }
        }
    }
    if !displaced.is_empty() {
        displaced.sort_unstable_by_key(|(sec, _)| *sec);
        write_back_chunked(shared, &displaced)?;
        for (sec, _) in &displaced {
            shared.shard(*sec).writebacks += 1;
        }
    }
    Ok(Value::Int(n))
}

fn cache_flush(shared: &CacheShared) -> ObjResult<Value> {
    // Snapshot every dirty line (without clearing — lines are marked
    // clean only after the backing write succeeds), one shard at a time.
    let mut dirty: Vec<(i64, Bytes, u64)> = Vec::new();
    for lock in &shared.shards {
        dirty.extend(lock.lock().all_dirty());
    }
    if dirty.is_empty() {
        return Ok(Value::Int(0));
    }
    // Elevator order, chunked to the backing's atomic-write limit: a
    // journal below takes each chunk as one log transaction, so a flush
    // of more dirty lines than its log can hold in a single record
    // still drains completely. Lines are marked clean per landed chunk,
    // so a failure mid-flush leaves exactly the unwritten lines dirty
    // for the retry.
    dirty.sort_unstable_by_key(|(sec, _, _)| *sec);
    for chunk in dirty.chunks(shared.write_limit) {
        let batch: Vec<(i64, Bytes)> = chunk
            .iter()
            .map(|(sec, data, _)| (*sec, data.clone()))
            .collect();
        shared
            .backing
            .invoke("blockdev", "write_many", &[pairs_arg(batch)])?;
        for (sec, _, version) in chunk {
            // Clean bits only now that the write succeeded, attributing
            // the writeback to the shard that owned the line.
            let mut sh = shared.shard(*sec);
            sh.mark_clean_if_unchanged(*sec, *version);
            sh.writebacks += 1;
        }
    }
    Ok(Value::Int(dirty.len() as i64))
}

/// Builds a block cache of `capacity` total sectors over `backing`,
/// sharded `shards` ways by sector — the implementation behind
/// [`crate::StackBuilder`]'s cache layer. The shard count is rounded up
/// to the next power of two so routing a sector to its shard is a mask
/// rather than a division; capacity is split evenly across shards
/// (rounded up, so every shard holds at least one line).
///
/// Each shard sits behind its own lock, so concurrent clients — e.g. the
/// worlds of a world pool running on separate OS threads — proceed in
/// parallel whenever they touch different shards;
/// nothing in the cache takes a global lock.
///
/// The cache exports:
/// - the full `blockdev` interface (drop-in for the driver; the
///   [crate docs](crate) list every method). Durability methods flush
///   the cache's own dirty lines *before* forwarding down — the order
///   matters: a journal checkpoint below must see these writes in its
///   log before it truncates, or "flushed" data would survive only in
///   cache memory. Transaction verbs are forwarded (transaction data
///   never becomes cache lines); a successful `commit` invalidates
///   stale clean resident copies of the written sectors.
/// - a `cache` interface:
///   - `stats() -> [hits, misses, writebacks, resident]` (aggregated),
///   - `shard_stats() -> list of per-shard [hits, misses, writebacks, resident]`,
///   - `shards() -> int`,
///   - `flush() -> int` (write-backs performed, batched in elevator order).
pub(crate) fn build_sharded_block_cache(backing: ObjRef, capacity: usize, shards: usize) -> ObjRef {
    let nshards = shards.max(1).next_power_of_two();
    let per_shard = capacity.max(1).div_ceil(nshards);
    // One build-time probe (not per flush, so invocation-counting tests
    // and benches see only the writebacks themselves): a backing that
    // does not export `write_limit` takes unbounded batches.
    let write_limit = backing
        .invoke("blockdev", "write_limit", &[])
        .ok()
        .and_then(|v| v.as_int().ok())
        .filter(|&n| n > 0)
        .map(|n| n as usize)
        .unwrap_or(usize::MAX);
    let shared = Arc::new(CacheShared {
        backing,
        shards: (0..nshards)
            .map(|_| TryLock::new(Shard::new(per_shard)))
            .collect(),
        shard_mask: nshards as u64 - 1,
        per_shard,
        write_limit,
        total_sectors: OnceLock::new(),
        txn_sectors: Mutex::new(HashMap::new()),
    });
    let blockdev_shared = shared.clone();
    let cache_shared = shared;
    ObjectBuilder::new("block-cache")
        .interface("blockdev", move |i| {
            let s_read = blockdev_shared.clone();
            let s_write = blockdev_shared.clone();
            let s_read_many = blockdev_shared.clone();
            let s_write_many = blockdev_shared.clone();
            let s_sectors = blockdev_shared.clone();
            let s_bd_flush = blockdev_shared.clone();
            let s_bd_barrier = blockdev_shared.clone();
            let s_begin = blockdev_shared.clone();
            let s_txn_write = blockdev_shared.clone();
            let s_commit = blockdev_shared.clone();
            let s_abort = blockdev_shared.clone();
            // Unlike the driver and the journal, the cache keeps `read`
            // and `write` apart from the batch verbs: they carry the
            // lock-once hit path and the eviction's
            // `EVICTION_WRITEBACK_BATCH` coalescing.
            i.method("read", &[TypeTag::Int], TypeTag::Bytes, move |_, args| {
                cache_read(&s_read, args[0].as_int()?)
            })
            .method(
                "write",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                move |_, args| {
                    let sector = args[0].as_int()?;
                    let incoming = args[1].as_bytes()?;
                    if incoming.len() != SECTOR_SIZE {
                        return Err(ObjError::failed(format!(
                            "sector writes must be exactly {SECTOR_SIZE} bytes"
                        )));
                    }
                    s_write.check_writable_sector(sector)?;
                    insert_line(&s_write, sector, incoming, true, true)?;
                    Ok(Value::Unit)
                },
            )
            .method(
                "read_many",
                &[TypeTag::List],
                TypeTag::List,
                move |_, args| cache_read_many(&s_read_many, args[0].as_list()?),
            )
            .method(
                "write_many",
                &[TypeTag::List],
                TypeTag::Int,
                move |_, args| {
                    let pairs = parse_pairs(&args[0])?;
                    // Validate the whole batch before caching any of it,
                    // matching the driver's no-partial-effects contract.
                    for (sector, _) in &pairs {
                        s_write_many.check_writable_sector(*sector)?;
                    }
                    cache_write_many(&s_write_many, &pairs)
                },
            )
            .method("sectors", &[], TypeTag::Int, move |_, _| {
                s_sectors.backing.invoke("blockdev", "sectors", &[])
            })
            .method("flush", &[], TypeTag::Int, move |_, _| {
                // Own dirty lines first, then the layer below — a
                // journal checkpoint must find these writes in its log
                // before it truncates (see the builder docs).
                let own = cache_flush(&s_bd_flush)?.as_int()?;
                let below = s_bd_flush
                    .backing
                    .invoke("blockdev", "flush", &[])?
                    .as_int()?;
                Ok(Value::Int(own + below))
            })
            .method("barrier", &[], TypeTag::Unit, move |_, _| {
                // Same ordering as flush: acknowledged writes living as
                // dirty lines must reach the backing store before the
                // barrier below makes "everything so far" durable.
                cache_flush(&s_bd_barrier)?;
                s_bd_barrier.backing.invoke("blockdev", "barrier", &[])
            })
            .method("begin_txn", &[], TypeTag::Int, move |_, _| {
                let v = s_begin.backing.invoke("blockdev", "begin_txn", &[])?;
                s_begin.txn_sectors.lock().insert(v.as_int()?, Vec::new());
                Ok(v)
            })
            .method(
                "txn_write",
                TXN_WRITE_PARAMS,
                TypeTag::Unit,
                move |_, args| {
                    let (txn, sector, _) = parse_txn_write(args)?;
                    s_txn_write.check_writable_sector(sector)?;
                    let out = s_txn_write.backing.invoke("blockdev", "txn_write", args)?;
                    if let Some(secs) = s_txn_write.txn_sectors.lock().get_mut(&txn) {
                        secs.push(sector);
                    }
                    Ok(out)
                },
            )
            .method("commit", &[TypeTag::Int], TypeTag::Unit, move |_, args| {
                let txn = parse_txn(&args[0])?;
                let out = s_commit.backing.invoke("blockdev", "commit", args)?;
                // The commit rewrote these sectors below us: drop stale
                // clean copies so the next read refetches.
                if let Some(secs) = s_commit.txn_sectors.lock().remove(&txn) {
                    for sec in secs {
                        s_commit.shard(sec).invalidate_clean(sec);
                    }
                }
                Ok(out)
            })
            .method("abort", &[TypeTag::Int], TypeTag::Unit, move |_, args| {
                let txn = parse_txn(&args[0])?;
                let out = s_abort.backing.invoke("blockdev", "abort", args)?;
                s_abort.txn_sectors.lock().remove(&txn);
                Ok(out)
            })
        })
        .interface("cache", move |i| {
            let s_stats = cache_shared.clone();
            let s_shard_stats = cache_shared.clone();
            let s_shards = cache_shared.clone();
            let s_flush = cache_shared.clone();
            i.method("stats", &[], TypeTag::List, move |_, _| {
                let (mut hits, mut misses, mut wb, mut resident) = (0u64, 0u64, 0u64, 0usize);
                for lock in &s_stats.shards {
                    let sh = lock.lock();
                    hits += sh.hits;
                    misses += sh.misses;
                    wb += sh.writebacks;
                    resident += sh.len();
                }
                Ok(Value::List(vec![
                    Value::Int(hits as i64),
                    Value::Int(misses as i64),
                    Value::Int(wb as i64),
                    Value::Int(resident as i64),
                ]))
            })
            .method("shard_stats", &[], TypeTag::List, move |_, _| {
                Ok(Value::List(
                    s_shard_stats
                        .shards
                        .iter()
                        .map(|lock| {
                            let sh = lock.lock();
                            Value::List(vec![
                                Value::Int(sh.hits as i64),
                                Value::Int(sh.misses as i64),
                                Value::Int(sh.writebacks as i64),
                                Value::Int(sh.len() as i64),
                            ])
                        })
                        .collect(),
                ))
            })
            .method("shards", &[], TypeTag::Int, move |_, _| {
                Ok(Value::Int(s_shards.shards.len() as i64))
            })
            .method("flush", &[], TypeTag::Int, move |_, _| {
                cache_flush(&s_flush)
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackBuilder;
    use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
    use paramecium_machine::dev::disk::SECTOR_TRANSFER_COST;
    use paramecium_machine::Machine;
    use std::sync::Arc;

    fn setup(capacity: usize) -> (Arc<MemService>, ObjRef, ObjRef) {
        setup_sharded(capacity, 1)
    }

    fn setup_sharded(capacity: usize, shards: usize) -> (Arc<MemService>, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .sharded_cache(capacity, shards)
            .build()
            .unwrap();
        (mem, stack.driver, stack.top)
    }

    fn sector_of(byte: u8) -> Value {
        Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
    }

    fn cache_stats(cache: &ObjRef) -> Vec<i64> {
        cache
            .invoke("cache", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn hot_reads_skip_the_disk() {
        let (mem, _driver, cache) = setup(8);
        cache
            .invoke("blockdev", "write", &[Value::Int(3), sector_of(7)])
            .unwrap();
        // First read: served from the (write-allocated) cache line.
        let t0 = mem.machine().lock().now();
        for _ in 0..10 {
            let v = cache.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 7);
        }
        // Ten hot reads cost less than one disk transfer.
        assert!(mem.machine().lock().now() - t0 < SECTOR_TRANSFER_COST);
        let s = cache_stats(&cache);
        assert_eq!(s[0], 10); // 10 read hits.
        assert_eq!(s[1], 1); // The initial write-allocate miss.
    }

    #[test]
    fn writeback_happens_on_eviction_only() {
        let (_mem, driver, cache) = setup(2);
        for sec in 0..2i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(sec as u8)],
                )
                .unwrap();
        }
        // Nothing on disk yet: write-back cache.
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(dstats.as_list().unwrap()[1], Value::Int(0));
        // Third write evicts the LRU line (sector 0) to disk. The eviction
        // coalesces the other dirty line (sector 1) into the same batch.
        cache
            .invoke("blockdev", "write", &[Value::Int(2), sector_of(2)])
            .unwrap();
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(dstats.as_list().unwrap()[1], Value::Int(2));
        // And the evicted data is really there.
        let v = driver.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        // Sector 1 was written back too but stays resident (now clean), so
        // a second eviction round does not rewrite it.
        let v = driver.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 1);
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let (_mem, _driver, cache) = setup(2);
        cache
            .invoke("blockdev", "write", &[Value::Int(0), sector_of(0)])
            .unwrap();
        cache
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(1)])
            .unwrap();
        // Touch 0 so 1 becomes LRU.
        cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        cache
            .invoke("blockdev", "write", &[Value::Int(2), sector_of(2)])
            .unwrap();
        // 0 still resident (hit), 1 evicted (miss).
        let before = cache_stats(&cache);
        cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        let after_hit = cache_stats(&cache);
        assert_eq!(after_hit[0], before[0] + 1);
        cache.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        let after_miss = cache_stats(&cache);
        assert_eq!(after_miss[1], after_hit[1] + 1);
    }

    #[test]
    fn flush_writes_all_dirty_lines() {
        let (_mem, driver, cache) = setup(8);
        for sec in 0..5i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0xC0 + sec as u8)],
                )
                .unwrap();
        }
        let flushed = cache.invoke("cache", "flush", &[]).unwrap();
        assert_eq!(flushed, Value::Int(5));
        for sec in 0..5i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0xC0 + sec as u8);
        }
        // Second flush is a no-op.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn flush_batches_into_one_backing_invocation() {
        let (_mem, driver, cache) = setup(512);
        for sec in 0..256i64 {
            cache
                .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
                .unwrap();
        }
        let before = driver.invocation_count();
        assert_eq!(
            cache.invoke("cache", "flush", &[]).unwrap(),
            Value::Int(256)
        );
        // 256 dirty sectors, ONE vectorized backing call.
        assert_eq!(driver.invocation_count() - before, 1);
    }

    #[test]
    fn caches_stack_like_any_blockdev() {
        let (_mem, _driver, l2) = setup(16);
        let l1 = StackBuilder::on(l2.clone()).cache(4).build().unwrap().top;
        l1.invoke("blockdev", "write", &[Value::Int(9), sector_of(0x99)])
            .unwrap();
        let v = l1.invoke("blockdev", "read", &[Value::Int(9)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x99);
        // Vectorized ops stack too (L1 eviction/flush land in L2 batched).
        l1.invoke("cache", "flush", &[]).unwrap();
        let v = l2.invoke("blockdev", "read", &[Value::Int(9)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x99);
    }

    #[test]
    fn read_through_miss_populates_from_disk() {
        let (_mem, driver, cache) = setup(4);
        driver
            .invoke("blockdev", "write", &[Value::Int(7), sector_of(0x42)])
            .unwrap();
        let v = cache.invoke("blockdev", "read", &[Value::Int(7)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x42);
        // Now it hits.
        cache.invoke("blockdev", "read", &[Value::Int(7)]).unwrap();
        let s = cache_stats(&cache);
        assert_eq!(s[0], 1);
        assert_eq!(s[1], 1);
    }

    #[test]
    fn capacity_is_never_exceeded_even_transiently() {
        // Evict-before-insert: drive a working set far over capacity and
        // check residency after every single operation.
        for shards in [1usize, 4] {
            let (_mem, _driver, cache) = setup_sharded(8, shards);
            for round in 0..3 {
                for sec in 0..32i64 {
                    cache
                        .invoke(
                            "blockdev",
                            "write",
                            &[Value::Int(sec), sector_of(round as u8)],
                        )
                        .unwrap();
                    let resident = cache_stats(&cache)[3];
                    assert!(
                        resident <= 8,
                        "resident {resident} exceeds capacity 8 (shards={shards})"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_cache_spreads_lines_and_aggregates_stats() {
        let (_mem, _driver, cache) = setup_sharded(16, 4);
        assert_eq!(cache.invoke("cache", "shards", &[]).unwrap(), Value::Int(4));
        for sec in 0..8i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(sec as u8)],
                )
                .unwrap();
        }
        // 8 sectors round-robin over 4 shards: two lines per shard.
        let per_shard = cache.invoke("cache", "shard_stats", &[]).unwrap();
        let per_shard = per_shard.as_list().unwrap();
        assert_eq!(per_shard.len(), 4);
        for sh in per_shard {
            let sh = sh.as_list().unwrap();
            assert_eq!(sh[3], Value::Int(2), "each shard holds 2 lines");
        }
        let s = cache_stats(&cache);
        assert_eq!(s[1], 8, "aggregated misses");
        assert_eq!(s[3], 8, "aggregated resident");
        // Hits land in the right shard and still aggregate.
        for sec in 0..8i64 {
            let v = cache
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], sec as u8);
        }
        assert_eq!(cache_stats(&cache)[0], 8);
    }

    #[test]
    fn vectorized_reads_hit_and_batch_fill() {
        let (_mem, driver, cache) = setup(16);
        for sec in 0..6i64 {
            driver
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0x10 + sec as u8)],
                )
                .unwrap();
        }
        // Warm two of six.
        cache.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
        let before = driver.invocation_count();
        let out = cache
            .invoke(
                "blockdev",
                "read_many",
                &[sectors_arg([5, 1, 0, 4, 2, 3, 1])],
            )
            .unwrap();
        let out = out.as_list().unwrap();
        assert_eq!(out.len(), 7);
        for (v, sec) in out.iter().zip([5i64, 1, 0, 4, 2, 3, 1]) {
            assert_eq!(v.as_bytes().unwrap()[0], 0x10 + sec as u8);
        }
        // The four distinct misses were fetched in ONE backing call.
        assert_eq!(driver.invocation_count() - before, 1);
        // Everything resident now: a repeat is pure hits, zero backing.
        let before = driver.invocation_count();
        cache
            .invoke("blockdev", "read_many", &[sectors_arg(0..6)])
            .unwrap();
        assert_eq!(driver.invocation_count(), before);
    }

    #[test]
    fn vectorized_writes_populate_dirty_lines() {
        let (_mem, driver, cache) = setup(16);
        let pairs: Vec<(i64, Bytes)> = (0..5i64)
            .map(|sec| (sec, Bytes::from(vec![0xA0 + sec as u8; SECTOR_SIZE])))
            .collect();
        let n = cache
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap();
        assert_eq!(n, Value::Int(5));
        // Write-back: nothing on disk until flush.
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(dstats.as_list().unwrap()[1], Value::Int(0));
        cache.invoke("cache", "flush", &[]).unwrap();
        for sec in 0..5i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0xA0 + sec as u8);
        }
    }

    #[test]
    fn unwritable_sectors_are_rejected_before_caching() {
        // A sector the backing store can never write must not become a
        // dirty line: it would poison every later all-or-nothing
        // writeback batch and wedge flush forever.
        let (_mem, driver, cache) = setup(8);
        let total = driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(cache
            .invoke("blockdev", "write", &[Value::Int(-1), sector_of(1)])
            .is_err());
        assert!(cache
            .invoke("blockdev", "write", &[Value::Int(total), sector_of(1)])
            .is_err());
        // A batch containing one bad pair caches nothing.
        let good = bytes::Bytes::from(vec![1u8; SECTOR_SIZE]);
        assert!(cache
            .invoke(
                "blockdev",
                "write_many",
                &[pairs_arg([(0, good.clone()), (total, good)])]
            )
            .is_err());
        assert_eq!(cache_stats(&cache)[3], 0, "nothing resident");
        // The cache still works: a valid write and flush succeed.
        cache
            .invoke("blockdev", "write", &[Value::Int(0), sector_of(3)])
            .unwrap();
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn blockdev_flush_and_barrier_drain_dirty_lines_first() {
        let (_mem, driver, cache) = setup(8);
        cache
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xF1)])
            .unwrap();
        // blockdev flush = own dirty lines + whatever the layer below
        // homes (the bare driver homes nothing).
        let flushed = cache
            .invoke("blockdev", "flush", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(flushed, 1);
        let v = driver.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xF1);
        // Barrier also pushes acknowledged writes down before ordering.
        cache
            .invoke("blockdev", "write", &[Value::Int(2), sector_of(0xF2)])
            .unwrap();
        cache.invoke("blockdev", "barrier", &[]).unwrap();
        let v = driver.invoke("blockdev", "read", &[Value::Int(2)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xF2);
    }

    #[test]
    fn forwarded_commit_invalidates_stale_clean_lines() {
        use crate::vectored::{txn_arg, txn_write_args};
        let (_mem, driver, cache) = setup(8);
        // Warm a clean line for sector 4 from the driver's zeroes.
        let v = cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        // Rewrite sector 4 through a forwarded transaction.
        let txn = cache
            .invoke("blockdev", "begin_txn", &[])
            .unwrap()
            .as_int()
            .unwrap();
        cache
            .invoke(
                "blockdev",
                "txn_write",
                &txn_write_args(txn, 4, Bytes::from(vec![0x44; SECTOR_SIZE])),
            )
            .unwrap();
        // Before commit: the clean line still serves the old data and
        // the driver is untouched.
        let v = cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        cache.invoke("blockdev", "commit", &txn_arg(txn)).unwrap();
        // After commit: the stale line was invalidated, so the read
        // refetches the committed data.
        let v = driver.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x44);
        let v = cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x44);
        // Aborted transactions change nothing and clean up tracking.
        let t2 = cache
            .invoke("blockdev", "begin_txn", &[])
            .unwrap()
            .as_int()
            .unwrap();
        cache
            .invoke(
                "blockdev",
                "txn_write",
                &txn_write_args(t2, 5, Bytes::from(vec![0x55; SECTOR_SIZE])),
            )
            .unwrap();
        cache.invoke("blockdev", "abort", &txn_arg(t2)).unwrap();
        let v = cache.invoke("blockdev", "read", &[Value::Int(5)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
    }

    #[test]
    fn flush_chunks_to_the_backing_write_limit() {
        // Regression: flush used to send every dirty line as ONE
        // write_many. Under a journal that is a single log transaction,
        // so any dirty set larger than the log's capacity failed — and
        // since failed flushes leave lines dirty, durability wedged
        // permanently. The cache must chunk to the probed write_limit.
        use crate::JournalConfig;
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig { log_sectors: 8 }) // 6-sector txn limit
            .cache(16)
            .build()
            .unwrap();
        let j = stack.journal.as_ref().unwrap();
        assert_eq!(
            j.invoke("blockdev", "write_limit", &[]).unwrap(),
            Value::Int(6)
        );
        for sec in 0..10i64 {
            stack
                .top
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0x90 + sec as u8)],
                )
                .unwrap();
        }
        // 10 dirty lines > the 6-sector limit: the flush must split into
        // two journal transactions instead of failing one oversized one.
        assert_eq!(
            stack.top.invoke("cache", "flush", &[]).unwrap(),
            Value::Int(10)
        );
        let s = j.invoke("journal", "stats", &[]).unwrap();
        let s = s.as_list().unwrap();
        assert_eq!(s[0], Value::Int(2), "two chunked commits");
        // Nothing left dirty, and a full-stack flush homes everything.
        assert_eq!(
            stack.top.invoke("cache", "flush", &[]).unwrap(),
            Value::Int(0)
        );
        stack.top.invoke("blockdev", "flush", &[]).unwrap();
        for sec in 0..10i64 {
            let v = stack
                .driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0x90 + sec as u8);
        }
    }

    #[test]
    fn eviction_coalesces_cold_dirty_lines() {
        // Capacity 4, all dirty; one more write evicts the LRU victim and
        // takes the other dirty lines (≤ batch limit) with it in a single
        // backing invocation.
        let (_mem, driver, cache) = setup(4);
        for sec in 0..4i64 {
            cache
                .invoke("blockdev", "write", &[Value::Int(sec), sector_of(9)])
                .unwrap();
        }
        let before = driver.invocation_count();
        cache
            .invoke("blockdev", "write", &[Value::Int(4), sector_of(9)])
            .unwrap();
        assert_eq!(
            driver.invocation_count() - before,
            1,
            "victim + coalesced extras must share one backing call"
        );
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(
            dstats.as_list().unwrap()[1],
            Value::Int(4),
            "all four dirty lines written in the batch"
        );
        // The survivors are clean now: flush has nothing left but the
        // newly written sector 4.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(1));
    }
}
