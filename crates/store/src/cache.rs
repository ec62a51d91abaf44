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
//! # Architecture
//!
//! The cache is a sharded pipeline. A certified component is reviewed
//! by hand, so each of its jobs is written once:
//!
//! - **Sharding.** Lines are partitioned `N` ways by sector
//!   (`sector % N`). Each shard owns an independent index, LRU list and
//!   hit/miss/writeback counters; the `cache` interface aggregates them.
//!   One object still exports `blockdev`, so interposition and
//!   certification are unchanged.
//! - **O(1) LRU.** Each shard keeps its lines in a slot arena threaded
//!   with an index-based intrusive doubly-linked list (no unsafe, no
//!   per-node allocation): touch, insert and evict are all O(1).
//! - **Zero-copy hits.** Lines store [`bytes::Bytes`]; a hit returns a
//!   ref-counted clone of the resident buffer. `read` and `write` hits
//!   take one shard lock and return.
//! - **One insertion path.** Everything else goes through
//!   `make_resident`, which makes a batch of `(sector, data)` pairs
//!   resident in one of two modes: *write* (a client write: overwrite or
//!   insert the line dirty, counting a hit or a miss) or *fill* (data
//!   fetched for a read miss: insert the line clean if absent, count
//!   nothing). It plans each shard's demand without a lock, evicts
//!   through `Shard::evict_for`, writes the dirty victims back through
//!   `write_back`, and only then applies the batch. `write_many` and a
//!   `write` miss run it in write mode; `read_many` and a `read` miss
//!   fetch through the backing `read_many` and run it in fill mode.
//! - **Coalesced writeback.** Dirty victims leave in one sector-sorted
//!   (elevator-order) `write_many`, together with up to
//!   [`EVICTION_WRITEBACK_BATCH`] − victims cold dirty lines of the same
//!   shard, so write-heavy scans retire their writeback debt in bursts.
//!   `flush` sends every dirty line through the same helper. Each batch
//!   is chunked to the backing's `write_limit`.
//! - **Durability.** Dirty lines are marked clean only *after* the
//!   backing write succeeds, checked against a per-line version so a
//!   line rewritten while its writeback was in flight stays dirty. A
//!   failed backing write loses nothing: resident lines stay dirty and
//!   evicted victims are put back.
//! - **No partial batches.** Eviction and its writeback finish before
//!   any pair is applied, so a failed `write_many` leaves the cache
//!   unchanged. A batch with more distinct sectors in one shard than the
//!   shard holds bypasses the cache: a write streams through to the
//!   backing store (refreshing resident lines as clean), a fill is
//!   returned uncached.
//! - **Strict capacity.** Eviction happens *before* insertion, so the
//!   cache never holds more than `capacity` lines, even transiently.
//! - **Per-shard locking.** Each shard sits behind its own spin
//!   [`TryLock`] instead of the object's exclusive instance state, so
//!   concurrent clients on real OS threads (the world pool) proceed in
//!   parallel on disjoint shards. Uncontended acquisition is one atomic
//!   swap, and no lock is ever held across a backing-store invocation.
//!   Multi-shard operations lock one shard at a time: under concurrency
//!   they are atomic per shard, not across the cache (single-client
//!   behaviour is unchanged).

use std::borrow::Borrow;
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

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Most dirty lines one eviction writeback will coalesce from a shard
/// (its victims plus opportunistic extras from the cold end of the LRU
/// list). Bounded so a single miss never turns into an unbounded flush.
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

/// A dirty line on its way to the backing store: `(sector, data,
/// version)`, where `version` is `None` for an evicted victim and the
/// line's version for one that stays resident.
type Dirty = (i64, Bytes, Option<u64>);

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

    /// Replaces the data of the resident line in slot `idx` under a fresh
    /// version and moves it to the MRU end.
    fn overwrite(&mut self, idx: u32, data: Bytes, dirty: bool) {
        let version = self.next_version();
        let line = &mut self.slots[idx as usize];
        line.data = data;
        line.dirty = dirty;
        line.version = version;
        self.touch(idx);
    }

    /// Unlinks and frees slot `idx`, returning its `(sector, data, dirty)`.
    fn remove(&mut self, idx: u32) -> (i64, Bytes, bool) {
        self.unlink(idx);
        self.free.push(idx);
        let line = &mut self.slots[idx as usize];
        self.map.remove(&line.sector);
        (line.sector, std::mem::take(&mut line.data), line.dirty)
    }

    /// Evicts from the LRU end until every sector of `sectors` (distinct,
    /// sorted, all owned by this shard) fits. Evicting one of `sectors`
    /// itself only turns it back into demand. Dirty victims go to `out`,
    /// followed — if there were any — by up to
    /// [`EVICTION_WRITEBACK_BATCH`] − victims cold dirty lines that stay
    /// resident, so they share the victims' backing write.
    fn evict_for(&mut self, sectors: &[i64], out: &mut Vec<Dirty>) {
        debug_assert!(sectors.len() <= self.capacity);
        // Demand is at most `sectors.len()`: with that much room free, no
        // line needs to go, and the apply pass skips the index lookups.
        if self.len() + sectors.len() <= self.capacity {
            return;
        }
        let mut need = sectors
            .iter()
            .filter(|sec| !self.map.contains_key(sec))
            .count();
        let mut victims = 0;
        while self.len() + need > self.capacity {
            let (sec, data, dirty) = self.remove(self.tail);
            if sectors.binary_search(&sec).is_ok() {
                need += 1;
            }
            if dirty {
                out.push((sec, data, None));
                victims += 1;
            }
        }
        if victims > 0 {
            self.dirty_from_lru(EVICTION_WRITEBACK_BATCH.saturating_sub(victims), out);
        }
    }

    /// Snapshots up to `max` dirty lines starting from the LRU end into
    /// `out`, without clearing their dirty bits (that happens only after
    /// the backing write succeeds, version-checked).
    fn dirty_from_lru(&self, max: usize, out: &mut Vec<Dirty>) {
        let mut idx = self.tail;
        let mut taken = 0;
        while idx != NIL && taken < max {
            let l = &self.slots[idx as usize];
            if l.dirty {
                out.push((l.sector, l.data.clone(), Some(l.version)));
                taken += 1;
            }
            idx = self.links[idx as usize].0;
        }
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

    /// Drops `sector`'s line, clean or dirty. Used when a committed
    /// transaction rewrote the sector below the cache: the commit is
    /// later than any write the line holds, so the resident copy is stale
    /// — serving it would hide the committed data and writing it back
    /// would overwrite it.
    fn invalidate(&mut self, sector: i64) {
        if let Some(&idx) = self.map.get(&sector) {
            self.remove(idx);
        }
    }
}

/// Shared cache instance: the backing `blockdev`, the shard array — each
/// shard behind its own spin lock — and the lazily fetched device size.
///
/// Every method closure captures this as an `Arc`, bypassing the object's
/// exclusive instance state entirely: two clients touching different
/// shards never serialize, which is what lets one shared cache serve many
/// concurrent worlds (the world pool) without a global lock. The one
/// semantic narrowing under *concurrent* clients: multi-shard operations
/// (`read_many`, `write_many`, `flush`, `stats`) lock one shard at a
/// time, so they are atomic per shard rather than across the whole cache.
struct CacheShared {
    backing: ObjRef,
    /// Always a power-of-two length so routing is a mask, not a divide.
    shards: Vec<TryLock<Shard>>,
    shard_mask: u64,
    /// Per-shard line capacity (uniform across shards), readable without
    /// any lock for batch planning.
    per_shard: usize,
    /// Largest batch the backing store accepts as one `write_many` —
    /// a journal below bounds it by its log capacity (its `write_limit`
    /// method); a backing without the method is unbounded
    /// (`usize::MAX`). Probed once at build time. Every writeback is
    /// chunked to this, so a flush of more dirty lines than one journal
    /// transaction can carry degrades into several transactions instead
    /// of an unservable oversized one that would leave the lines dirty
    /// forever.
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

/// Writes dirty `lines` back in sector order, as `write_many` calls of at
/// most `write_limit` lines each. Writeback needs every sector durable,
/// not one atomic unit, so the split weakens no guarantee. Each landed
/// line counts one writeback in its shard, and a resident one is marked
/// clean unless it changed since its snapshot. If a chunk fails, the
/// victims not yet written are put back (their slots are still free
/// unless a concurrent client took them) and the error surfaces:
/// acknowledged data is never dropped.
fn write_back(shared: &CacheShared, mut lines: Vec<Dirty>) -> ObjResult<()> {
    lines.sort_unstable_by_key(|(sec, _, _)| *sec);
    let mut landed = 0;
    while landed < lines.len() {
        let end = lines.len().min(landed.saturating_add(shared.write_limit));
        let chunk = lines[landed..end].iter().map(|(s, d, _)| (*s, d.clone()));
        if let Err(e) = shared
            .backing
            .invoke("blockdev", "write_many", &[pairs_arg(chunk)])
        {
            for (sec, data, _) in lines.drain(landed..).filter(|l| l.2.is_none()) {
                let mut sh = shared.shard(sec);
                if !sh.map.contains_key(&sec) && sh.len() < sh.capacity {
                    sh.insert(sec, data, true);
                }
            }
            return Err(e);
        }
        for (sec, _, version) in &lines[landed..end] {
            let mut sh = shared.shard(*sec);
            sh.writebacks += 1;
            if let Some(version) = version {
                sh.mark_clean_if_unchanged(*sec, *version);
            }
        }
        landed = end;
    }
    Ok(())
}

/// How [`make_resident`] applies each pair.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A client write: overwrite or insert the line dirty, counting a
    /// hit or a miss.
    Write,
    /// Data fetched for a read miss: insert the line clean if absent,
    /// count nothing. A resident line is newer than the fetch and is
    /// left untouched.
    Fill,
}

/// Makes every `(sector, data)` pair resident — the cache's one insertion
/// path. In order:
///
/// 1. plan each shard's distinct sectors, without a lock;
/// 2. evict from each shard ([`Shard::evict_for`]);
/// 3. write the dirty victims and their coalesced extras back
///    ([`write_back`]) — on failure nothing of the batch is applied;
/// 4. apply the batch, one shard lock at a time.
///
/// For a single client step 4 finds room everywhere. A concurrent client
/// that refilled a shard in between is evicted again under the apply's
/// lock, and what it displaces is written back afterwards. A batch with
/// more distinct sectors in one shard than the shard holds bypasses the
/// cache: a write streams through, refreshing resident lines as clean,
/// and a fill is left uncached.
fn make_resident<B: Borrow<Bytes>>(
    shared: &CacheShared,
    pairs: &[(i64, B)],
    mode: Mode,
) -> ObjResult<()> {
    // Batches of up to 8 sectors, every single-sector miss among them,
    // plan on the stack: a heap plan costs a write miss about 5 %.
    let mut stack = [0i64; 8];
    let mut heap = Vec::new();
    let plan: &mut [i64] = if pairs.len() <= stack.len() {
        &mut stack[..pairs.len()]
    } else {
        heap.resize(pairs.len(), 0);
        &mut heap
    };
    for (slot, (sec, _)) in plan.iter_mut().zip(pairs) {
        *slot = *sec;
    }
    plan.sort_unstable_by_key(|&sec| (shared.shard_of(sec), sec));
    let mut distinct = 0;
    for i in 0..plan.len() {
        if distinct == 0 || plan[i] != plan[distinct - 1] {
            plan[distinct] = plan[i];
            distinct += 1;
        }
    }
    let plan = &plan[..distinct];
    let same_shard = |a: &i64, b: &i64| shared.shard_of(*a) == shared.shard_of(*b);
    if plan
        .chunk_by(same_shard)
        .any(|group| group.len() > shared.per_shard)
    {
        if mode == Mode::Write {
            // A stable sort keeps duplicate sectors in batch order, so
            // the last write of a sector still lands last.
            let mut batch: Vec<(i64, Bytes)> = pairs
                .iter()
                .map(|(sec, data)| (*sec, data.borrow().clone()))
                .collect();
            batch.sort_by_key(|(sec, _)| *sec);
            for chunk in batch.chunks(shared.write_limit) {
                shared
                    .backing
                    .invoke("blockdev", "write_many", &[pairs_arg(chunk.to_vec())])?;
            }
            for (sec, data) in pairs {
                let mut sh = shared.shard(*sec);
                if let Some(&idx) = sh.map.get(sec) {
                    sh.overwrite(idx, data.borrow().clone(), false);
                }
            }
        }
        return Ok(());
    }
    let mut victims = Vec::new();
    for group in plan.chunk_by(same_shard) {
        shared.shard(group[0]).evict_for(group, &mut victims);
    }
    write_back(shared, victims)?;
    let mut displaced = Vec::new();
    for group in plan.chunk_by(same_shard) {
        let shard = shared.shard_of(group[0]);
        let mut sh = shared.shards[shard].lock();
        sh.evict_for(group, &mut displaced);
        for (sec, data) in pairs.iter().filter(|(s, _)| shared.shard_of(*s) == shard) {
            match sh.map.get(sec).copied() {
                Some(idx) if mode == Mode::Write => {
                    sh.hits += 1;
                    sh.overwrite(idx, data.borrow().clone(), true);
                }
                Some(_) => {}
                None => {
                    if mode == Mode::Write {
                        sh.misses += 1;
                    }
                    sh.insert(*sec, data.borrow().clone(), mode == Mode::Write);
                }
            }
        }
    }
    write_back(shared, displaced)
}

/// Fetches `sectors` (sorted, distinct) with one backing `read_many` and
/// fills them in, returning the fetched `(sector, data)` pairs in order.
/// (Negative sectors reach the backing store too and are rejected by its
/// own validation.)
fn fetch(shared: &CacheShared, sectors: &[i64]) -> ObjResult<Vec<(i64, Bytes)>> {
    let fetched = shared.backing.invoke(
        "blockdev",
        "read_many",
        &[sectors_arg(sectors.iter().copied())],
    )?;
    let list = fetched.as_list()?;
    if list.len() != sectors.len() {
        return Err(ObjError::failed("backing read_many returned a short batch"));
    }
    let pairs = sectors
        .iter()
        .zip(list)
        .map(|(&sec, v)| {
            let data = v.as_bytes()?.clone();
            if data.len() != SECTOR_SIZE {
                return Err(ObjError::failed("backing store returned a short sector"));
            }
            Ok((sec, data))
        })
        .collect::<ObjResult<Vec<_>>>()?;
    make_resident(shared, &pairs, Mode::Fill)?;
    Ok(pairs)
}

fn cache_read(shared: &CacheShared, sector: i64) -> ObjResult<Value> {
    {
        let mut sh = shared.shard(sector);
        if let Some(idx) = sh.map.get(&sector).copied() {
            sh.hits += 1;
            sh.touch(idx);
            return Ok(Value::Bytes(sh.slots[idx as usize].data.clone()));
        }
        sh.misses += 1;
    }
    let (_, data) = fetch(shared, &[sector])?.remove(0);
    Ok(Value::Bytes(data))
}

fn cache_write(shared: &CacheShared, sector: i64, data: &Bytes) -> ObjResult<Value> {
    {
        let mut sh = shared.shard(sector);
        if let Some(idx) = sh.map.get(&sector).copied() {
            sh.hits += 1;
            sh.overwrite(idx, data.clone(), true);
            return Ok(Value::Unit);
        }
    }
    make_resident(shared, &[(sector, data)], Mode::Write)?;
    Ok(Value::Unit)
}

fn cache_read_many(shared: &CacheShared, sectors: &[Value]) -> ObjResult<Value> {
    // Hits resolve to a zero-copy clone immediately, misses leave a
    // `Unit` placeholder for the one backing fetch below.
    let mut results: Vec<Value> = Vec::with_capacity(sectors.len());
    let mut missing: Vec<i64> = Vec::new();
    {
        // Take every shard guard up front, in ascending index order —
        // the one multi-lock site in the cache, and every other path
        // holds at most one shard at a time, so no acquisition cycle can
        // form. The whole batch pays `nshards` uncontended atomic swaps,
        // not one per sector. Guards drop before the miss path runs, so
        // no shard lock is held across a backing invocation.
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
        missing.sort_unstable();
        missing.dedup();
        let fetched = fetch(shared, &missing)?;
        for (slot, v) in results.iter_mut().zip(sectors) {
            if matches!(slot, Value::Unit) {
                let sec = v.as_int()?;
                let at = fetched
                    .binary_search_by_key(&sec, |(s, _)| *s)
                    .expect("every miss was fetched");
                *slot = Value::Bytes(fetched[at].1.clone());
            }
        }
    }
    Ok(Value::List(results))
}

/// Writes every dirty line back, returning how many there were. A
/// journal below takes each `write_limit` chunk as one log transaction,
/// and lines are marked clean per landed chunk, so a failure mid-flush
/// leaves exactly the unwritten lines dirty for the retry.
fn cache_flush(shared: &CacheShared) -> ObjResult<Value> {
    let mut dirty = Vec::new();
    for lock in &shared.shards {
        lock.lock().dirty_from_lru(usize::MAX, &mut dirty);
    }
    let n = dirty.len() as i64;
    write_back(shared, dirty)?;
    Ok(Value::Int(n))
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
///   never becomes cache lines); a successful `commit` drops the
///   resident lines of the written sectors, clean or dirty.
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
            // `read` and `write` answer a hit under one shard lock; a
            // miss runs the batch path with one sector.
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
                    cache_write(&s_write, sector, incoming)
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
                    make_resident(&s_write_many, &pairs, Mode::Write)?;
                    Ok(Value::Int(pairs.len() as i64))
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
                // The commit rewrote these sectors below us, later than
                // any write a resident line holds: drop those lines so
                // the next read refetches the committed data.
                if let Some(secs) = s_commit.txn_sectors.lock().remove(&txn) {
                    for sec in secs {
                        s_commit.shard(sec).invalidate(sec);
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
    fn forwarded_commit_supersedes_dirty_lines() {
        // A dirty line written before a transaction commits to the same
        // sector is older than the commit: the cache must serve, and
        // never write back over, the committed data — as the raw driver
        // and the journal do.
        use crate::vectored::{txn_arg, txn_write_args};
        let (_mem, driver, cache) = setup(8);
        cache
            .invoke("blockdev", "write", &[Value::Int(5), sector_of(0xaa)])
            .unwrap();
        let txn = cache
            .invoke("blockdev", "begin_txn", &[])
            .unwrap()
            .as_int()
            .unwrap();
        cache
            .invoke(
                "blockdev",
                "txn_write",
                &txn_write_args(txn, 5, Bytes::from(vec![0xbb; SECTOR_SIZE])),
            )
            .unwrap();
        cache.invoke("blockdev", "commit", &txn_arg(txn)).unwrap();
        let v = cache.invoke("blockdev", "read", &[Value::Int(5)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xbb, "read after commit");
        cache.invoke("blockdev", "flush", &[]).unwrap();
        let v = driver.invoke("blockdev", "read", &[Value::Int(5)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xbb, "disk after flush");
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

    #[test]
    fn write_many_eviction_coalesces_cold_dirty_lines() {
        // The batch path follows the same rule as a single-sector miss:
        // its two dirty victims take the shard's other dirty lines along
        // in one backing call.
        let (_mem, driver, cache) = setup(4);
        for sec in 0..4i64 {
            cache
                .invoke("blockdev", "write", &[Value::Int(sec), sector_of(9)])
                .unwrap();
        }
        let before = driver.invocation_count();
        let pairs = [4i64, 5].map(|sec| (sec, Bytes::from(vec![0x50; SECTOR_SIZE])));
        cache
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap();
        assert_eq!(driver.invocation_count() - before, 1, "one backing call");
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(
            dstats.as_list().unwrap()[1],
            Value::Int(4),
            "two victims and two coalesced extras written"
        );
        assert_eq!(cache_stats(&cache)[2], 4, "four writebacks counted");
        // Only the batch itself is left dirty.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(2));
    }

    #[test]
    fn oversized_read_many_fill_bypasses_the_cache() {
        // 16 distinct misses over four 2-line shards: more than any shard
        // holds, so the fetched data is returned without being cached.
        let (_mem, driver, cache) = setup_sharded(8, 4);
        for sec in 0..16i64 {
            driver
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0x20 + sec as u8)],
                )
                .unwrap();
        }
        cache
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(0x77)])
            .unwrap();
        let out = cache
            .invoke("blockdev", "read_many", &[sectors_arg(0..16)])
            .unwrap();
        for (sec, v) in out.as_list().unwrap().iter().enumerate() {
            let want = if sec == 1 { 0x77 } else { 0x20 + sec as u8 };
            assert_eq!(v.as_bytes().unwrap()[0], want, "sector {sec}");
        }
        let s = cache_stats(&cache);
        assert_eq!(
            (s[0], s[1]),
            (1, 16),
            "one read hit; fifteen read misses and the write miss"
        );
        assert_eq!(s[3], 1, "only the dirty line stays resident");
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(1));
    }
}
