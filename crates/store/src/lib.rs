//! Storage components: a three-layer crash-safe store stack.
//!
//! The paper names "shared caches" among the "certified kernel components
//! … shared between multiple non-cooperating users" (section 4) — the
//! canonical example of a component that *must* be trusted rather than
//! sandboxed, because it holds other users' data in its hands. This
//! crate grows that example into a full storage stack in which every
//! layer is such a component, stacked by the paper's signature idiom:
//! transparent interposition through a shared named interface.
//!
//! ```text
//! clients → [cache] → [journal] → driver → disk device
//! ```
//!
//! - [`driver`] — the disk driver object over the machine's
//!   sector-addressed disk, with per-sector transfer costs, amortised
//!   batch charging, and crash-injection-aware write paths (a simulated
//!   power failure mid-batch leaves a torn sector behind),
//! - [`journal`] — a write-ahead journal: checksummed, epoch-tagged log
//!   records in a reserved disk region, leader/rider group commit,
//!   atomic multi-sector transactions, and idempotent mount-time
//!   recovery with committed-prefix semantics,
//! - [`cache`] — a sharded write-back LRU block cache: O(1) intrusive
//!   LRU per shard, zero-copy one-lock hits, one insertion path shared
//!   by writes and read fills (evict, write dirty victims back with
//!   coalesced cold dirty lines, then apply), per-shard locking for
//!   concurrent clients,
//! - [`stack`] — [`StackBuilder`], the one way to assemble the layers
//!   (each optional, fixed order),
//! - [`vectored`] — the shared codec for vectorized and transactional
//!   `blockdev` arguments.
//!
//! # The `blockdev` interface
//!
//! Every layer exports the same interface, which is what lets any of
//! them interpose on any other. The full method set (`write_limit` and
//! `stats` live only in the one layer that counts them):
//!
//! | method | signature | semantics |
//! |---|---|---|
//! | `read` | `(sector: int) -> bytes` | one 512-byte sector |
//! | `write` | `(sector: int, data: bytes) -> unit` | one sector; durable-by-return under a journal |
//! | `read_many` | `(sectors: list[int]) -> list[bytes]` | one batched request, results in request order |
//! | `write_many` | `(pairs: list[[int, bytes]]) -> int` | one batched request; atomic under a journal |
//! | `sectors` | `() -> int` | client-visible device size |
//! | `write_limit` | `() -> int` | largest `write_many` batch accepted as one atomic unit (journal only; layers without the method are unbounded) |
//! | `stats` | `() -> list` | `[reads, writes]` sectors transferred (driver only; reach it through [`StoreStack::driver`]) |
//! | `flush` | `() -> int` | push all volatile/logged state to home locations (cache writeback, journal checkpoint); returns sectors homed |
//! | `barrier` | `() -> unit` | ordering point: everything acknowledged before the call is durable when it returns |
//! | `begin_txn` | `() -> int` | open a transaction, returning its handle |
//! | `txn_write` | `(txn: int, sector: int, data: bytes) -> unit` | buffer one write into an open transaction |
//! | `commit` | `(txn: int) -> unit` | apply the transaction atomically (crash-atomic under a journal) |
//! | `abort` | `(txn: int) -> unit` | drop an open transaction without effects |
//!
//! Only the journal makes `commit` atomic against power failure; the
//! bare driver's transactions are volatile buffers (atomic against
//! validation errors only) and the cache forwards the verbs downward.
//! Encode/decode the arguments with [`vectored`]'s typed helpers — no
//! hand-rolled packing at call sites.

pub mod cache;
pub mod driver;
pub mod journal;
pub mod retry;
pub mod stack;
pub mod vectored;

pub use cache::EVICTION_WRITEBACK_BATCH;
pub use journal::{mount_journal, JournalConfig};
pub use retry::{make_retry, RetryConfig};
pub use stack::{StackBuilder, StoreStack};
