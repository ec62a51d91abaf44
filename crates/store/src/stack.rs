//! [`StackBuilder`] — the one way to assemble a store stack.
//!
//! Hand-wiring the layers would make every call site learn the
//! journal's mount story, so the store is assembled by a builder over
//! the fixed layering
//!
//! ```text
//! driver  →  retry (optional)  →  journal (optional)  →  cache (optional)
//! ```
//!
//! where every layer exports `blockdev` and each optional layer is one
//! builder call.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use parking_lot::Mutex;
//! # use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
//! # use paramecium_machine::Machine;
//! use paramecium_store::{JournalConfig, StackBuilder};
//!
//! # let mem = Arc::new(MemService::new(Arc::new(Mutex::new(Machine::new()))));
//! let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
//!     .journal(JournalConfig::default())
//!     .sharded_cache(256, 4)
//!     .build()?;
//! stack.top.invoke("blockdev", "read", &[paramecium_obj::Value::Int(0)])?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use paramecium_core::{domain::DomainId, memsvc::MemService, CoreError, CoreResult};
use paramecium_obj::ObjRef;

use crate::cache::build_sharded_block_cache;
use crate::driver::build_disk_driver;
use crate::journal::{mount_journal, JournalConfig};
use crate::retry::{make_retry, RetryConfig};

/// What the stack stands on.
#[derive(Clone)]
enum Base {
    /// Build the disk driver for this domain (claiming the device).
    Disk {
        mem: Arc<MemService>,
        domain: DomainId,
    },
    /// Stack on an existing `blockdev` object (another stack's top, a
    /// test double, an interposer…).
    Object(ObjRef),
}

/// Layered constructor for the store stack. See the
/// [module docs](self) for the shape and an example.
#[derive(Clone)]
pub struct StackBuilder {
    base: Base,
    retry: Option<RetryConfig>,
    journal: Option<JournalConfig>,
    cache: Option<(usize, usize)>,
}

/// A built stack: the top object clients should bind, plus each layer
/// for tests and interposers that need to reach around.
pub struct StoreStack {
    /// The object to hand to clients (the highest layer built).
    pub top: ObjRef,
    /// The bottom `blockdev` (the disk driver, or the base object).
    pub driver: ObjRef,
    /// The retry interposer, when one was requested.
    pub retry: Option<ObjRef>,
    /// The journal layer, when one was requested.
    pub journal: Option<ObjRef>,
    /// The cache layer, when one was requested.
    pub cache: Option<ObjRef>,
}

impl StackBuilder {
    /// Starts a stack on the machine's disk: the bottom layer will be
    /// the disk driver, built for `domain`.
    pub fn disk(mem: &Arc<MemService>, domain: DomainId) -> Self {
        StackBuilder {
            base: Base::Disk {
                mem: mem.clone(),
                domain,
            },
            retry: None,
            journal: None,
            cache: None,
        }
    }

    /// Starts a stack on an existing `blockdev` object.
    pub fn on(base: ObjRef) -> Self {
        StackBuilder {
            base: Base::Object(base),
            retry: None,
            journal: None,
            cache: None,
        }
    }

    /// Adds the transient-fault retry interposer directly above the disk
    /// driver (see [`crate::retry`]). Only disk-based stacks can take
    /// one: the backoff sleeps on the machine's virtual clock.
    pub fn retry(mut self, cfg: RetryConfig) -> Self {
        self.retry = Some(cfg);
        self
    }

    /// Adds the write-ahead journal layer (mounted — and committed
    /// transactions replayed — during [`StackBuilder::build`]).
    pub fn journal(mut self, cfg: JournalConfig) -> Self {
        self.journal = Some(cfg);
        self
    }

    /// Adds a single-shard block cache of `capacity` sectors.
    pub fn cache(self, capacity: usize) -> Self {
        self.sharded_cache(capacity, 1)
    }

    /// Adds a block cache of `capacity` total sectors, sharded `shards`
    /// ways by sector.
    pub fn sharded_cache(mut self, capacity: usize, shards: usize) -> Self {
        self.cache = Some((capacity, shards));
        self
    }

    /// Builds the stack bottom-up: driver, then journal (mount +
    /// recovery), then cache.
    pub fn build(self) -> CoreResult<StoreStack> {
        let (driver, machine) = match self.base {
            Base::Disk { mem, domain } => {
                let machine = mem.machine().clone();
                (build_disk_driver(&mem, domain)?, Some(machine))
            }
            Base::Object(obj) => (obj, None),
        };
        let mut top = driver.clone();
        let retry = match self.retry {
            Some(cfg) => {
                let machine = machine.ok_or_else(|| {
                    CoreError::Obj(paramecium_obj::ObjError::failed(
                        "retry layer requires a disk-based stack (backoff uses the machine clock)",
                    ))
                })?;
                let r = make_retry(machine, top.clone(), cfg);
                top = r.clone();
                Some(r)
            }
            None => None,
        };
        let journal = match self.journal {
            Some(cfg) => {
                let j = mount_journal(top.clone(), cfg).map_err(CoreError::Obj)?;
                top = j.clone();
                Some(j)
            }
            None => None,
        };
        let cache = self.cache.map(|(capacity, shards)| {
            let c = build_sharded_block_cache(top.clone(), capacity, shards);
            top = c.clone();
            c
        });
        Ok(StoreStack {
            top,
            driver,
            retry,
            journal,
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use paramecium_core::domain::KERNEL_DOMAIN;
    use paramecium_machine::dev::disk::SECTOR_SIZE;
    use paramecium_machine::Machine;
    use paramecium_obj::Value;
    use parking_lot::Mutex;

    fn mem() -> Arc<MemService> {
        Arc::new(MemService::new(Arc::new(Mutex::new(Machine::new()))))
    }

    #[test]
    fn full_stack_reads_and_writes_through_all_three_layers() {
        let mem = mem();
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig::default())
            .sharded_cache(64, 4)
            .build()
            .unwrap();
        assert!(stack.journal.is_some());
        assert!(stack.cache.is_some());
        let data = Value::Bytes(Bytes::from(vec![0x3C; SECTOR_SIZE]));
        stack
            .top
            .invoke("blockdev", "write", &[Value::Int(5), data])
            .unwrap();
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(5)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x3C);
        // A full flush drains cache → journal → home locations.
        stack.top.invoke("blockdev", "flush", &[]).unwrap();
        let v = stack
            .driver
            .invoke("blockdev", "read", &[Value::Int(5)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x3C);
    }

    #[test]
    fn layers_are_optional() {
        let mem = mem();
        let bare = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap();
        assert!(bare.journal.is_none() && bare.cache.is_none());
        // The driver-only stack's top IS the driver.
        assert_eq!(
            bare.top.invoke("blockdev", "sectors", &[]).unwrap(),
            bare.driver.invoke("blockdev", "sectors", &[]).unwrap()
        );
        let cached = StackBuilder::on(bare.top).cache(16).build().unwrap();
        assert!(cached.journal.is_none() && cached.cache.is_some());
        // With a journal, the client-visible device shrinks.
        let with_j = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        let total = with_j
            .driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        let visible = with_j
            .top
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(visible, total - JournalConfig::default().log_sectors - 2);
    }

    /// On a bare driver, retry over a driver and a journal over retry
    /// over a driver, `read(s)` is `read_many([s])` and `write(s, d)` is
    /// `write_many([(s, d)])`: the same bytes, the same machine-clock
    /// advance and the same driver `[reads, writes]` counts.
    #[test]
    fn single_sector_verbs_match_their_one_element_batches() {
        use crate::vectored::{pairs_arg, sectors_arg};
        type Layers = fn(StackBuilder) -> StackBuilder;
        let stacks: [(&str, Layers); 3] = [
            ("driver", |b| b),
            ("retry", |b| b.retry(RetryConfig::default())),
            ("journal", |b| {
                b.retry(RetryConfig::default())
                    .journal(JournalConfig::default())
            }),
        ];
        let data = Bytes::from(vec![0x5E; SECTOR_SIZE]);
        for (name, layers) in stacks {
            // (bytes or unit returned, clock advance, driver counts) per
            // step: write sector 9, read it back, read untouched sector 4.
            let run = |batched: bool| {
                let mem = mem();
                let stack = layers(StackBuilder::disk(&mem, KERNEL_DOMAIN))
                    .build()
                    .unwrap();
                let step = |method: &str, args: &[Value]| {
                    let t0 = mem.machine().lock().now();
                    let out = stack.top.invoke("blockdev", method, args).unwrap();
                    let cycles = mem.machine().lock().now() - t0;
                    let counts = stack.driver.invoke("blockdev", "stats", &[]).unwrap();
                    (out, cycles, counts)
                };
                let mut trace = Vec::new();
                if batched {
                    let (n, cycles, counts) = step("write_many", &[pairs_arg([(9, data.clone())])]);
                    assert_eq!(n, Value::Int(1));
                    trace.push((Value::Unit, cycles, counts));
                    for sec in [9, 4] {
                        let (list, cycles, counts) = step("read_many", &[sectors_arg([sec])]);
                        trace.push((list.as_list().unwrap()[0].clone(), cycles, counts));
                    }
                } else {
                    trace.push(step("write", &[Value::Int(9), Value::Bytes(data.clone())]));
                    for sec in [9, 4] {
                        trace.push(step("read", &[Value::Int(sec)]));
                    }
                }
                trace
            };
            let single = run(false);
            assert_eq!(single, run(true), "{name}");
            assert_eq!(single[1].0, Value::Bytes(data.clone()), "{name}");
            assert!(
                single[2].1 > 0,
                "{name}: the untouched sector comes from disk"
            );
        }
    }
}
