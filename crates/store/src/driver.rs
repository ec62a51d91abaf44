//! The disk driver object — the bottom layer of the store stack.
//!
//! Exports the full `blockdev` interface (the canonical method list
//! lives in the [crate docs](crate)): single-sector `read`/`write`, the
//! vectorized `read_many`/`write_many`, `sectors`, the stack's only
//! `stats` (`[reads, writes]` sectors transferred), and the
//! durability/transaction surface `flush`/`barrier`/`begin_txn`/
//! `txn_write`/`commit`/`abort`.
//!
//! Every transfer is a batch: `read`/`write` are the one-sector case of
//! `read_many`/`write_many` and run the same code, so a single sector
//! pays the full sector transfer cost — the latency the shared cache
//! exists to hide. A batch is validated whole before anything is
//! charged, then charged the amortised [`batch_transfer_cost`]: one
//! request setup, then the streaming rate per additional sector — but
//! charged *per sector* (setup on the first, streaming on the rest), so
//! an injected power failure ([`Machine::arm_crash_after`]) can land
//! between any two sectors of a batch. A crash mid-batch leaves the
//! batch's prefix fully written and the in-flight sector *torn* (half
//! new, half old bytes) — exactly the failure surface the
//! `store::journal` layer's checksummed records exist to survive.
//!
//! The driver's transaction verbs are **volatile**: `commit` applies the
//! buffered writes as one batch, atomic against validation errors but
//! *not* against power failure. Crash-atomic commit is the journal
//! layer's job; the driver implements the verbs so every layer of the
//! stack speaks the same `blockdev` interface and a journal can be
//! slotted in (or left out) without changing any client.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium_core::{domain::DomainId, memsvc::MemService, CoreResult};
use paramecium_machine::{
    dev::disk::{Disk, SECTOR_SIZE, SECTOR_STREAM_COST, SECTOR_TRANSFER_COST},
    io::IoSharing,
    Machine,
};
use paramecium_obj::{ObjError, ObjRef, ObjResult, ObjectBuilder, TypeTag, Value};

use crate::vectored::{
    parse_pairs, parse_sector, parse_sectors, parse_txn, parse_txn_write, parse_write,
    TXN_WRITE_PARAMS,
};

/// Bytes of a sector that still reach the platter when a power failure
/// interrupts its transfer: the torn-write model (half the sector).
const TORN_WRITE_PREFIX: usize = SECTOR_SIZE / 2;

/// Driver instance state.
struct DriverState {
    machine: Arc<Mutex<Machine>>,
    reads: u64,
    writes: u64,
    /// Open (volatile) transactions: ordered buffered writes.
    open_txns: HashMap<i64, Vec<(i64, Bytes)>>,
    next_txn: i64,
}

/// Converts machine errors, keeping the power-failure case recognisable.
fn dev_err(e: paramecium_machine::MachineError) -> ObjError {
    ObjError::failed(e.to_string())
}

/// Fails (without charging) when the machine has lost power.
fn check_power(m: &Machine) -> ObjResult<()> {
    m.check_power().map_err(dev_err)
}

/// Charges the transfer of a batch's `k`-th sector: request setup for
/// the first, the streaming rate for the rest, plus any injected latency
/// spike ([`Disk::inject_latency`]).
fn charge_sector(m: &mut Machine, k: usize) {
    let cost = if k == 0 {
        SECTOR_TRANSFER_COST
    } else {
        SECTOR_STREAM_COST
    };
    let extra = m
        .device_mut::<Disk>("disk")
        .map_or(0, |d| d.take_op_latency());
    m.charge(cost + extra);
}

/// Validates every sector of a batch against the device bounds before
/// anything is charged, read or written (no partial effects for invalid
/// batches).
fn validate_batch(m: &mut Machine, sectors: impl IntoIterator<Item = i64>) -> ObjResult<()> {
    let total = m
        .device_mut::<Disk>("disk")
        .ok_or_else(|| ObjError::failed("disk device missing"))?
        .sectors() as i64;
    for sec in sectors {
        if sec < 0 || sec >= total {
            return Err(ObjError::failed(format!(
                "sector {sec} out of range (device has {total})"
            )));
        }
    }
    Ok(())
}

impl DriverState {
    /// Reads `sectors` as one request: validates the whole batch, then
    /// charges it sector by sector ([`charge_sector`]), checking for an
    /// injected power failure after each charge. `read` is the
    /// one-sector case.
    fn read_batch(&mut self, sectors: &[i64]) -> ObjResult<Vec<Value>> {
        let mut m = self.machine.lock();
        check_power(&m)?;
        validate_batch(&mut m, sectors.iter().copied())?;
        let mut out = Vec::with_capacity(sectors.len());
        for (k, &sec) in sectors.iter().enumerate() {
            charge_sector(&mut m, k);
            check_power(&m)?;
            let data = m
                .device_mut::<Disk>("disk")
                .ok_or_else(|| ObjError::failed("disk device missing"))?
                .read_sector(sec as u64)
                .map_err(dev_err)?;
            out.push(Value::Bytes(Bytes::copy_from_slice(&data)));
        }
        self.reads += sectors.len() as u64;
        Ok(out)
    }

    /// Writes `batch` as one request: validates the whole batch, then
    /// charges and writes it sector by sector. An injected power failure
    /// landing on a sector's charge tears that sector
    /// ([`TORN_WRITE_PREFIX`] bytes land) and surfaces the error; earlier
    /// sectors of the batch are fully durable. `write` and `commit` are
    /// cases of this.
    fn write_batch(&mut self, batch: &[(i64, Bytes)]) -> ObjResult<()> {
        let mut m = self.machine.lock();
        check_power(&m)?;
        validate_batch(&mut m, batch.iter().map(|(sec, _)| *sec))?;
        for (k, (sec, data)) in batch.iter().enumerate() {
            charge_sector(&mut m, k);
            let mut buf = [0u8; SECTOR_SIZE];
            buf.copy_from_slice(data);
            let crashed = m.crashed();
            let disk = m
                .device_mut::<Disk>("disk")
                .ok_or_else(|| ObjError::failed("disk device missing"))?;
            if crashed {
                disk.write_sector_prefix(*sec as u64, &buf, TORN_WRITE_PREFIX)
                    .map_err(dev_err)?;
                return Err(dev_err(paramecium_machine::MachineError::PowerFailure));
            }
            disk.write_sector(*sec as u64, &buf).map_err(dev_err)?;
        }
        self.writes += batch.len() as u64;
        Ok(())
    }
}

/// Builds the disk driver for `domain`, claiming the disk's register
/// region exclusively. This is the layer [`crate::StackBuilder`] places
/// at the bottom of every stack; use the builder rather than calling
/// this directly.
pub(crate) fn build_disk_driver(mem: &Arc<MemService>, domain: DomainId) -> CoreResult<ObjRef> {
    // Reuse the device's regions if a previous driver allocated them, so
    // exclusivity is genuinely contended.
    let existing = {
        let machine = mem.machine().clone();
        let m = machine.lock();
        m.io.regions_of("disk").iter().map(|r| r.id).next()
    };
    let regs = match existing {
        Some(id) => id,
        None => mem.io_allocate("disk", 0x10, IoSharing::Exclusive)?,
    };
    mem.io_claim(domain, regs)?;

    Ok(ObjectBuilder::new("disk-driver")
        .state(DriverState {
            machine: mem.machine().clone(),
            reads: 0,
            writes: 0,
            open_txns: HashMap::new(),
            next_txn: 1,
        })
        .interface("blockdev", |i| {
            i.method("read", &[TypeTag::Int], TypeTag::Bytes, |this, args| {
                let sector = parse_sector(&args[0])?;
                this.with_state(|s: &mut DriverState| {
                    let mut out = s.read_batch(&[sector])?;
                    Ok(out.swap_remove(0))
                })
            })
            .method(
                "write",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                |this, args| {
                    let write = parse_write(&args[0], &args[1])?;
                    this.with_state(|s: &mut DriverState| {
                        s.write_batch(std::slice::from_ref(&write))?;
                        Ok(Value::Unit)
                    })
                },
            )
            .method(
                "read_many",
                &[TypeTag::List],
                TypeTag::List,
                |this, args| {
                    let sectors = parse_sectors(&args[0])?;
                    this.with_state(|s: &mut DriverState| Ok(Value::List(s.read_batch(&sectors)?)))
                },
            )
            .method(
                "write_many",
                &[TypeTag::List],
                TypeTag::Int,
                |this, args| {
                    let pairs = parse_pairs(&args[0])?;
                    this.with_state(|s: &mut DriverState| {
                        s.write_batch(&pairs)?;
                        Ok(Value::Int(pairs.len() as i64))
                    })
                },
            )
            .method("sectors", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    let mut m = s.machine.lock();
                    check_power(&m)?;
                    let d = m
                        .device_mut::<Disk>("disk")
                        .ok_or_else(|| ObjError::failed("disk device missing"))?;
                    Ok(Value::Int(d.sectors() as i64))
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    Ok(Value::List(vec![
                        Value::Int(s.reads as i64),
                        Value::Int(s.writes as i64),
                    ]))
                })
            })
            // Durability surface. The raw driver has no volatile write
            // state of its own (every acked write reached the platter),
            // so `flush` has nothing to do and `barrier` only verifies
            // the machine is alive.
            .method("flush", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    check_power(&s.machine.lock())?;
                    Ok(Value::Int(0))
                })
            })
            .method("barrier", &[], TypeTag::Unit, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    check_power(&s.machine.lock())?;
                    Ok(Value::Unit)
                })
            })
            // Transaction surface (volatile: see the module docs).
            .method("begin_txn", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    check_power(&s.machine.lock())?;
                    let id = s.next_txn;
                    s.next_txn += 1;
                    s.open_txns.insert(id, Vec::new());
                    Ok(Value::Int(id))
                })
            })
            .method(
                "txn_write",
                TXN_WRITE_PARAMS,
                TypeTag::Unit,
                |this, args| {
                    let (txn, sector, data) = parse_txn_write(args)?;
                    this.with_state(|s: &mut DriverState| {
                        let mut m = s.machine.lock();
                        check_power(&m)?;
                        validate_batch(&mut m, [sector])?;
                        drop(m);
                        s.open_txns
                            .get_mut(&txn)
                            .ok_or_else(|| ObjError::failed(format!("no open transaction {txn}")))?
                            .push((sector, data));
                        Ok(Value::Unit)
                    })
                },
            )
            .method("commit", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let txn = parse_txn(&args[0])?;
                this.with_state(|s: &mut DriverState| {
                    let writes = s
                        .open_txns
                        .remove(&txn)
                        .ok_or_else(|| ObjError::failed(format!("no open transaction {txn}")))?;
                    if !writes.is_empty() {
                        s.write_batch(&writes)?;
                    }
                    Ok(Value::Unit)
                })
            })
            .method("abort", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let txn = parse_txn(&args[0])?;
                this.with_state(|s: &mut DriverState| {
                    s.open_txns
                        .remove(&txn)
                        .ok_or_else(|| ObjError::failed(format!("no open transaction {txn}")))?;
                    Ok(Value::Unit)
                })
            })
        })
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackBuilder;
    use paramecium_core::domain::KERNEL_DOMAIN;
    use paramecium_machine::dev::disk::batch_transfer_cost;

    fn setup() -> (Arc<MemService>, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
        (mem, driver)
    }

    fn sector_of(byte: u8) -> Value {
        Value::Bytes(Bytes::from(vec![byte; SECTOR_SIZE]))
    }

    #[test]
    fn read_write_roundtrip_charges_transfer_cost() {
        let (mem, driver) = setup();
        let t0 = mem.machine().lock().now();
        driver
            .invoke("blockdev", "write", &[Value::Int(5), sector_of(0xAB)])
            .unwrap();
        let data = driver.invoke("blockdev", "read", &[Value::Int(5)]).unwrap();
        assert_eq!(data.as_bytes().unwrap()[0], 0xAB);
        assert!(mem.machine().lock().now() - t0 >= 2 * SECTOR_TRANSFER_COST);
        let stats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(stats, Value::List(vec![Value::Int(1), Value::Int(1)]));
    }

    #[test]
    fn wrong_sized_writes_rejected() {
        let (_, driver) = setup();
        let r = driver.invoke(
            "blockdev",
            "write",
            &[Value::Int(0), Value::Bytes(Bytes::from_static(b"short"))],
        );
        assert!(r.is_err());
        assert!(driver
            .invoke("blockdev", "read", &[Value::Int(-1)])
            .is_err());
    }

    #[test]
    fn out_of_range_sector_fails_without_a_charge() {
        let (mem, driver) = setup();
        let sectors = driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        let t0 = mem.machine().lock().now();
        assert!(driver
            .invoke("blockdev", "read", &[Value::Int(sectors)])
            .is_err());
        assert_eq!(mem.machine().lock().now(), t0, "validated before charging");
    }

    #[test]
    fn exclusive_claim_blocks_second_driver() {
        let (mem, _driver) = setup();
        assert!(StackBuilder::disk(&mem, DomainId(7)).build().is_err());
    }

    #[test]
    fn vectorized_ops_roundtrip_and_charge_amortised_cost() {
        use crate::vectored::{pairs_arg, sectors_arg};
        let (mem, driver) = setup();
        let pairs: Vec<(i64, Bytes)> = (0..64i64)
            .map(|sec| (sec, Bytes::from(vec![sec as u8; SECTOR_SIZE])))
            .collect();
        let t0 = mem.machine().lock().now();
        let written = driver
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap();
        assert_eq!(written, Value::Int(64));
        let batch_cost = mem.machine().lock().now() - t0;
        assert_eq!(batch_cost, batch_transfer_cost(64));
        assert!(batch_cost < 64 * SECTOR_TRANSFER_COST);

        let out = driver
            .invoke("blockdev", "read_many", &[sectors_arg(0..64)])
            .unwrap();
        let out = out.as_list().unwrap();
        assert_eq!(out.len(), 64);
        for (sec, v) in out.iter().enumerate() {
            assert_eq!(v.as_bytes().unwrap()[0], sec as u8);
        }
        // One batched call counts every sector in the stats.
        let stats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(stats, Value::List(vec![Value::Int(64), Value::Int(64)]));
    }

    #[test]
    fn vectorized_ops_reject_bad_batches() {
        use crate::vectored::{pairs_arg, sectors_arg};
        let (_, driver) = setup();
        let sectors = driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(driver
            .invoke("blockdev", "read_many", &[sectors_arg([0, sectors])])
            .is_err());
        let good = Bytes::from(vec![1u8; SECTOR_SIZE]);
        // Out-of-range anywhere in the batch writes nothing.
        assert!(driver
            .invoke(
                "blockdev",
                "write_many",
                &[pairs_arg([(0, good.clone()), (sectors, good)])]
            )
            .is_err());
        let stats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(stats.as_list().unwrap()[1], Value::Int(0));
    }

    #[test]
    fn volatile_txns_apply_on_commit_and_vanish_on_abort() {
        use crate::vectored::txn_write_args;
        let (_, driver) = setup();
        let txn = driver
            .invoke("blockdev", "begin_txn", &[])
            .unwrap()
            .as_int()
            .unwrap();
        for sec in 0..3i64 {
            driver
                .invoke(
                    "blockdev",
                    "txn_write",
                    &txn_write_args(txn, sec, Bytes::from(vec![0x42; SECTOR_SIZE])),
                )
                .unwrap();
        }
        // Nothing visible before commit.
        let v = driver.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        driver
            .invoke("blockdev", "commit", &[Value::Int(txn)])
            .unwrap();
        let v = driver.invoke("blockdev", "read", &[Value::Int(2)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x42);
        // Double commit fails; an aborted txn leaves no trace.
        assert!(driver
            .invoke("blockdev", "commit", &[Value::Int(txn)])
            .is_err());
        let t2 = driver
            .invoke("blockdev", "begin_txn", &[])
            .unwrap()
            .as_int()
            .unwrap();
        driver
            .invoke(
                "blockdev",
                "txn_write",
                &txn_write_args(t2, 5, Bytes::from(vec![0x77; SECTOR_SIZE])),
            )
            .unwrap();
        driver
            .invoke("blockdev", "abort", &[Value::Int(t2)])
            .unwrap();
        let v = driver.invoke("blockdev", "read", &[Value::Int(5)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        // Flush and barrier are no-ops on the raw driver.
        assert_eq!(
            driver.invoke("blockdev", "flush", &[]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            driver.invoke("blockdev", "barrier", &[]).unwrap(),
            Value::Unit
        );
    }

    #[test]
    fn crash_mid_batch_leaves_prefix_plus_torn_sector() {
        use crate::vectored::pairs_arg;
        let (mem, driver) = setup();
        let pairs: Vec<(i64, Bytes)> = (0..4i64)
            .map(|sec| (sec, Bytes::from(vec![0xEE; SECTOR_SIZE])))
            .collect();
        // Fire the crash on the third sector's transfer charge.
        mem.machine().lock().arm_crash_after(3);
        let err = driver
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap_err();
        assert!(err.to_string().contains("power failure"), "{err}");
        // Everything fails until reboot.
        assert!(driver.invoke("blockdev", "read", &[Value::Int(0)]).is_err());
        mem.machine().lock().reboot();
        // Sectors 0 and 1 are fully written, sector 2 is torn (prefix
        // only), sector 3 never started.
        for (sec, full, torn) in [(0, true, false), (1, true, false), (2, false, true)] {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            let b = v.as_bytes().unwrap();
            if full {
                assert!(b.iter().all(|&x| x == 0xEE), "sector {sec} must be whole");
            }
            if torn {
                assert!(b[..TORN_WRITE_PREFIX].iter().all(|&x| x == 0xEE));
                assert!(b[TORN_WRITE_PREFIX..].iter().all(|&x| x == 0));
            }
        }
        let v = driver.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
        assert!(v.as_bytes().unwrap().iter().all(|&x| x == 0));
    }
}
