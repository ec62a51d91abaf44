//! Deterministic chaos engine: planned faults, applied on the virtual
//! clock, with an audit trail that replays bit-identically.
//!
//! The simulation's determinism contract — every run is a pure function
//! of its seeds — extends here to *failure*: a drill is a
//! [`ChaosPlan`], a seeded schedule of typed [`Fault`]s at virtual
//! times, and a [`ChaosController`] that applies each fault to live
//! objects through their ordinary interfaces when the machine clock
//! reaches it. Nothing about injection is probabilistic at application
//! time; all randomness is spent up front when the plan is built, so
//! the same `(seed, plan)` always produces the same fault sequence, the
//! same audit log and the same [`ChaosController::audit_digest`].
//!
//! # Plan format
//!
//! A plan is an ordered list of `(virtual time, fault)` pairs. Build
//! one explicitly with [`ChaosPlan::at`], or spread a fault list over a
//! window with seeded jitter via [`ChaosPlan::jittered`]. Faults name
//! their targets by the small integer handles returned from
//! [`ChaosController::register_link`] / [`register_router`], or by
//! machine device name ([`Fault::NicDown`], [`Fault::DiskLatency`]…).
//!
//! # Determinism contract
//!
//! - Plans are applied in `(time, insertion order)`; ties never
//!   reorder.
//! - [`ChaosController::poll`] applies every fault whose time has
//!   arrived. Drills call it from the same place they pump the network,
//!   so fault application interleaves identically across runs.
//! - The audit log records `(planned time, applied time, description)`
//!   per event and folds into an FNV-1a digest; two runs of the same
//!   drill must produce equal digests, and a different plan seed must
//!   not (see `tests/chaos_drills.rs`).
//! - An **unarmed** controller's `poll` is a handful of instructions
//!   and takes no locks — leaving chaos hooks wired into production
//!   pump loops is free (measured by the `b15_chaos` bench).
//!
//! # Writing a drill
//!
//! 1. Build the topology (links, routers, TCP endpoints, store stack).
//! 2. Register the chaos targets with a controller.
//! 3. Build a plan from the drill seed; [`ChaosController::arm`] it.
//! 4. Run the workload, calling `poll` every pump round.
//! 5. After the storm: heal, let recovery mechanisms converge, then
//!    assert — acked data intact, connections completed or failed with
//!    a clean [`error`](crate::netstack::tcp) reason, the recovered
//!    store equal to the oracle's committed prefix — and re-run the
//!    whole drill to compare digests.
//!
//! The recovery half lives next door: [`crate::store::retry`] absorbs
//! transient disk faults, dead-gateway detection in
//! [`crate::netstack::route`] steers around black holes, TCP user
//! timeouts abort partitioned connections cleanly, and [`Supervisor`]
//! turns a power failure into reboot + journal remount + stack rebuild.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::core::{memsvc::MemService, CoreResult};
use crate::machine::dev::disk::Disk;
use crate::machine::dev::nic::Nic;
use crate::machine::Machine;
use crate::obj::{ObjError, ObjRef, Value};
use crate::store::{StackBuilder, StoreStack};

/// One typed fault. Link and router targets are the handles returned
/// by the controller's `register_*` calls; devices are named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Drop everything in both directions of a link (saves the link's
    /// pristine knobs for a later [`Fault::Heal`]).
    Partition { link: usize },
    /// Restore a link's saved pristine knobs.
    Heal { link: usize },
    /// Degrade one direction of a link (0 = first endpoint's transmit
    /// direction, 1 = the other), leaving delays untouched. Saves the
    /// pristine knobs like `Partition`.
    Impair {
        link: usize,
        dir: usize,
        drop_permille: i64,
        dup_permille: i64,
        reorder_permille: i64,
        corrupt_permille: i64,
    },
    /// Withdraw a route from a router's table at runtime.
    RouteDel {
        router: usize,
        prefix: u32,
        len: i64,
    },
    /// (Re-)install a route.
    RouteAdd {
        router: usize,
        prefix: u32,
        len: i64,
        ifindex: i64,
    },
    /// Take a machine NIC's link down: transmit blackholes, receive
    /// drops.
    NicDown { nic: String },
    /// Bring a NIC's link back up.
    NicUp { nic: String },
    /// Arm the next `count` disk sector operations to fail with a
    /// transient I/O error.
    DiskTransientErrors { disk: String, count: u64 },
    /// Charge `extra` additional cycles on each of the next `ops` disk
    /// sector operations (a latency spike window).
    DiskLatency { disk: String, extra: u64, ops: u64 },
    /// Arm a power failure `after_charges` charge events out. The
    /// machine refuses all charged work once it fires; pair with a
    /// [`Supervisor`] to reboot and recover.
    PowerCrash { after_charges: u64 },
}

impl Fault {
    /// Short audit-log rendering.
    fn describe(&self) -> String {
        match self {
            Fault::Partition { link } => format!("partition link{link}"),
            Fault::Heal { link } => format!("heal link{link}"),
            Fault::Impair {
                link,
                dir,
                drop_permille,
                dup_permille,
                reorder_permille,
                corrupt_permille,
            } => format!(
                "impair link{link} dir{dir} drop={drop_permille} dup={dup_permille} \
                 reorder={reorder_permille} corrupt={corrupt_permille}"
            ),
            Fault::RouteDel {
                router,
                prefix,
                len,
            } => format!("route-del router{router} {prefix:#010x}/{len}"),
            Fault::RouteAdd {
                router,
                prefix,
                len,
                ifindex,
            } => format!("route-add router{router} {prefix:#010x}/{len} if{ifindex}"),
            Fault::NicDown { nic } => format!("nic-down {nic}"),
            Fault::NicUp { nic } => format!("nic-up {nic}"),
            Fault::DiskTransientErrors { disk, count } => {
                format!("disk-transient {disk} count={count}")
            }
            Fault::DiskLatency { disk, extra, ops } => {
                format!("disk-latency {disk} extra={extra} ops={ops}")
            }
            Fault::PowerCrash { after_charges } => {
                format!("power-crash after={after_charges}")
            }
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug)]
pub struct ChaosEvent {
    /// Virtual time (machine cycles) at which the fault applies.
    pub at: u64,
    /// What happens.
    pub fault: Fault,
}

/// A fault schedule. Events fire in `(time, insertion order)`.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Schedules `fault` at virtual time `at`.
    pub fn at(mut self, at: u64, fault: Fault) -> ChaosPlan {
        self.events.push(ChaosEvent { at, fault });
        self
    }

    /// Spreads `faults` over `[start, start + window)` in order, with
    /// seeded jitter: fault `i` lands at `start + i * window / n` plus
    /// a random offset within its slot. All randomness is spent here —
    /// the resulting plan is a plain deterministic schedule.
    pub fn jittered(seed: u64, start: u64, window: u64, faults: Vec<Fault>) -> ChaosPlan {
        let n = faults.len().max(1) as u64;
        let slot = (window / n).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = ChaosPlan::new();
        for (i, fault) in faults.into_iter().enumerate() {
            let jitter = rng.gen_range(0..slot);
            plan = plan.at(start + i as u64 * slot + jitter, fault);
        }
        plan
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// FNV-1a over `bytes`, continuing from `h` (0 starts a fresh digest).
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

/// Applies an armed [`ChaosPlan`] to registered targets as the virtual
/// clock advances. See the [module docs](self) for the contract.
pub struct ChaosController {
    machine: Arc<Mutex<Machine>>,
    links: Vec<(ObjRef, ObjRef)>,
    routers: Vec<ObjRef>,
    /// Pristine knobs per partitioned/impaired link, for `Heal`.
    saved: HashMap<usize, (Vec<Value>, Vec<Value>)>,
    plan: Vec<ChaosEvent>,
    next: usize,
    audit: Vec<String>,
    digest: u64,
}

impl ChaosController {
    /// A controller bound to `machine`'s clock with no targets and no
    /// plan.
    pub fn new(machine: Arc<Mutex<Machine>>) -> ChaosController {
        ChaosController {
            machine,
            links: Vec::new(),
            routers: Vec::new(),
            saved: HashMap::new(),
            plan: Vec::new(),
            next: 0,
            audit: Vec::new(),
            digest: 0,
        }
    }

    /// Registers a simlink's two endpoints; returns the handle to name
    /// it in [`Fault`]s.
    pub fn register_link(&mut self, a: ObjRef, b: ObjRef) -> usize {
        self.links.push((a, b));
        self.links.len() - 1
    }

    /// Registers a router object; returns its handle.
    pub fn register_router(&mut self, r: ObjRef) -> usize {
        self.routers.push(r);
        self.routers.len() - 1
    }

    /// Arms `plan`, replacing any previous one (applied events keep
    /// their audit entries). Events are stably ordered by time.
    pub fn arm(&mut self, plan: ChaosPlan) {
        let mut events = plan.events;
        events.sort_by_key(|e| e.at);
        self.plan = events;
        self.next = 0;
    }

    /// Events armed but not yet applied.
    pub fn pending(&self) -> usize {
        self.plan.len() - self.next
    }

    /// Applies every armed fault whose time has arrived; returns how
    /// many fired. The unarmed/drained fast path takes no locks — this
    /// is the cost of leaving the hook in a pump loop.
    pub fn poll(&mut self) -> Result<usize, ObjError> {
        if self.next >= self.plan.len() {
            return Ok(0);
        }
        let now = self.machine.lock().now();
        let mut fired = 0;
        while self.next < self.plan.len() && self.plan[self.next].at <= now {
            let ev = self.plan[self.next].clone();
            self.next += 1;
            let desc = self.apply(&ev.fault)?;
            let entry = format!("t={now} plan={at} {desc}", at = ev.at);
            self.digest = fnv(self.digest, entry.as_bytes());
            self.audit.push(entry);
            fired += 1;
        }
        Ok(fired)
    }

    /// The audit log: one line per applied fault, in application order.
    pub fn audit(&self) -> &[String] {
        &self.audit
    }

    /// FNV-1a digest of the audit log — the drill's replay fingerprint.
    pub fn audit_digest(&self) -> u64 {
        self.digest
    }

    fn link(&self, idx: usize) -> Result<&(ObjRef, ObjRef), ObjError> {
        self.links
            .get(idx)
            .ok_or_else(|| ObjError::failed(format!("no registered link {idx}")))
    }

    fn router(&self, idx: usize) -> Result<&ObjRef, ObjError> {
        self.routers
            .get(idx)
            .ok_or_else(|| ObjError::failed(format!("no registered router {idx}")))
    }

    /// Saves a link's pristine knobs the first time a fault touches it.
    fn save_link(&mut self, idx: usize) -> Result<(), ObjError> {
        if self.saved.contains_key(&idx) {
            return Ok(());
        }
        let (a, b) = self.link(idx)?.clone();
        let ka = knobs(&a)?;
        let kb = knobs(&b)?;
        self.saved.insert(idx, (ka, kb));
        Ok(())
    }

    fn apply(&mut self, fault: &Fault) -> Result<String, ObjError> {
        match fault {
            Fault::Partition { link } => {
                self.save_link(*link)?;
                let (a, b) = self.link(*link)?.clone();
                for end in [&a, &b] {
                    let mut k = knobs(end)?;
                    k[0] = Value::Int(1000);
                    k[1] = Value::Int(0);
                    k[2] = Value::Int(0);
                    k[3] = Value::Int(0);
                    set_knobs(end, k)?;
                }
            }
            Fault::Heal { link } => {
                let Some((ka, kb)) = self.saved.remove(link) else {
                    return Ok(format!("heal link{link} (nothing saved)"));
                };
                let (a, b) = self.link(*link)?.clone();
                set_knobs(&a, ka)?;
                set_knobs(&b, kb)?;
            }
            Fault::Impair {
                link,
                dir,
                drop_permille,
                dup_permille,
                reorder_permille,
                corrupt_permille,
            } => {
                self.save_link(*link)?;
                let (a, b) = self.link(*link)?.clone();
                let end = match dir {
                    0 => &a,
                    1 => &b,
                    _ => return Err(ObjError::failed("link direction must be 0 or 1")),
                };
                let mut k = knobs(end)?;
                k[0] = Value::Int(*drop_permille);
                k[1] = Value::Int(*dup_permille);
                k[2] = Value::Int(*reorder_permille);
                k[3] = Value::Int(*corrupt_permille);
                set_knobs(end, k)?;
            }
            Fault::RouteDel {
                router,
                prefix,
                len,
            } => {
                self.router(*router)?.invoke(
                    "route",
                    "del_route",
                    &[Value::Int(i64::from(*prefix)), Value::Int(*len)],
                )?;
            }
            Fault::RouteAdd {
                router,
                prefix,
                len,
                ifindex,
            } => {
                self.router(*router)?.invoke(
                    "route",
                    "add_route",
                    &[
                        Value::Int(i64::from(*prefix)),
                        Value::Int(*len),
                        Value::Int(*ifindex),
                    ],
                )?;
            }
            Fault::NicDown { nic } => self.set_nic(nic, false)?,
            Fault::NicUp { nic } => self.set_nic(nic, true)?,
            Fault::DiskTransientErrors { disk, count } => {
                let mut m = self.machine.lock();
                let d = m
                    .device_mut::<Disk>(disk)
                    .ok_or_else(|| ObjError::failed(format!("no disk device {disk:?}")))?;
                d.inject_transient_errors(*count);
            }
            Fault::DiskLatency { disk, extra, ops } => {
                let mut m = self.machine.lock();
                let d = m
                    .device_mut::<Disk>(disk)
                    .ok_or_else(|| ObjError::failed(format!("no disk device {disk:?}")))?;
                d.inject_latency(*extra, *ops);
            }
            Fault::PowerCrash { after_charges } => {
                self.machine.lock().arm_crash_after(*after_charges);
            }
        }
        Ok(fault.describe())
    }

    fn set_nic(&self, name: &str, up: bool) -> Result<(), ObjError> {
        let mut m = self.machine.lock();
        let nic = m
            .device_mut::<Nic>(name)
            .ok_or_else(|| ObjError::failed(format!("no nic device {name:?}")))?;
        nic.set_link_up(up);
        Ok(())
    }
}

fn knobs(end: &ObjRef) -> Result<Vec<Value>, ObjError> {
    Ok(end.invoke("link", "config", &[])?.as_list()?.to_vec())
}

fn set_knobs(end: &ObjRef, knobs: Vec<Value>) -> Result<(), ObjError> {
    end.invoke("link", "set_config", &[Value::List(knobs)])?;
    Ok(())
}

/// Reboot-and-recover policy for the store half of a drill: when the
/// machine has crashed, clear the disk's injected fault windows (the
/// power cycle resets the controller), reboot the machine, and rebuild
/// the store stack — the journal remount replays every committed
/// transaction, so the recovered store exposes exactly the committed
/// prefix.
pub struct Supervisor {
    mem: Arc<MemService>,
    stack: StackBuilder,
    reboots: u64,
}

impl Supervisor {
    /// A supervisor that rebuilds `stack` after each reboot of the
    /// machine behind `mem`. `stack` must be a disk-based builder on that
    /// same machine.
    pub fn new(mem: &Arc<MemService>, stack: StackBuilder) -> Supervisor {
        Supervisor {
            mem: mem.clone(),
            stack,
            reboots: 0,
        }
    }

    /// If the machine is down, bring it back: clear disk fault windows,
    /// clear the crash, rebuild (and journal-recover) the store stack.
    /// Returns the fresh stack, or `None` when the machine was healthy.
    pub fn ensure_up(&mut self) -> CoreResult<Option<StoreStack>> {
        let machine = self.mem.machine().clone();
        {
            let mut m = machine.lock();
            if !m.crashed() {
                return Ok(None);
            }
            if let Some(d) = m.device_mut::<Disk>("disk") {
                d.clear_faults();
            }
            m.reboot();
        }
        let stack = self.stack.clone().build()?;
        self.reboots += 1;
        Ok(Some(stack))
    }

    /// How many times `ensure_up` actually rebooted.
    pub fn reboots(&self) -> u64 {
        self.reboots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::domain::KERNEL_DOMAIN;
    use crate::netstack::simlink::{make_simlink, LinkConfig};
    use crate::store::{JournalConfig, RetryConfig};
    use bytes::Bytes;

    fn machine() -> Arc<Mutex<Machine>> {
        Arc::new(Mutex::new(Machine::new()))
    }

    fn send(end: &ObjRef, payload: &[u8]) {
        end.invoke(
            "netdev",
            "send",
            &[Value::Bytes(Bytes::copy_from_slice(payload))],
        )
        .unwrap();
    }

    fn recv_all(end: &ObjRef) -> usize {
        let mut n = 0;
        loop {
            let f = end.invoke("netdev", "recv", &[]).unwrap();
            if f.as_bytes().unwrap().is_empty() {
                return n;
            }
            n += 1;
        }
    }

    #[test]
    fn events_fire_at_their_virtual_times_in_order() {
        let m = machine();
        let (a, b) = make_simlink(m.clone(), LinkConfig::perfect(1));
        let mut ctl = ChaosController::new(m.clone());
        let link = ctl.register_link(a.clone(), b.clone());
        ctl.arm(
            ChaosPlan::new()
                .at(500, Fault::Heal { link })
                .at(100, Fault::Partition { link }),
        );
        assert_eq!(ctl.poll().unwrap(), 0, "nothing due at t=0");
        m.lock().tick(100);
        assert_eq!(ctl.poll().unwrap(), 1, "partition fires at t=100");
        send(&a, b"during-partition");
        m.lock().tick(100);
        assert_eq!(recv_all(&b), 0, "partitioned link drops");
        m.lock().tick(300);
        assert_eq!(ctl.poll().unwrap(), 1, "heal fires at t=500");
        send(&a, b"after-heal");
        m.lock().tick(100);
        assert_eq!(recv_all(&b), 1, "healed link delivers");
        assert_eq!(ctl.pending(), 0);
        assert_eq!(ctl.audit().len(), 2);
        assert!(ctl.audit()[0].contains("partition link0"));
    }

    #[test]
    fn unarmed_poll_is_a_noop_and_audit_replays_identically() {
        let run = || {
            let m = machine();
            let (a, b) = make_simlink(m.clone(), LinkConfig::perfect(1));
            let mut ctl = ChaosController::new(m.clone());
            let link = ctl.register_link(a, b);
            assert_eq!(ctl.poll().unwrap(), 0);
            ctl.arm(ChaosPlan::jittered(
                42,
                1_000,
                10_000,
                vec![
                    Fault::Partition { link },
                    Fault::Heal { link },
                    Fault::PowerCrash { after_charges: 100 },
                ],
            ));
            for _ in 0..12 {
                m.lock().tick(1_000);
                ctl.poll().unwrap();
            }
            (ctl.audit().to_vec(), ctl.audit_digest())
        };
        let (audit1, d1) = run();
        let (audit2, d2) = run();
        assert_eq!(audit1, audit2, "same plan, same application trace");
        assert_eq!(d1, d2);
        assert_eq!(audit1.len(), 3, "every event applied");
    }

    #[test]
    fn nic_blackout_applier_flips_the_device() {
        let m = machine();
        let mut ctl = ChaosController::new(m.clone());
        ctl.arm(
            ChaosPlan::new()
                .at(10, Fault::NicDown { nic: "nic".into() })
                .at(20, Fault::NicUp { nic: "nic".into() }),
        );
        m.lock().tick(10);
        ctl.poll().unwrap();
        assert!(!m.lock().device_mut::<Nic>("nic").unwrap().link_up());
        m.lock().tick(10);
        ctl.poll().unwrap();
        assert!(m.lock().device_mut::<Nic>("nic").unwrap().link_up());
    }

    #[test]
    fn disk_fault_windows_arm_through_the_controller() {
        let m = machine();
        let mut ctl = ChaosController::new(m.clone());
        ctl.arm(ChaosPlan::new().at(
            1,
            Fault::DiskTransientErrors {
                disk: "disk".into(),
                count: 2,
            },
        ));
        m.lock().tick(1);
        ctl.poll().unwrap();
        let mut mm = m.lock();
        let d = mm.device_mut::<Disk>("disk").unwrap();
        assert!(d.read_sector(0).is_err(), "first op fails transiently");
        assert!(d.read_sector(0).is_err(), "second op fails transiently");
        assert!(d.read_sector(0).is_ok(), "window exhausted");
    }

    #[test]
    fn supervisor_reboots_and_remounts_after_power_loss() {
        let mem = Arc::new(MemService::new(machine()));
        let machine = mem.machine().clone();
        let builder = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .retry(RetryConfig::default())
            .journal(JournalConfig::default());
        let stack = builder.clone().build().unwrap();
        let data = Value::Bytes(Bytes::from(vec![0xEE; 512]));
        stack
            .top
            .invoke("blockdev", "write", &[Value::Int(3), data])
            .unwrap();
        // Power fails mid-flight; the machine is down and subsequent
        // charged work errors out.
        machine.lock().arm_crash_after(1);
        let _ = stack.driver.invoke("blockdev", "read", &[Value::Int(0)]);
        assert!(machine.lock().crashed());
        assert!(stack.top.invoke("blockdev", "flush", &[]).is_err());
        let mut sup = Supervisor::new(&mem, builder);
        let recovered = sup.ensure_up().unwrap().expect("machine was down");
        assert_eq!(sup.reboots(), 1);
        // The journaled write survived the crash and the remount.
        let v = recovered
            .top
            .invoke("blockdev", "read", &[Value::Int(3)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xEE);
        // Healthy machine: ensure_up is a no-op.
        assert!(sup.ensure_up().unwrap().is_none());
        assert_eq!(sup.reboots(), 1);
    }
}
