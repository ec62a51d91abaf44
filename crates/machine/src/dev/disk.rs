//! A simple sector-addressed disk.
//!
//! Synchronous (polled) on purpose: the interesting costs for the
//! shared-cache experiments are the per-sector transfer latencies, which
//! drivers charge through the cost model when they issue operations.

use crate::{cost::Cycles, irq::IrqController, MachineError, MachineResult};

use super::Device;

/// Sector size in bytes.
pub const SECTOR_SIZE: usize = 512;

/// Simulated cost of one sector transfer (seek amortised away; early-90s
/// SCSI moved ~1 sector per ~10⁴ cycles).
pub const SECTOR_TRANSFER_COST: Cycles = 10_000;

/// Simulated cost of each *additional* sector in one batched request. A
/// batch pays the full request setup once ([`SECTOR_TRANSFER_COST`]) and
/// then streams: the controller overlaps seek/rotation with transfer, so
/// follow-on sectors cost only the media rate.
pub const SECTOR_STREAM_COST: Cycles = 2_000;

/// Cost of transferring `sectors` sectors in one batched request:
/// full setup for the first sector, streaming rate for the rest.
pub fn batch_transfer_cost(sectors: usize) -> Cycles {
    match sectors {
        0 => 0,
        n => SECTOR_TRANSFER_COST + (n as Cycles - 1) * SECTOR_STREAM_COST,
    }
}

/// Register offsets.
pub mod regs {
    /// R: total sectors.
    pub const SECTOR_COUNT: u64 = 0x0;
    /// R: completed reads.
    pub const READS: u64 = 0x4;
    /// R: completed writes.
    pub const WRITES: u64 = 0x8;
}

/// The disk device.
pub struct Disk {
    data: Vec<u8>,
    reads: u64,
    writes: u64,
    /// Injected fault window: the next N sector transfers fail with a
    /// *transient* error (the retryable class — a recoverable media or
    /// bus hiccup, not a power loss or a bad address).
    transient_errors: u64,
    /// Injected latency spike: extra cycles per sector transfer...
    latency_extra: Cycles,
    /// ...for this many more transfers.
    latency_ops: u64,
    transient_fired: u64,
}

impl Disk {
    /// Creates a zeroed disk with `sectors` sectors.
    pub fn new(sectors: usize) -> Self {
        Disk {
            data: vec![0; sectors * SECTOR_SIZE],
            reads: 0,
            writes: 0,
            transient_errors: 0,
            latency_extra: 0,
            latency_ops: 0,
            transient_fired: 0,
        }
    }

    /// Arms a transient-fault window: the next `n` sector reads/writes
    /// fail with an error whose message contains `"transient"` (the class
    /// `store::retry` retries). Torn crash writes are unaffected — a
    /// power failure is not a transient condition.
    pub fn inject_transient_errors(&mut self, n: u64) {
        self.transient_errors = n;
    }

    /// Arms a latency spike: the next `ops` sector transfers each take
    /// `extra` additional cycles (charged by the driver issuing them).
    pub fn inject_latency(&mut self, extra: Cycles, ops: u64) {
        self.latency_extra = extra;
        self.latency_ops = ops;
    }

    /// Clears any armed fault windows — what a power cycle does to a
    /// transient condition. [`crate::Machine::reboot`] does not know
    /// about devices, so supervisors call this explicitly.
    pub fn clear_faults(&mut self) {
        self.transient_errors = 0;
        self.latency_extra = 0;
        self.latency_ops = 0;
    }

    /// Driver side: extra cycles the next sector transfer costs under the
    /// armed latency spike (0 once the window is exhausted). Consumes one
    /// op from the window.
    pub fn take_op_latency(&mut self) -> Cycles {
        if self.latency_ops == 0 {
            return 0;
        }
        self.latency_ops -= 1;
        self.latency_extra
    }

    /// Transient errors injected so far (fired, not armed).
    pub fn transient_fired(&self) -> u64 {
        self.transient_fired
    }

    /// Consumes one armed transient fault, if any.
    fn fault_check(&mut self) -> MachineResult<()> {
        if self.transient_errors > 0 {
            self.transient_errors -= 1;
            self.transient_fired += 1;
            return Err(MachineError::Device(
                "disk: transient I/O error (injected)".into(),
            ));
        }
        Ok(())
    }

    /// Number of sectors.
    pub fn sectors(&self) -> usize {
        self.data.len() / SECTOR_SIZE
    }

    /// Reads one sector (driver side; the driver charges transfer cost).
    pub fn read_sector(&mut self, idx: u64) -> MachineResult<[u8; SECTOR_SIZE]> {
        self.fault_check()?;
        let start = (idx as usize)
            .checked_mul(SECTOR_SIZE)
            .filter(|s| s + SECTOR_SIZE <= self.data.len())
            .ok_or_else(|| MachineError::Device(format!("disk: sector {idx} out of range")))?;
        self.reads += 1;
        let mut out = [0u8; SECTOR_SIZE];
        out.copy_from_slice(&self.data[start..start + SECTOR_SIZE]);
        Ok(out)
    }

    /// Writes one sector.
    pub fn write_sector(&mut self, idx: u64, buf: &[u8; SECTOR_SIZE]) -> MachineResult<()> {
        self.fault_check()?;
        let start = (idx as usize)
            .checked_mul(SECTOR_SIZE)
            .filter(|s| s + SECTOR_SIZE <= self.data.len())
            .ok_or_else(|| MachineError::Device(format!("disk: sector {idx} out of range")))?;
        self.writes += 1;
        self.data[start..start + SECTOR_SIZE].copy_from_slice(buf);
        Ok(())
    }

    /// Writes only the first `prefix` bytes of a sector, leaving the rest
    /// as it was — the *torn write* a power failure leaves behind when it
    /// interrupts a sector transfer mid-stream. Only crash injection uses
    /// this; a torn sector is exactly what journal checksums exist to
    /// detect and reject at recovery.
    pub fn write_sector_prefix(
        &mut self,
        idx: u64,
        buf: &[u8; SECTOR_SIZE],
        prefix: usize,
    ) -> MachineResult<()> {
        let prefix = prefix.min(SECTOR_SIZE);
        let start = (idx as usize)
            .checked_mul(SECTOR_SIZE)
            .filter(|s| s + SECTOR_SIZE <= self.data.len())
            .ok_or_else(|| MachineError::Device(format!("disk: sector {idx} out of range")))?;
        self.data[start..start + prefix].copy_from_slice(&buf[..prefix]);
        Ok(())
    }

    /// Completed read count.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Completed write count.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

impl Device for Disk {
    fn name(&self) -> &str {
        "disk"
    }

    fn read_reg(&mut self, offset: u64) -> MachineResult<u32> {
        match offset {
            regs::SECTOR_COUNT => Ok(self.sectors() as u32),
            regs::READS => Ok(self.reads as u32),
            regs::WRITES => Ok(self.writes as u32),
            _ => Err(MachineError::Device(format!(
                "disk: bad register {offset:#x}"
            ))),
        }
    }

    fn write_reg(&mut self, offset: u64, _value: u32) -> MachineResult<()> {
        Err(MachineError::Device(format!(
            "disk: register {offset:#x} is read-only"
        )))
    }

    fn tick(&mut self, _now: Cycles, _irq: &mut IrqController) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_roundtrip() {
        let mut d = Disk::new(8);
        let mut buf = [0u8; SECTOR_SIZE];
        buf[0] = 0xAA;
        buf[511] = 0x55;
        d.write_sector(3, &buf).unwrap();
        assert_eq!(d.read_sector(3).unwrap(), buf);
        assert_eq!(d.read_sector(2).unwrap(), [0u8; SECTOR_SIZE]);
        assert_eq!((d.read_count(), d.write_count()), (2, 1));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Disk::new(4);
        assert!(d.read_sector(4).is_err());
        assert!(d.write_sector(u64::MAX, &[0u8; SECTOR_SIZE]).is_err());
    }

    #[test]
    fn torn_write_leaves_a_mixed_sector() {
        let mut d = Disk::new(4);
        d.write_sector(2, &[0xAAu8; SECTOR_SIZE]).unwrap();
        d.write_sector_prefix(2, &[0xBBu8; SECTOR_SIZE], 100)
            .unwrap();
        let s = d.read_sector(2).unwrap();
        assert!(s[..100].iter().all(|&b| b == 0xBB));
        assert!(s[100..].iter().all(|&b| b == 0xAA));
        assert!(d.write_sector_prefix(4, &[0u8; SECTOR_SIZE], 1).is_err());
    }

    #[test]
    fn batch_cost_amortises_setup() {
        assert_eq!(batch_transfer_cost(0), 0);
        assert_eq!(batch_transfer_cost(1), SECTOR_TRANSFER_COST);
        assert!(batch_transfer_cost(256) < 256 * SECTOR_TRANSFER_COST);
        assert_eq!(
            batch_transfer_cost(4),
            SECTOR_TRANSFER_COST + 3 * SECTOR_STREAM_COST
        );
    }

    #[test]
    fn injected_faults_fire_then_clear() {
        let mut d = Disk::new(4);
        d.inject_transient_errors(2);
        let e = d.read_sector(0).unwrap_err();
        assert!(e.to_string().contains("transient"), "{e}");
        assert!(d.write_sector(0, &[0u8; SECTOR_SIZE]).is_err());
        // Window exhausted: back to normal.
        d.read_sector(0).unwrap();
        assert_eq!(d.transient_fired(), 2);
        // Torn crash writes bypass the transient window entirely.
        d.inject_transient_errors(1);
        d.write_sector_prefix(1, &[0xCC; SECTOR_SIZE], 8).unwrap();
        // Latency spikes decay per consumed op, and clear_faults drops
        // everything armed.
        d.inject_latency(5_000, 2);
        assert_eq!(d.take_op_latency(), 5_000);
        d.clear_faults();
        assert_eq!(d.take_op_latency(), 0);
        d.read_sector(2).unwrap();
    }

    #[test]
    fn registers_report_counts() {
        let mut d = Disk::new(16);
        d.read_sector(0).unwrap();
        assert_eq!(d.read_reg(regs::SECTOR_COUNT).unwrap(), 16);
        assert_eq!(d.read_reg(regs::READS).unwrap(), 1);
        assert!(d.write_reg(regs::READS, 9).is_err());
    }
}
