//! Request-path benchmark for the Paramecium reproduction.
//!
//! Seeded clients send key-value requests over simulated TCP through a
//! router to a server application in a user protection domain, which
//! reaches a journaled store and a downloaded checksum component
//! through proxies. See `README.md` for the workloads and metrics.

pub mod boundary;
pub mod engine;
pub mod inputs;
pub mod probe;
pub mod proto;
pub mod refclock;
pub mod stats;
pub mod topo;
pub mod trace;

use std::time::{Duration, Instant};

use paramecium::core::CoreError;
use paramecium::obj::ObjError;

pub use engine::{Outcome, Sim, Stop};
pub use inputs::Workload;

/// Bytes per disk sector.
pub const SECTOR: usize = paramecium::machine::dev::disk::SECTOR_SIZE;

/// FNV-1a over `bytes`, continuing from `h` (0 starts a fresh digest).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a run could not produce a result.
#[derive(Debug)]
pub enum Error {
    /// An object invocation failed.
    Obj(ObjError),
    /// A nucleus operation failed.
    Core(CoreError),
    /// The topology could not be set up.
    Setup(String),
    /// The run broke an invariant it checks.
    Check(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Obj(e) => write!(f, "object invocation failed: {e}"),
            Error::Core(e) => write!(f, "nucleus operation failed: {e}"),
            Error::Setup(s) => write!(f, "set-up failed: {s}"),
            Error::Check(s) => write!(f, "check failed: {s}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ObjError> for Error {
    fn from(e: ObjError) -> Error {
        Error::Obj(e)
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Error {
        Error::Core(e)
    }
}

/// One set-up plus timed phase plus post-run store check.
pub struct Phase {
    /// Host time of the set-up (boot, topology, component load,
    /// connections, cache warm-up).
    pub setup: Duration,
    /// The timed phase.
    pub outcome: Outcome,
    /// Sectors that read back wrong after the remount.
    pub bad_sectors: Vec<u32>,
    /// The spans and boundary counts, when traced.
    pub recording: Option<trace::Recording>,
}

/// Removes a half-finished recorder if a traced phase fails.
struct RecorderCleanup;

impl Drop for RecorderCleanup {
    fn drop(&mut self) {
        let _ = trace::finish();
    }
}

/// Sets up `workload` for `seed` and drops it again; returns the set-up
/// time.
pub fn setup_only(workload: Workload, seed: u64) -> Result<Duration, Error> {
    let started = Instant::now();
    let inputs = inputs::Inputs::generate(workload, seed);
    let topo = topo::build(&workload.shape(), &inputs, false)?;
    let took = started.elapsed();
    drop(topo);
    Ok(took)
}

/// Runs one phase of `workload` on `seed`: set up, run until `stop`,
/// check the store. `sim_requests` overrides the workload's simulated
/// prefix length.
pub fn run_phase(
    workload: Workload,
    seed: u64,
    stop: Stop,
    sim_requests: Option<u64>,
    traced: bool,
) -> Result<Phase, Error> {
    let shape = workload.shape();
    let started = Instant::now();
    let mut inputs = inputs::Inputs::generate(workload, seed);
    let _cleanup = traced.then_some(RecorderCleanup);
    let mut topo = topo::build(&shape, &inputs, traced)?;
    let setup = started.elapsed();
    let sim_requests = sim_requests.unwrap_or(shape.sim_requests);
    let outcome = engine::run(&mut topo, &shape, &mut inputs, stop, sim_requests)?;
    let recording = trace::finish();
    let bad_sectors = engine::verify_store(&topo, &inputs, &outcome.oracle)?;
    Ok(Phase {
        setup,
        outcome,
        bad_sectors,
        recording,
    })
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
