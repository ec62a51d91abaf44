//! The simulated half of every workload is a function of the seed: the
//! same seed replays identically, another seed diverges, and tracing
//! (agents at every layer boundary) leaves the modelled machine
//! untouched.

use perfbench::trace::{check_rows_add_up, Layer};
use perfbench::{run_phase, Phase, Stop, Workload};

/// Requests per phase and the simulated prefix taken over them.
const REQUESTS: u64 = 400;
const PREFIX: u64 = 300;

fn phase(workload: Workload, seed: u64, traced: bool) -> Phase {
    let p = run_phase(
        workload,
        seed,
        Stop::Requests(REQUESTS),
        Some(PREFIX),
        traced,
    )
    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
    assert_eq!(p.outcome.failed, 0, "{:?}", p.outcome.failures);
    assert!(p.bad_sectors.is_empty(), "{:?}", p.bad_sectors);
    assert_eq!(p.outcome.completed, REQUESTS);
    p
}

#[test]
fn same_seed_replays_the_same_simulation() {
    for w in Workload::ALL {
        let a = phase(w, 11, false);
        let b = phase(w, 11, false);
        assert_eq!(a.outcome.sim, b.outcome.sim, "{}", w.name());
        assert_eq!(a.outcome.sim.requests, PREFIX);
    }
}

#[test]
fn another_seed_gives_another_digest() {
    for w in Workload::ALL {
        let a = phase(w, 21, false);
        let b = phase(w, 22, false);
        assert_ne!(a.outcome.sim.digest, b.outcome.sim.digest, "{}", w.name());
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    for w in Workload::ALL {
        let plain = phase(w, 31, false);
        let traced = phase(w, 31, true);
        assert_eq!(plain.outcome.sim, traced.outcome.sim, "{}", w.name());
        assert!(plain.recording.is_none());
        let rec = traced.recording.expect("a traced phase records");
        let o = &traced.outcome;
        check_rows_add_up(&rec.totals, rec.roots, (o.wall.as_nanos() as u64, o.cycles))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        // Every request crossed the proxy into the store or component.
        assert!(rec.totals[Layer::Proxy as usize].calls >= REQUESTS);
    }
}
