//! Command-line entry point of the request-path benchmark.
//!
//! ```text
//! perfbench --workload <kv_read_hot|kv_write_durable|conn_fanout_lossy>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any output check failed, 2 on bad usage.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::boundary::C;
use perfbench::stats::{highest_supported_permille, median};
use perfbench::trace::{check_rows_add_up, Layer, Recording, Span, LAYERS, NO_PARENT};
use perfbench::{peak_rss_mib, run_phase, setup_only, Phase, Stop, Workload};

const USAGE: &str = "usage: perfbench --workload <kv_read_hot|kv_write_durable|conn_fanout_lossy> \
--seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("missing or zero --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The result line plus whether every check passed.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Replies per host second while requests were being sent: the median
/// over 100 ms slices, so a moment the host takes the CPU away moves it
/// no more than it moves the median latency. Runs too short for a
/// slice fall back to the window's mean.
fn req_per_s(p: &Phase) -> f64 {
    let o = &p.outcome;
    if o.slice_rates.is_empty() {
        let (window, done) = o.send_window;
        return done as f64 / window.as_secs_f64();
    }
    median(&mut o.slice_rates.clone())
}

/// The same in replies per ref (see [`perfbench::refclock`]).
fn req_per_ref(p: &Phase) -> f64 {
    let o = &p.outcome;
    if o.slice_ref_rates.is_empty() {
        return req_per_s(p) * o.refs[0].as_secs_f64();
    }
    median(&mut o.slice_ref_rates.clone())
}

/// Output checks common to every phase; prints what failed.
fn phase_ok(label: &str, p: &Phase) -> bool {
    for f in &p.outcome.failures {
        println!("FAILED ({label}): {f}");
    }
    if !p.bad_sectors.is_empty() {
        println!(
            "FAILED ({label}): {} sectors read back wrong after remount, first {:?}",
            p.bad_sectors.len(),
            &p.bad_sectors[..p.bad_sectors.len().min(8)]
        );
    }
    p.outcome.failed == 0 && p.bad_sectors.is_empty()
}

fn end_to_end(args: &Args) -> Result<Report, perfbench::Error> {
    // The timed phase runs on the first set-up, before the others: a
    // dropped world does not return all its memory, and peak memory and
    // speed are the timed world's alone this way.
    let stop = Stop::After(Duration::from_secs(args.seconds));
    let phase = run_phase(args.workload, args.seed, stop, None, false)?;
    let rss = peak_rss_mib().unwrap_or(0.0);
    let mut setups = vec![phase.setup.as_secs_f64()];
    for _ in 1..SETUPS {
        setups.push(setup_only(args.workload, args.seed)?.as_secs_f64());
    }
    let o = &phase.outcome;
    let correct = phase_ok("timed phase", &phase);
    let failed = o.failed + phase.bad_sectors.len() as u64;

    let setup_s = median(&mut setups.clone());
    let rps = req_per_s(&phase);
    let rpr = req_per_ref(&phase);
    let wall = &o.wall_uref;
    let p50 = wall
        .percentile(0.5)
        .expect("at least one request completed");
    let tail = highest_supported_permille(wall.len(), 10).map(|pm| {
        (
            pm,
            wall.percentile(f64::from(pm) / 1000.0)
                .expect("samples")
                .value,
        )
    });
    let ns_p50 = o.wall_ns.percentile(0.5).expect("samples");
    let ns_p99 = o.wall_ns.percentile(0.99).expect("samples");
    let ref_us = median(
        &mut o
            .refs
            .iter()
            .map(|r| r.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let s = &o.sim;

    println!("sim_digest = {:#018x}", s.digest);
    println!(
        "setup_s = {setup_s:.6} s (median of {} set-ups: {setups:.4?})",
        setups.len()
    );
    println!(
        "req_per_ref = {rpr:.3} req/ref (median of {} slices of 100 ms; {} replies in {:.3} s of sending; {} in all after the drain, {:.3} s)",
        o.slice_ref_rates.len(),
        o.send_window.1,
        o.send_window.0.as_secs_f64(),
        o.completed,
        o.wall.as_secs_f64()
    );
    println!(
        "req_wall_p50_mref = {:.3} mref (n={}; highest percentile with >=10 samples beyond: {})",
        p50.value as f64 / 1e3,
        p50.samples,
        tail.map_or("none".into(), |(pm, v)| format!(
            "p{:.1} = {:.3} mref",
            f64::from(pm) / 10.0,
            v as f64 / 1e3
        ))
    );
    println!(
        "host: 1 ref = {ref_us:.1} us (median over the slices); req_per_s = {rps:.1} req/s, host wall p50 = {:.3} us, p99 = {:.3} us (n={})",
        ns_p50.value as f64 / 1e3,
        ns_p99.value as f64 / 1e3,
        ns_p99.samples
    );
    println!(
        "req_cycles_p50 = {:.2} cycles, req_cycles_p99 = {:.2} cycles (n={} prefix requests, interpolated within ties; {})",
        s.cycles_p50,
        s.cycles_p99,
        s.requests,
        highest_supported_permille(s.requests as usize, 10)
            .map_or("no tail".into(), |pm| format!("highest supported p{:.1}", f64::from(pm) / 10.0))
    );
    println!(
        "cycles_per_req = {:.3} cycles/req (over the prefix)",
        s.cycles_per_req
    );
    println!(
        "failed_ratio = {} ({failed} of {} attempted)",
        per(failed as f64, o.attempted as f64),
        o.attempted
    );
    println!("peak_rss_mb = {rss:.2} MiB (after the timed phase, before the extra set-ups)");
    println!("diagnostic: timed-phase cycles = {}", o.cycles);

    let metric = |name: &str, value: f64, unit| Metric {
        name: name.into(),
        value,
        unit,
    };
    Ok(Report {
        correct,
        attempted: o.attempted,
        failed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("req_per_ref", rpr, "req/ref"),
            metric("req_wall_p50_mref", p50.value as f64 / 1e3, "mref"),
            metric("req_cycles_p50", s.cycles_p50, "cycles"),
            metric("req_cycles_p99", s.cycles_p99, "cycles"),
            metric("cycles_per_req", s.cycles_per_req, "cycles/req"),
            metric("peak_rss_mb", rss, "MiB"),
        ],
    })
}

fn write_spans(workload: Workload, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::env::current_exe()?
        .parent()
        .map(|d| d.join("spans"))
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?;
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.tsv", workload.name()));
    let mut out = String::from("layer\tparent\treq\tstart_ns\tend_ns\tstart_cycles\tend_cycles\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            },
            s.req,
            s.start_ns,
            s.end_ns,
            s.start_cyc,
            s.end_cyc
        );
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn per_layer(args: &Args) -> Result<Report, perfbench::Error> {
    let half = Stop::After(Duration::from_millis(args.seconds * 500).max(Duration::from_secs(1)));
    let base = run_phase(args.workload, args.seed, half, None, false)?;
    let traced = run_phase(args.workload, args.seed, half, None, true)?;
    let mut correct = phase_ok("untraced phase", &base) & phase_ok("traced phase", &traced);
    let rec: &Recording = traced.recording.as_ref().expect("traced phase records");
    let o = &traced.outcome;

    if base.outcome.sim != o.sim {
        println!(
            "FAILED: tracing perturbed the simulation: untraced {:?}, traced {:?}",
            base.outcome.sim, o.sim
        );
        correct = false;
    }
    let total = (o.wall.as_nanos() as u64, o.cycles);
    let unattributed = match check_rows_add_up(&rec.totals, rec.roots, total) {
        Ok(u) => u,
        Err(e) => {
            println!("FAILED: {e}");
            correct = false;
            (0, 0)
        }
    };

    let n = o.completed as f64;
    let c = &rec.counts;
    let calls = |l: Layer| rec.totals[l as usize].calls as f64;
    let mut metrics = Vec::new();
    let mut m = |name: String, value: f64, unit| metrics.push(Metric { name, value, unit });

    println!(
        "{:<22} {:>12} {:>14} {:>16} {:>12}",
        "layer", "calls", "calls/req", "self ns/req", "self cyc/req"
    );
    for l in Layer::ALL {
        let t = rec.totals[l as usize];
        println!(
            "{:<22} {:>12} {:>14.3} {:>16.1} {:>12.1}",
            l.name(),
            t.calls,
            per(t.calls as f64, n),
            per(t.self_ns as f64, n),
            per(t.self_cyc as f64, n)
        );
        m(
            format!("{}.calls_per_req", l.name()),
            per(t.calls as f64, n),
            "calls/req",
        );
        m(
            format!("{}.self_ns_per_req", l.name()),
            per(t.self_ns as f64, n),
            "ns/req",
        );
        m(
            format!("{}.self_cycles_per_req", l.name()),
            per(t.self_cyc as f64, n),
            "cycles/req",
        );
    }
    println!(
        "{:<22} {:>12} {:>14} {:>16.1} {:>12.1}",
        "unattributed",
        "",
        "",
        per(unattributed.0 as f64, n),
        per(unattributed.1 as f64, n)
    );
    println!(
        "{:<22} {:>12} {:>14} {:>16.1} {:>12.1}   ({} requests, {} spans; rows + unattributed = total)",
        "total",
        "",
        "",
        per(total.0 as f64, n),
        per(total.1 as f64, n),
        o.completed,
        rec.spans
    );
    m(
        "unattributed.self_ns_per_req".into(),
        per(unattributed.0 as f64, n),
        "ns/req",
    );
    m(
        "unattributed.self_cycles_per_req".into(),
        per(unattributed.1 as f64, n),
        "cycles/req",
    );

    let retrans = [c.get(C::RetransmitsClient), c.get(C::RetransmitsServer)];
    let data_segs = [c.get(C::DataSegsClient), c.get(C::DataSegsServer)];
    for (i, side) in ["client", "server"].iter().enumerate() {
        let pumps = [c.get(C::PumpsClient), c.get(C::PumpsServer)][i];
        m(
            format!("netstack.tcp.{side}.pump_calls_per_req"),
            per(pumps as f64, n),
            "calls/req",
        );
        m(
            format!("netstack.tcp.{side}.retransmits"),
            retrans[i] as f64,
            "count",
        );
        m(
            format!("netstack.tcp.{side}.retransmit_ratio"),
            per(retrans[i] as f64, data_segs[i] as f64),
            "ratio",
        );
    }
    let dropped = (c.dropped(0) + c.dropped(1)).saturating_sub(o.in_flight[0] + o.in_flight[1]);
    m("netstack.simlink.dropped".into(), dropped as f64, "count");
    m(
        "netstack.simlink.reordered".into(),
        c.get(C::Reordered) as f64,
        "count",
    );
    let all = &rec.counts_total;
    m(
        "netstack.arp.hit_ratio".into(),
        per(all.get(C::ArpHits) as f64, all.get(C::ArpResolves) as f64),
        "ratio",
    );
    m(
        "obj.invocations_per_req".into(),
        per(o.invocations as f64, n),
        "calls/req",
    );
    m(
        "core.proxy.crossings_per_req".into(),
        per(calls(Layer::Proxy), n),
        "calls/req",
    );
    m(
        "core.proxy.bytes_per_req".into(),
        per(o.proxy_bytes as f64, n),
        "B/req",
    );
    let steps = if calls(Layer::Sfi) > 0.0 {
        o.internal.component_steps as f64
    } else {
        0.0
    };
    m("sfi.component.steps_per_run".into(), steps, "steps");
    let cache_reads = c.get(C::CacheReadSectors) as f64;
    let misses = c.get(C::JournalReadSectors) as f64;
    m(
        "store.cache.hit_ratio".into(),
        per(cache_reads - misses, cache_reads),
        "ratio",
    );
    m(
        "store.cache.writebacks".into(),
        c.get(C::JournalWriteSectors) as f64,
        "count",
    );
    m(
        "store.journal.commits_per_append".into(),
        per(c.get(C::JournalCommits) as f64, c.get(C::LogAppends) as f64),
        "ratio",
    );
    m(
        "store.journal.checkpoints".into(),
        c.get(C::Checkpoints) as f64,
        "count",
    );
    m(
        "store.retry.retries".into(),
        (calls(Layer::Driver) - calls(Layer::Retry)).max(0.0),
        "count",
    );
    m(
        "store.retry.backoff_cycles".into(),
        rec.totals[Layer::Retry as usize].self_cyc as f64,
        "cycles",
    );
    m(
        "store.driver.sectors_per_transfer".into(),
        per(
            c.get(C::DriverSectors) as f64,
            c.get(C::DriverTransfers) as f64,
        ),
        "sectors",
    );
    m(
        "netstack.tcp.server.conns_live".into(),
        o.conns_live as f64,
        "conns",
    );
    let overhead = req_per_ref(&traced) / req_per_ref(&base);
    m("trace.overhead_ratio".into(), overhead, "ratio");

    println!(
        "trace.overhead_ratio = {overhead:.4} (traced {:.3} req/ref over {} requests ÷ untraced base {:.3} req/ref over {} requests)",
        req_per_ref(&traced),
        o.completed,
        req_per_ref(&base),
        base.outcome.completed
    );
    let i = &o.internal;
    println!(
        "cross-check with layer-internal counters: tcp retransmit timers {:?} (boundary: client {} server {}), \
         link drops {:?} (boundary {dropped}), link reorders {:?} (boundary {})",
        i.tcp_retransmits,
        retrans[0],
        retrans[1],
        i.link_dropped,
        i.link_reordered,
        c.get(C::Reordered)
    );
    println!("sim_digest = {:#018x} (untraced and traced)", o.sim.digest);
    match write_spans(args.workload, args.seed, &rec.sample) {
        Ok(path) => println!("spans: first {} written to {path}", rec.sample.len()),
        Err(e) => println!("spans: not written: {e}"),
    }

    Ok(Report {
        correct,
        attempted: base.outcome.attempted + o.attempted,
        failed: base.outcome.failed
            + o.failed
            + (base.bad_sectors.len() + traced.bad_sectors.len()) as u64,
        metrics,
    })
}

fn json(r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} trace={} seconds={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match report {
        Ok(r) => {
            println!("{}", json(&r));
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

const _: () = assert!(LAYERS == Layer::ALL.len());
