//! The closed-loop engine: seeded clients, the server application, and
//! the output checks.
//!
//! One OS thread runs everything. Each round:
//!
//! 1. the chaos controller applies due faults;
//! 2. the clients read replies on connections with requests in flight,
//!    check them, and send new requests up to the workload's
//!    concurrency;
//! 3. client and server TCP endpoints pump;
//! 4. the server handler accepts, then polls `recv` on every accepted
//!    connection (`netstack::tcp` has no readiness call) and serves
//!    complete requests through the store and checksum proxies;
//! 5. the server pumps again and the clock advances one fixed tick.
//!
//! The simulation is a function of the seed alone, so the first
//! `sim_requests` requests sent are served identically on every run
//! of a seed however fast the host is. The simulated-cycle metrics and
//! the replay digest are taken over that prefix (send order, so slow
//! requests are not left out), `cycles_per_req` over the clock advance
//! until the `sim_requests`-th completion; host-time metrics over the
//! whole timed phase.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::Bytes;

use paramecium::chaos::{ChaosPlan, Fault};
use paramecium::obj::{ObjRef, Value};
use paramecium::store::vectored::{sectors_arg, txn_write_args};

use crate::inputs::{initial_sector, put_payload, Inputs, Op, Request, Shape, HOT_SET};
use crate::proto::{self, status, Parsed, ReplyHeader, ReqHeader, REPLY_HDR};
use crate::stats::{percentile_interpolated, Histogram};
use crate::topo::{self, Topology, PORT};
use crate::trace::{self, Layer};
use crate::{fnv, probe, refclock, Error, SECTOR};

/// Simulated time after which an unanswered request counts as timed out.
const REQUEST_TIMEOUT: u64 = 2_000_000_000;
/// Length of the slices the host-time rates take their median over; a
/// reference run follows each.
const SLICE: Duration = Duration::from_millis(100);
/// Host time without a completed request after which the run gives up.
const STALL: Duration = Duration::from_secs(60);
/// Disk fault windows per chaos plan chunk, and their spacing in cycles.
const FAULT_WINDOWS: usize = 64;
const FAULT_PERIOD: u64 = 1_000_000;
/// Largest transient-error window: below the retry layer's five
/// attempts, so every faulted operation recovers.
const FAULT_MAX_ERRORS: u64 = 3;
/// Link B impairment in the fan-out workload, in permille. Half the
/// connections ride link B and a request stalls when its request or
/// reply segment is lost, so 2 % drop stalls about 2 % of requests:
/// clearly above the 1 % that `req_cycles_p99` looks past. At 1 % the
/// p99 sits on the knee and flips between seeds.
const LOSSY_DROP: i64 = 20;
const LOSSY_REORDER: i64 = 10;

/// When the engine stops sending requests.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much host time (and at least the simulated prefix).
    After(Duration),
    /// After sending exactly this many requests.
    Requests(u64),
}

/// The deterministic part of a run: identical for every run of a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Sim {
    /// Requests in the prefix.
    pub requests: u64,
    /// Median simulated cycles from send to complete reply, interpolated
    /// within ties: latencies cluster on values one request's charge
    /// apart, and the nearest-rank median would jump between them.
    pub cycles_p50: f64,
    /// 99th percentile of the same.
    pub cycles_p99: f64,
    /// Clock advance until the prefix-th completion ÷ prefix length.
    pub cycles_per_req: f64,
    /// Replay digest: TCP segment digests, chaos audit digest and the
    /// digest of every value read back through the store.
    pub digest: u64,
}

/// What one timed phase produced.
#[derive(Debug)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, timed out or answered wrongly.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Requests answered.
    pub completed: u64,
    /// Host time from the first request to the last reply, less the
    /// reference runs between slices.
    pub wall: Duration,
    /// Host time while requests were being sent (less the reference
    /// runs), and the replies completed in it (the drain that follows
    /// waits out stalls and is left out of throughput).
    pub send_window: (Duration, u64),
    /// Replies per second in each whole [`SLICE`] of the sending window.
    pub slice_rates: Vec<f64>,
    /// Replies per ref in each of the same slices.
    pub slice_ref_rates: Vec<f64>,
    /// The ref each slice was measured in: the mean of the reference
    /// runs before and after it.
    pub refs: Vec<Duration>,
    /// Host nanoseconds from each request's send to its complete reply.
    pub wall_ns: Histogram,
    /// The same latencies in micro-refs of the slice they completed in.
    pub wall_uref: Histogram,
    /// The deterministic prefix.
    pub sim: Sim,
    /// Clock advance over the whole timed phase.
    pub cycles: u64,
    /// Σ `Object::invocation_count` over the topology's objects.
    pub invocations: u64,
    /// Bytes the proxies marshalled (`ProxyStats`).
    pub proxy_bytes: u64,
    /// Connections the server holds.
    pub conns_live: usize,
    /// Frames still in flight on each link when the phase ended.
    pub in_flight: [u64; 2],
    /// Layer-internal counters at the end of the phase.
    pub internal: probe::Internal,
    /// Sector values every acknowledged PUT left, for the post-run check.
    pub oracle: HashMap<u32, Bytes>,
}

struct Pending {
    seq: u32,
    req: Request,
    payload: Bytes,
    sum: u64,
    sent_at: Instant,
    sent_cyc: u64,
}

struct ClientConn {
    host: usize,
    id: i64,
    inflight: VecDeque<Pending>,
    rx: Vec<u8>,
    tx: Vec<u8>,
}

struct ServerConn {
    id: i64,
    rx: Vec<u8>,
    tx: Vec<u8>,
}

/// Hands `buf` to `tcp`; keeps whatever the send buffer did not take.
fn push(tcp: &ObjRef, id: i64, buf: &mut Vec<u8>) -> Result<(), Error> {
    if buf.is_empty() {
        return Ok(());
    }
    let data = Bytes::from(std::mem::take(buf));
    let took = tcp
        .invoke("tcp", "send", &[Value::Int(id), Value::Bytes(data.clone())])?
        .as_int()? as usize;
    if took < data.len() {
        *buf = data[took..].to_vec();
    }
    Ok(())
}

fn recv_into(tcp: &ObjRef, id: i64, buf: &mut Vec<u8>) -> Result<(), Error> {
    let got = tcp.invoke("tcp", "recv", &[Value::Int(id), Value::Int(65_536)])?;
    buf.extend_from_slice(got.as_bytes()?);
    Ok(())
}

/// The expected value of `sector`: the last acknowledged PUT, or the
/// initial contents.
fn expected<'a>(
    oracle: &'a HashMap<u32, Bytes>,
    content_seed: u64,
    sector: u32,
    spare: &'a mut [u8; SECTOR],
) -> &'a [u8] {
    match oracle.get(&sector) {
        Some(b) => b,
        None => {
            *spare = initial_sector(content_seed, sector);
            &spare[..]
        }
    }
}

/// Serves one request in the server application.
fn serve(topo: &Topology, h: &ReqHeader, payload: &[u8]) -> Vec<u8> {
    trace::set_request(h.seq);
    let reply = |status, len: usize, sum, body: &[u8]| {
        proto::encode_reply(
            &ReplyHeader {
                status,
                seq: h.seq,
                len: len as u32,
                sum,
            },
            body,
        )
    };
    let sectors = i64::from(h.key)..i64::from(h.key) + i64::from(h.sectors);
    let out = match h.op {
        Op::Get => {
            let got = topo
                .store
                .invoke("blockdev", "read_many", &[sectors_arg(sectors)]);
            let body: Option<Vec<u8>> = got.ok().and_then(|v| {
                let mut body = Vec::with_capacity(usize::from(h.sectors) * SECTOR);
                for s in v.as_list().ok()? {
                    body.extend_from_slice(s.as_bytes().ok()?);
                }
                Some(body)
            });
            match body {
                Some(b) => reply(status::OK, b.len(), 0, &b),
                None => reply(status::REFUSED, 0, 0, &[]),
            }
        }
        Op::Put => {
            let data = Bytes::copy_from_slice(payload);
            let verdict = topo
                .checksum
                .invoke(
                    "component",
                    "run",
                    &[Value::Bytes(data.clone()), Value::Int(0)],
                )
                .and_then(|v| v.as_int());
            match verdict {
                Ok(sum) if sum as u64 == h.sum => match put(topo, sectors.start, &data) {
                    Ok(()) => reply(status::OK, 0, sum as u64, &[]),
                    Err(_) => reply(status::REFUSED, 0, sum as u64, &[]),
                },
                Ok(sum) => reply(status::BAD_CHECKSUM, 0, sum as u64, &[]),
                Err(_) => reply(status::REFUSED, 0, 0, &[]),
            }
        }
    };
    trace::set_request(0);
    out
}

/// Writes `data` at `key` as one journal transaction through the cache;
/// returns once `commit` does.
fn put(topo: &Topology, key: i64, data: &Bytes) -> Result<(), Error> {
    let txn = topo.store.invoke("blockdev", "begin_txn", &[])?.as_int()?;
    for (i, chunk) in (0..data.len()).step_by(SECTOR).enumerate() {
        let r = topo.store.invoke(
            "blockdev",
            "txn_write",
            &txn_write_args(txn, key + i as i64, data.slice(chunk..chunk + SECTOR)),
        );
        if let Err(e) = r {
            let _ = topo.store.invoke("blockdev", "abort", &[Value::Int(txn)]);
            return Err(e.into());
        }
    }
    topo.store
        .invoke("blockdev", "commit", &[Value::Int(txn)])?;
    Ok(())
}

/// Arms the next chunk of disk transient-error windows, starting at
/// `start`; returns where the chunk ends.
fn arm_disk_faults(topo: &mut Topology, seed: u64, chunk: u64, start: u64) -> u64 {
    let sizes = crate::inputs::mix(seed ^ chunk);
    let faults = (0..FAULT_WINDOWS)
        .map(|i| Fault::DiskTransientErrors {
            disk: "disk".into(),
            count: 1 + (crate::inputs::mix(sizes ^ i as u64) % FAULT_MAX_ERRORS),
        })
        .collect();
    let window = FAULT_WINDOWS as u64 * FAULT_PERIOD;
    topo.chaos
        .arm(ChaosPlan::jittered(seed ^ chunk, start, window, faults));
    start + window
}

/// Runs one timed phase on a built topology.
pub fn run(
    topo: &mut Topology,
    shape: &Shape,
    inputs: &mut Inputs,
    stop: Stop,
    sim_requests: u64,
) -> Result<Outcome, Error> {
    let content_seed = inputs.content_seed;
    let mut conns: Vec<ClientConn> = topo
        .client_conns
        .iter()
        .map(|&(host, id)| ClientConn {
            host,
            id,
            inflight: VecDeque::new(),
            rx: Vec::new(),
            tx: Vec::new(),
        })
        .collect();
    let mut served: Vec<ServerConn> = topo
        .server_conns
        .iter()
        .map(|&id| ServerConn {
            id,
            rx: Vec::new(),
            tx: Vec::new(),
        })
        .collect();
    let mut active: BTreeSet<usize> = BTreeSet::new();
    let mut oracle: HashMap<u32, Bytes> = HashMap::new();
    let mut spare = [0u8; SECTOR];

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut completed = 0u64;
    let mut inflight = 0usize;
    let mut next_req: Option<Request> = None;
    let mut wall_ns = Histogram::default();
    let mut wall_uref = Histogram::default();
    let mut slice_lat: Vec<Duration> = Vec::new();
    let mut sim_cycles: Vec<u64> = Vec::new();
    let mut readback = 0u64;
    let mut prefix_cycles = 0u64;
    let mut sim: Option<Sim> = None;

    let invocations0: u64 = topo.raw.all.iter().map(|o| o.invocation_count()).sum();
    let proxy_stats = topo.world.nucleus.proxy_stats().clone();
    let proxy_bytes0 = proxy_stats.bytes();
    let t0_cyc = topo.machine.lock().now();
    if shape.lossy_link_b {
        let impair = |dir| Fault::Impair {
            link: topo.link_b,
            dir,
            drop_permille: LOSSY_DROP,
            dup_permille: 0,
            reorder_permille: LOSSY_REORDER,
            corrupt_permille: 0,
        };
        let plan = ChaosPlan::new().at(t0_cyc, impair(0)).at(t0_cyc, impair(1));
        topo.chaos.arm(plan);
    }
    let mut fault_chunk = 0u64;
    let mut fault_end = t0_cyc;
    let mut ref_before = refclock::reference_run();
    let mut refs = Vec::new();
    let mut paused = Duration::ZERO;
    trace::arm();
    let started = Instant::now();
    let mut last_progress = started;
    let mut send_window: Option<(Duration, u64)> = None;
    let mut slice = (started, 0u64);
    let mut slice_rates = Vec::new();
    let mut slice_ref_rates = Vec::new();

    loop {
        let now = Instant::now();
        let sending = match stop {
            Stop::After(d) => sim.is_none() || now - started < d,
            Stop::Requests(n) => attempted < n,
        };
        if !sending && send_window.is_none() {
            send_window = Some((now - started - paused, completed));
        }
        if sending && now - slice.0 >= SLICE {
            // Close the slice, run the reference kernel, and keep its
            // time out of every host-time measure: the slices, the
            // latencies of requests in flight, and the phase's wall time.
            let rate = (completed - slice.1) as f64 / (now - slice.0).as_secs_f64();
            let ref_after = refclock::reference_run();
            let reference = (ref_before + ref_after) / 2;
            ref_before = ref_after;
            slice_rates.push(rate);
            slice_ref_rates.push(rate * reference.as_secs_f64());
            refs.push(reference);
            for lat in slice_lat.drain(..) {
                wall_uref.record(refclock::micro_refs(lat, reference));
            }
            let pause = now.elapsed();
            for &ci in &active {
                for p in conns[ci].inflight.iter_mut() {
                    p.sent_at += pause;
                }
            }
            paused += pause;
            last_progress += pause;
            slice = (Instant::now(), completed);
        }
        if !sending && inflight == 0 {
            break;
        }
        if now - last_progress > STALL {
            return Err(Error::Check(format!(
                "no reply for {STALL:?} with {inflight} requests in flight"
            )));
        }

        {
            let _s = trace::enter(Layer::Chaos);
            topo.chaos.poll()?;
            if shape.disk_faults && topo.chaos.pending() == 0 {
                fault_end = arm_disk_faults(
                    topo,
                    inputs.chaos_seed,
                    fault_chunk,
                    fault_end + FAULT_PERIOD,
                );
                fault_chunk += 1;
            }
        }

        {
            let _s = trace::enter(Layer::AppClient);
            let now_cyc = topo.machine.lock().now();
            let ids: Vec<usize> = active.iter().copied().collect();
            for ci in ids {
                let c = &mut conns[ci];
                let tcp = &topo.clients[c.host];
                push(tcp, c.id, &mut c.tx)?;
                recv_into(tcp, c.id, &mut c.rx)?;
                loop {
                    let (h, len) = match proto::parse_reply(&c.rx) {
                        Parsed::Incomplete => break,
                        Parsed::Malformed => return Err(Error::Check("malformed reply".into())),
                        Parsed::Message(h, len) => (h, len),
                    };
                    let Some(p) = c.inflight.pop_front() else {
                        return Err(Error::Check(format!("unsolicited reply {}", h.seq)));
                    };
                    inflight -= 1;
                    completed += 1;
                    last_progress = Instant::now();
                    let lat = last_progress - p.sent_at;
                    wall_ns.record(lat.as_nanos() as u64);
                    slice_lat.push(lat);
                    let body = &c.rx[REPLY_HDR..len];
                    let ok = h.seq == p.seq
                        && h.status == status::OK
                        && match p.req.op {
                            Op::Get => {
                                body.len() == usize::from(p.req.sectors) * SECTOR
                                    && p.req.range().zip(body.chunks(SECTOR)).all(|(s, got)| {
                                        got == expected(&oracle, content_seed, s, &mut spare)
                                    })
                            }
                            Op::Put => h.sum == p.sum,
                        };
                    if ok {
                        if p.req.op == Op::Put {
                            for (i, s) in p.req.range().enumerate() {
                                oracle.insert(s, p.payload.slice(i * SECTOR..(i + 1) * SECTOR));
                            }
                        }
                    } else {
                        failed += 1;
                        if failures.len() < 8 {
                            failures.push(format!(
                                "request {} ({:?} {}+{}): status {} seq {} sum {} (expected {})",
                                p.seq,
                                p.req.op,
                                p.req.key,
                                p.req.sectors,
                                h.status,
                                h.seq,
                                h.sum,
                                p.sum
                            ));
                        }
                    }
                    if completed == sim_requests {
                        prefix_cycles = now_cyc - t0_cyc;
                    }
                    if u64::from(p.seq) <= sim_requests {
                        sim_cycles.push(now_cyc - p.sent_cyc);
                        readback = fnv(readback, &p.seq.to_le_bytes());
                        readback = fnv(readback, &[u8::from(ok)]);
                        let sum = h.sum.to_le_bytes();
                        readback = fnv(readback, if p.req.op == Op::Get { body } else { &sum });
                        if sim_cycles.len() as u64 == sim_requests {
                            let internal = probe::read(topo)?;
                            let mut digest = fnv(0, &readback.to_le_bytes());
                            digest = fnv(digest, &topo.chaos.audit_digest().to_le_bytes());
                            for d in internal.tcp_digests {
                                digest = fnv(digest, &d.to_le_bytes());
                            }
                            sim = Some(Sim {
                                requests: sim_requests,
                                cycles_p50: percentile_interpolated(&mut sim_cycles, 0.50)
                                    .unwrap_or(0.0),
                                cycles_p99: percentile_interpolated(&mut sim_cycles, 0.99)
                                    .unwrap_or(0.0),
                                cycles_per_req: prefix_cycles as f64 / sim_requests as f64,
                                digest,
                            });
                        }
                    }
                    c.rx.drain(..len);
                }
                if c.inflight.is_empty() && c.tx.is_empty() {
                    active.remove(&ci);
                } else if let Some(p) = c.inflight.front() {
                    if now_cyc - p.sent_cyc > REQUEST_TIMEOUT {
                        return Err(Error::Check(format!("request {} timed out", p.seq)));
                    }
                }
            }

            // Send up to the workload's concurrency. A request that
            // touches sectors a PUT in flight touches (or a PUT touching
            // sectors in flight) waits, so every reply has one right
            // answer.
            let under_cap = |attempted: u64| match stop {
                Stop::Requests(n) => attempted < n,
                Stop::After(_) => true,
            };
            while sending && under_cap(attempted) && inflight < shape.outstanding {
                let req = *next_req.get_or_insert_with(|| {
                    inputs
                        .requests
                        .next()
                        .expect("the request stream is endless")
                });
                let conflict = shape.put_permille > 0
                    && active.iter().any(|&ci| {
                        conns[ci].inflight.iter().any(|p| {
                            (p.req.op == Op::Put || req.op == Op::Put)
                                && p.req.key < req.range().end
                                && req.key < p.req.range().end
                        })
                    });
                if conflict {
                    break;
                }
                let ci = match req.conn {
                    Some(c) => c as usize,
                    None => match conns.iter().position(|c| c.inflight.is_empty()) {
                        Some(ci) => ci,
                        None => break,
                    },
                };
                next_req = None;
                attempted += 1;
                let seq = attempted as u32;
                let payload = match req.op {
                    Op::Get => Bytes::new(),
                    Op::Put => Bytes::from(put_payload(&req)),
                };
                let sum = proto::byte_sum(&payload);
                let frame = proto::encode_request(
                    &ReqHeader {
                        op: req.op,
                        sectors: req.sectors,
                        key: req.key,
                        seq,
                        sum,
                    },
                    &payload,
                );
                let c = &mut conns[ci];
                c.tx.extend_from_slice(&frame);
                trace::set_request(seq);
                push(&topo.clients[c.host], c.id, &mut c.tx)?;
                trace::set_request(0);
                c.inflight.push_back(Pending {
                    seq,
                    req,
                    payload,
                    sum,
                    sent_at: Instant::now(),
                    sent_cyc: topo.machine.lock().now(),
                });
                inflight += 1;
                active.insert(ci);
            }
        }

        for tcp in &topo.clients {
            tcp.invoke("tcp", "pump", &[])?;
        }
        topo.server.invoke("tcp", "pump", &[])?;

        {
            let _s = trace::enter(Layer::AppHandler);
            loop {
                let id = topo
                    .server
                    .invoke("tcp", "accept", &[Value::Int(PORT)])?
                    .as_int()?;
                if id < 0 {
                    break;
                }
                served.push(ServerConn {
                    id,
                    rx: Vec::new(),
                    tx: Vec::new(),
                });
            }
            for s in served.iter_mut() {
                push(&topo.server, s.id, &mut s.tx)?;
                recv_into(&topo.server, s.id, &mut s.rx)?;
                loop {
                    match proto::parse_request(&s.rx) {
                        Parsed::Incomplete => break,
                        Parsed::Malformed => {
                            // Answer once, then drop what cannot be framed.
                            s.tx.extend(proto::encode_reply(
                                &ReplyHeader {
                                    status: status::BAD_REQUEST,
                                    seq: 0,
                                    len: 0,
                                    sum: 0,
                                },
                                &[],
                            ));
                            s.rx.clear();
                        }
                        Parsed::Message(h, len) => {
                            let reply = serve(topo, &h, &s.rx[proto::REQ_HDR..len]);
                            s.tx.extend_from_slice(&reply);
                            s.rx.drain(..len);
                        }
                    }
                }
                push(&topo.server, s.id, &mut s.tx)?;
            }
        }
        topo.server.invoke("tcp", "pump", &[])?;
        topo.machine.lock().tick(shape.tick);
    }
    let wall = started.elapsed() - paused;
    let cycles = topo.machine.lock().now() - t0_cyc;
    trace::disarm();
    // Replies after the last slice (the drain, or a run too short for a
    // slice) count in the last reference measured.
    for lat in slice_lat.drain(..) {
        wall_uref.record(refclock::micro_refs(lat, ref_before));
    }
    if refs.is_empty() {
        refs.push(ref_before);
    }

    // Let the last frames land so link counts settle, then count what is
    // still in flight (a tick exceeds every link delay, so everything
    // sent is deliverable).
    for _ in 0..2 {
        for tcp in topo.clients.iter().chain([&topo.server]) {
            tcp.invoke("tcp", "pump", &[])?;
        }
        topo.machine.lock().tick(shape.tick);
    }
    let mut in_flight = [0u64; 2];
    for (i, end) in topo.raw.link_ends.iter().enumerate() {
        in_flight[i / 2] += end.invoke("netdev", "pending", &[])?.as_int()? as u64;
    }

    let sim = sim.ok_or_else(|| {
        Error::Check(format!(
            "only {completed} requests completed; the simulated prefix needs {sim_requests}"
        ))
    })?;
    let invocations = topo
        .raw
        .all
        .iter()
        .map(|o| o.invocation_count())
        .sum::<u64>()
        - invocations0;
    Ok(Outcome {
        attempted,
        failed,
        failures,
        completed,
        wall,
        send_window: send_window.expect("the loop ends after sending stops"),
        slice_rates,
        slice_ref_rates,
        refs,
        wall_ns,
        wall_uref,
        sim,
        cycles,
        invocations,
        proxy_bytes: proxy_stats.bytes() - proxy_bytes0,
        conns_live: served.len(),
        in_flight,
        internal: probe::read(topo)?,
        oracle,
    })
}

/// The post-run check: flush, remount the store on the same disk
/// (replaying the journal), and read back every sector an acknowledged
/// PUT wrote plus the hot set. Returns the mismatching sectors.
pub fn verify_store(
    topo: &Topology,
    inputs: &Inputs,
    oracle: &HashMap<u32, Bytes>,
) -> Result<Vec<u32>, Error> {
    let top = topo::remount(topo)?;
    let mut sectors: Vec<u32> = oracle.keys().copied().chain(0..HOT_SET).collect();
    sectors.sort_unstable();
    sectors.dedup();
    let mut bad = Vec::new();
    let mut spare = [0u8; SECTOR];
    for chunk in sectors.chunks(64) {
        let got = top.invoke(
            "blockdev",
            "read_many",
            &[sectors_arg(chunk.iter().map(|&s| i64::from(s)))],
        )?;
        for (&s, v) in chunk.iter().zip(got.as_list()?) {
            if v.as_bytes()?.as_ref() != expected(oracle, inputs.content_seed, s, &mut spare) {
                bad.push(s);
            }
        }
    }
    Ok(bad)
}
