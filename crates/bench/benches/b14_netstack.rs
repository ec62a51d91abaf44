//! E14 — TCP traffic through the full object chain: NIC drivers on a
//! multi-homed machine, a routing object spanning two wires, an in-path
//! L4 port filter and an interposed network monitor.
//!
//! Topology (one machine, four NIC devices, host-side wire shuttles):
//!
//! ```text
//! client A (10.0.0.2)  tcp ── monitor ── driver(nic)   ═wire═ driver(nic1) ┐
//!                                                                          router ── monitor ── tcp  server (10.0.0.1)
//! client B (10.1.0.2)  tcp ──────────── driver(nic3)   ═wire═ driver(nic2) ┘         + L4 filter
//! ```
//!
//! Client B's traffic exercises the router's longest-prefix egress on the
//! 10.1.0.0/24 route; both clients' segments pass the server-side filter
//! and both monitors.
//!
//! Two figures: `connect_batch32` (connections/sec through fresh stacks)
//! and `echo_roundtrip_1024conns` (per-roundtrip cost with 1024
//! established connections live in the endpoint — the many-client
//! steady-state the experiments record as per-packet ns).
//!
//! The `pump_idle_{1k,10k,100k}` rows time one `pump` of an endpoint
//! holding that many established idle connections (two endpoints over a
//! perfect `simlink`). A pump visits only connections with work or a
//! timer due, so the three rows must read flat across N.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paramecium::core::memsvc::MemService;
use paramecium::machine::{dev::nic::Nic, Machine};
use paramecium::netstack::{
    driver::{make_driver, make_driver_on},
    filter::make_l4_port_filter,
    monitor::make_network_monitor,
    route::{make_router, RouteIf},
    simlink::{make_simlink, LinkConfig},
    tcp::{make_tcp, BASE_RTO},
};
use paramecium::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

const SERVER_IP: u32 = 0x0A00_0001; // 10.0.0.1
const SERVER_IP1: u32 = 0x0A01_0001; // 10.1.0.1 (second interface)
const CLIENT_A_IP: u32 = 0x0A00_0002; // 10.0.0.2
const CLIENT_B_IP: u32 = 0x0A01_0002; // 10.1.0.2
const PORT: i64 = 7;

struct Net {
    machine: Arc<Mutex<Machine>>,
    client_a: ObjRef,
    client_b: ObjRef,
    server: ObjRef,
    /// Server-side connection ids, echoed by `server_app`.
    server_conns: Vec<i64>,
}

impl Net {
    fn build() -> Net {
        let machine = Arc::new(Mutex::new(Machine::new()));
        {
            let mut m = machine.lock();
            m.register_device(Box::new(Nic::named("nic1")));
            m.register_device(Box::new(Nic::named("nic2")));
            m.register_device(Box::new(Nic::named("nic3")));
        }
        let mem = Arc::new(MemService::new(machine.clone()));

        // Client A: tcp over a monitored driver on the primary NIC.
        let (mon_a, _stats_a) = make_network_monitor(make_driver(&mem, KERNEL_DOMAIN).unwrap());
        let client_a = make_tcp(machine.clone(), mon_a, CLIENT_A_IP, [2, 0, 0, 0, 0, 0xA]);

        // Client B: tcp straight over its driver.
        let drv_b = make_driver_on(&mem, KERNEL_DOMAIN, "nic3").unwrap();
        let client_b = make_tcp(machine.clone(), drv_b, CLIENT_B_IP, [2, 0, 0, 0, 0, 0xB]);

        // Server: tcp over a monitored router spanning both server NICs,
        // with an L4 port filter on the receive path.
        let router = make_router(vec![
            RouteIf {
                dev: make_driver_on(&mem, KERNEL_DOMAIN, "nic1").unwrap(),
                ip: SERVER_IP,
                mac: [2, 0, 0, 0, 0, 0x51],
            },
            RouteIf {
                dev: make_driver_on(&mem, KERNEL_DOMAIN, "nic2").unwrap(),
                ip: SERVER_IP1,
                mac: [2, 0, 0, 0, 0, 0x52],
            },
        ]);
        for (prefix, ifi) in [(0x0A00_0000u32, 0i64), (0x0A01_0000, 1)] {
            router
                .invoke(
                    "route",
                    "add_route",
                    &[
                        Value::Int(i64::from(prefix)),
                        Value::Int(24),
                        Value::Int(ifi),
                    ],
                )
                .unwrap();
        }
        let (mon_s, _stats_s) = make_network_monitor(router);
        let server = make_tcp(machine.clone(), mon_s, SERVER_IP, [2, 0, 0, 0, 0, 0x51]);
        server
            .invoke(
                "tcp",
                "set_filter",
                &[Value::Handle(make_l4_port_filter(PORT as u16))],
            )
            .unwrap();
        server.invoke("tcp", "listen", &[Value::Int(PORT)]).unwrap();

        Net {
            machine,
            client_a,
            client_b,
            server,
            server_conns: Vec::new(),
        }
    }

    /// Host-side wires: moves transmitted frames between paired NICs.
    fn shuttle(&self) {
        let mut m = self.machine.lock();
        for (from, to) in [
            ("nic", "nic1"),
            ("nic1", "nic"),
            ("nic3", "nic2"),
            ("nic2", "nic3"),
        ] {
            while let Some(frame) = m.device_mut::<Nic>(from).unwrap().tx_take() {
                m.device_mut::<Nic>(to).unwrap().inject_rx(frame);
            }
        }
        m.tick(64);
    }

    /// One scheduler round: everyone pumps, the server app echoes, the
    /// wires move.
    fn round(&mut self) {
        self.client_a.invoke("tcp", "pump", &[]).unwrap();
        self.client_b.invoke("tcp", "pump", &[]).unwrap();
        self.shuttle();
        self.server.invoke("tcp", "pump", &[]).unwrap();
        loop {
            let id = self
                .server
                .invoke("tcp", "accept", &[Value::Int(PORT)])
                .unwrap()
                .as_int()
                .unwrap();
            if id < 0 {
                break;
            }
            self.server_conns.push(id);
        }
        for &id in &self.server_conns {
            let data = self
                .server
                .invoke("tcp", "recv", &[Value::Int(id), Value::Int(1 << 16)])
                .unwrap();
            let data = data.as_bytes().unwrap().clone();
            if !data.is_empty() {
                self.server
                    .invoke("tcp", "send", &[Value::Int(id), Value::Bytes(data)])
                    .unwrap();
            }
        }
        self.server.invoke("tcp", "pump", &[]).unwrap();
        self.shuttle();
    }

    /// Opens `n` connections from the given client, pumping until all are
    /// established server-side. Returns the client-side ids.
    fn open_conns(&mut self, from_a: bool, n: usize) -> Vec<i64> {
        let client = if from_a {
            self.client_a.clone()
        } else {
            self.client_b.clone()
        };
        let mut ids = Vec::with_capacity(n);
        // Batches sized under the NIC RX ring so SYN floods don't drop.
        for batch in (0..n).collect::<Vec<_>>().chunks(24) {
            let before = self.server_conns.len();
            for _ in batch {
                ids.push(
                    client
                        .invoke(
                            "tcp",
                            "connect",
                            &[Value::Int(i64::from(SERVER_IP)), Value::Int(PORT)],
                        )
                        .unwrap()
                        .as_int()
                        .unwrap(),
                );
            }
            let want = before + batch.len();
            for _ in 0..64 {
                self.round();
                if self.server_conns.len() >= want {
                    break;
                }
            }
            assert_eq!(self.server_conns.len(), want, "handshakes complete");
        }
        ids
    }

    /// Sends `payload` on each listed client connection and pumps until
    /// every echo comes back in full.
    fn echo_roundtrips(&mut self, a_ids: &[i64], b_ids: &[i64], payload: &bytes::Bytes) {
        for (client, ids) in [
            (self.client_a.clone(), a_ids),
            (self.client_b.clone(), b_ids),
        ] {
            for &id in ids {
                client
                    .invoke(
                        "tcp",
                        "send",
                        &[Value::Int(id), Value::Bytes(payload.clone())],
                    )
                    .unwrap();
            }
        }
        let mut owed: Vec<(ObjRef, i64, usize)> = a_ids
            .iter()
            .map(|&id| (self.client_a.clone(), id, payload.len()))
            .chain(
                b_ids
                    .iter()
                    .map(|&id| (self.client_b.clone(), id, payload.len())),
            )
            .collect();
        for _ in 0..256 {
            self.round();
            owed.retain_mut(|(client, id, left)| {
                let got = client
                    .invoke("tcp", "recv", &[Value::Int(*id), Value::Int(1 << 16)])
                    .unwrap();
                *left -= got.as_bytes().unwrap().len();
                *left > 0
            });
            if owed.is_empty() {
                return;
            }
        }
        panic!("echoes did not complete");
    }
}

/// Client-side ephemeral ports per destination (49152..=65535).
const EPHEMERAL_PORTS: usize = 16_384;

/// A server endpoint holding `n` established idle connections from one
/// client over a perfect simlink, pumped past every handshake timer.
/// Connections spread over several server ports so the client's
/// ephemeral ports never collide.
fn idle_server(n: usize) -> ObjRef {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let (end_c, end_s) = make_simlink(machine.clone(), LinkConfig::perfect(1));
    let client = make_tcp(machine.clone(), end_c, CLIENT_A_IP, [2, 0, 0, 0, 0, 0xA]);
    let server = make_tcp(machine.clone(), end_s, SERVER_IP, [2, 0, 0, 0, 0, 0x51]);
    let ports = n.div_ceil(EPHEMERAL_PORTS);
    for p in 0..ports {
        let port = PORT + p as i64;
        server.invoke("tcp", "listen", &[Value::Int(port)]).unwrap();
        server
            .invoke(
                "tcp",
                "set_backlog",
                &[Value::Int(port), Value::Int(n as i64)],
            )
            .unwrap();
    }
    for i in 0..n {
        let port = PORT + (i / EPHEMERAL_PORTS) as i64;
        client
            .invoke(
                "tcp",
                "connect",
                &[Value::Int(i64::from(SERVER_IP)), Value::Int(port)],
            )
            .unwrap();
    }
    while machine.lock().now() < 2 * BASE_RTO {
        client.invoke("tcp", "pump", &[]).unwrap();
        server.invoke("tcp", "pump", &[]).unwrap();
        machine.lock().tick(BASE_RTO / 4);
    }
    let established = (0..ports)
        .map(|p| accept_all(&server, PORT + p as i64))
        .sum::<usize>();
    assert_eq!(established, n, "handshakes complete");
    server
}

/// Accepts everything queued on `port`; returns how many.
fn accept_all(server: &ObjRef, port: i64) -> usize {
    std::iter::from_fn(|| {
        let id = server
            .invoke("tcp", "accept", &[Value::Int(port)])
            .unwrap()
            .as_int()
            .unwrap();
        (id >= 0).then_some(id)
    })
    .count()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_netstack");

    // Connections/sec: 32 three-way handshakes through freshly built
    // stacks (fresh stacks keep the figure stationary — an endpoint's
    // pump cost scales with its live-connection table).
    g.throughput(Throughput::Elements(32));
    g.bench_function("connect_batch32", |b| {
        b.iter_with_large_drop(|| {
            let mut net = Net::build();
            let a = net.open_conns(true, 16);
            let bq = net.open_conns(false, 16);
            std::hint::black_box((a, bq));
            net
        })
    });

    // Steady state with 1024 live connections: 32 rotating 256-byte echo
    // roundtrips per iteration, every segment crossing driver → router →
    // filter → monitor. Elements = data segments on the wire (32 out +
    // 32 echoed back), so the report reads as per-packet cost.
    let mut net = Net::build();
    let a_ids = net.open_conns(true, 512);
    let b_ids = net.open_conns(false, 512);
    assert_eq!(net.server_conns.len(), 1024);
    let payload = bytes::Bytes::from(vec![0x42u8; 256]);
    let mut cursor = 0usize;
    g.throughput(Throughput::Elements(64));
    g.bench_function("echo_roundtrip_1024conns", |b| {
        b.iter(|| {
            let a_slice: Vec<i64> = (0..16).map(|i| a_ids[(cursor + i) % 512]).collect();
            let b_slice: Vec<i64> = (0..16).map(|i| b_ids[(cursor + i) % 512]).collect();
            cursor = (cursor + 16) % 512;
            net.echo_roundtrips(&a_slice, &b_slice, &payload);
        })
    });
    drop(net);

    // One pump of an endpoint whose connections are all idle. Each
    // fleet is dropped before the next is built.
    g.throughput(Throughput::Elements(1));
    for (name, n) in [
        ("pump_idle_1k", 1_000),
        ("pump_idle_10k", 10_000),
        ("pump_idle_100k", 100_000),
    ] {
        let server = idle_server(n);
        g.bench_function(name, |b| {
            b.iter(|| server.invoke("tcp", "pump", &[]).unwrap())
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
