//! The system under test: one booted world, two client hosts, a router,
//! the server endpoint, and a journaled store reached from a user
//! protection domain through a proxy.
//!
//! ```text
//! client A: tcp → arp → simlink A ─┐                ┌ proxy → cache → journal → retry → driver → disk
//!                                  ├ arp → route → tcp (server, filter) → handler (user domain)
//! client B: tcp → arp → simlink B ─┘                └ proxy → checksum component (verified SFI)
//! ```
//!
//! In a traced build every arrow above is a tracing agent
//! ([`crate::trace::agent`]). Untraced builds are the same objects
//! wired directly.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium::chaos::ChaosController;
use paramecium::core::domain::KERNEL_DOMAIN;
use paramecium::core::{LoadOptions, Protection};
use paramecium::harness::World;
use paramecium::machine::Machine;
use paramecium::netstack::arp::make_arp;
use paramecium::netstack::make_l4_port_filter;
use paramecium::netstack::route::{make_router, RouteIf};
use paramecium::netstack::simlink::{make_simlink, LinkConfig};
use paramecium::netstack::tcp::make_tcp;
use paramecium::obj::{ObjRef, Value};
use paramecium::sfi::workloads::checksum_loop_verified;
use paramecium::store::vectored::{pairs_arg, sectors_arg};
use paramecium::store::{make_retry, mount_journal, JournalConfig, RetryConfig, StackBuilder};

use crate::boundary::Role;
use crate::inputs::{initial_sector, Inputs, Shape};
use crate::trace::{self, Layer};
use crate::{Error, SECTOR};

/// Server address (router interface 0 and the server endpoint).
pub const SERVER_IP: u32 = 0x0A00_0001;
const IF1_IP: u32 = 0x0A01_0001;
const CLIENT_IPS: [u32; 2] = [0x0A00_0002, 0x0A01_0002];
const IF_MACS: [[u8; 6]; 2] = [[2, 0, 0, 0, 0, 0x01], [2, 0, 0, 0, 0, 0x02]];
const SERVER_MAC: [u8; 6] = [2, 0, 0, 0, 0, 0x51];
const CLIENT_MACS: [[u8; 6]; 2] = [[2, 0, 0, 0, 0, 0xA1], [2, 0, 0, 0, 0, 0xB1]];
/// The service port.
pub const PORT: i64 = 7070;

/// Block-cache capacity in sectors, and its shard count.
pub const CACHE_SECTORS: usize = 2_048;
const CACHE_SHARDS: usize = 4;
/// Size of the checksum component's data segment: the largest value.
const CHECKSUM_SEGMENT: u32 = 8 * SECTOR as u32;
/// Keepalive interval the server arms in the fan-out workload.
const KEEPALIVE: i64 = 5_000_000;
/// Clock advance per set-up round; handshakes only, so coarse.
const SETUP_TICK: u64 = 1_000;
const SETUP_ROUNDS: usize = 2_000;

/// Name-space paths.
const STORE_PATH: &str = "/kv/store";
const CHECKSUM_PATH: &str = "/kv/checksum";

/// The undecorated objects, for the boundary adapter, invocation counts
/// and the post-run store check.
pub struct Raw {
    /// Client A, client B and server TCP endpoints.
    pub tcp: [ObjRef; 3],
    /// Link ends: A router side, A client side, B router side, B client side.
    pub link_ends: [ObjRef; 4],
    /// The store's top (the cache), kernel side.
    pub cache: ObjRef,
    /// The loaded checksum component, kernel side.
    pub component: ObjRef,
    /// Every object of the topology (agents excluded).
    pub all: Vec<ObjRef>,
}

/// A built, connected and warmed topology.
pub struct Topology {
    /// The booted world (nucleus, machine, authorities).
    pub world: World,
    /// The world's machine.
    pub machine: Arc<Mutex<Machine>>,
    /// Client host TCP endpoints (A, B), as the clients call them.
    pub clients: [ObjRef; 2],
    /// The server TCP endpoint, as the handler calls it.
    pub server: ObjRef,
    /// The store, bound from the app domain.
    pub store: ObjRef,
    /// The checksum component, bound from the app domain.
    pub checksum: ObjRef,
    /// Chaos controller with both links registered.
    pub chaos: ChaosController,
    /// Chaos handle of link B.
    pub link_b: usize,
    /// Client connections: (host, connection id).
    pub client_conns: Vec<(usize, i64)>,
    /// Server connection ids, in accept order.
    pub server_conns: Vec<i64>,
    /// Undecorated objects.
    pub raw: Raw,
}

fn int(v: Value) -> Result<i64, Error> {
    Ok(v.as_int()?)
}

/// Boots and wires everything, opens the workload's connections and
/// warms the cache. With `traced`, installs the recorder and an agent at
/// every boundary.
pub fn build(shape: &Shape, inputs: &Inputs, traced: bool) -> Result<Topology, Error> {
    let world = World::boot();
    let nucleus = world.nucleus.clone();
    let machine = nucleus.machine().clone();
    if traced {
        trace::install(machine.clone());
    }
    let wrap = |obj: &ObjRef, layer: Layer, role: Role| {
        if traced {
            trace::agent(obj.clone(), layer, role)
        } else {
            obj.clone()
        }
    };
    let mut all: Vec<ObjRef> = Vec::new();

    // Wires. Both start perfect; link B's impairment is a chaos fault
    // applied when the timed phase begins.
    let (a0, a1) = make_simlink(machine.clone(), LinkConfig::perfect(inputs.link_a_seed));
    let (b0, b1) = make_simlink(machine.clone(), LinkConfig::perfect(inputs.link_b_seed));
    let ends = [a0, a1, b0, b1];
    all.extend(ends.iter().cloned());
    let end = |i: usize| {
        wrap(
            &ends[i],
            Layer::Simlink,
            Role::LinkEnd {
                link: i / 2,
                side: i % 2,
            },
        )
    };

    // Router side: ARP on each interface, the router, the filtered server.
    let if_ips = [SERVER_IP, IF1_IP];
    let mut ifs = Vec::new();
    for i in 0..2 {
        let arp = make_arp(end(2 * i), if_ips[i], IF_MACS[i]);
        all.push(arp.clone());
        ifs.push(RouteIf {
            dev: wrap(&arp, Layer::Arp, Role::Arp),
            ip: if_ips[i],
            mac: IF_MACS[i],
        });
    }
    let router = make_router(ifs);
    for (prefix, ifindex) in [(0x0A00_0000u32, 0i64), (0x0A01_0000, 1)] {
        router.invoke(
            "route",
            "add_route",
            &[
                Value::Int(i64::from(prefix)),
                Value::Int(24),
                Value::Int(ifindex),
            ],
        )?;
    }
    all.push(router.clone());
    let server_raw = make_tcp(
        machine.clone(),
        wrap(&router, Layer::Route, Role::Plain),
        SERVER_IP,
        SERVER_MAC,
    );
    let filter = make_l4_port_filter(PORT as u16);
    all.extend([server_raw.clone(), filter.clone()]);
    server_raw.invoke(
        "tcp",
        "set_filter",
        &[Value::Handle(wrap(&filter, Layer::Filter, Role::Plain))],
    )?;
    server_raw.invoke("tcp", "listen", &[Value::Int(PORT)])?;
    server_raw.invoke(
        "tcp",
        "set_backlog",
        &[Value::Int(PORT), Value::Int(shape.conns() as i64)],
    )?;

    // Client hosts: TCP over ARP over the far link ends. `netstack::arp`
    // resolves on-link addresses only, so host B (10.1.0.0/24) reaches
    // the server (10.0.0.1) through a static entry naming the router's
    // interface-1 MAC.
    let mut client_arps = Vec::new();
    let mut clients_raw = Vec::new();
    for h in 0..2 {
        let arp = make_arp(end(2 * h + 1), CLIENT_IPS[h], CLIENT_MACS[h]);
        let tcp = make_tcp(
            machine.clone(),
            wrap(&arp, Layer::Arp, Role::Arp),
            CLIENT_IPS[h],
            CLIENT_MACS[h],
        );
        all.extend([arp.clone(), tcp.clone()]);
        client_arps.push(arp);
        clients_raw.push(tcp);
    }
    client_arps[1].invoke(
        "arp",
        "insert",
        &[
            Value::Int(i64::from(SERVER_IP)),
            Value::Bytes(Bytes::copy_from_slice(&IF_MACS[1])),
        ],
    )?;

    // Store: each layer built on its own so agents can sit between them.
    // The initial contents go straight to the disk before the journal
    // mounts over it.
    let driver = StackBuilder::disk(&nucleus.mem, KERNEL_DOMAIN)
        .build()?
        .driver;
    for chunk in (0..shape.key_space).collect::<Vec<_>>().chunks(256) {
        let pairs = chunk.iter().map(|&s| {
            (
                i64::from(s),
                Bytes::copy_from_slice(&initial_sector(inputs.content_seed, s)),
            )
        });
        driver.invoke("blockdev", "write_many", &[pairs_arg(pairs)])?;
    }
    let retry = make_retry(
        machine.clone(),
        wrap(&driver, Layer::Driver, Role::Driver),
        RetryConfig {
            seed: inputs.retry_seed,
            ..RetryConfig::default()
        },
    );
    // The retry boundary tells log appends from checkpoints by the
    // journal's reserved region, at the tail of the disk.
    let journal_cfg = JournalConfig::default();
    let data_sectors =
        int(driver.invoke("blockdev", "sectors", &[])?)? - journal_cfg.log_sectors - 2;
    let journal = mount_journal(
        wrap(&retry, Layer::Retry, Role::Retry { data_sectors }),
        journal_cfg,
    )?;
    if int(journal.invoke("blockdev", "sectors", &[])?)? != data_sectors {
        return Err(Error::Setup(
            "journal geometry differs from the expected layout".into(),
        ));
    }
    let journal_top = wrap(&journal, Layer::Journal, Role::Journal);
    let cache = StackBuilder::on(journal_top)
        .sharded_cache(CACHE_SECTORS, CACHE_SHARDS)
        .build()?
        .top;
    all.extend([
        driver.clone(),
        retry.clone(),
        journal.clone(),
        cache.clone(),
    ]);

    // Server app domain: the store and the checksum component live in
    // the kernel domain and are bound from the app domain, which yields
    // proxies.
    let app = nucleus.create_domain("kv-server", KERNEL_DOMAIN, [])?.id;
    nucleus.register(
        KERNEL_DOMAIN,
        STORE_PATH,
        wrap(&cache, Layer::Cache, Role::Cache),
    )?;
    nucleus
        .repository
        .add_bytecode("kv-checksum", &checksum_loop_verified(CHECKSUM_SEGMENT, 1));
    let report = nucleus.load("kv-checksum", &LoadOptions::kernel(CHECKSUM_PATH))?;
    if report.protection != Protection::Verified {
        return Err(Error::Setup(format!(
            "checksum component loaded as {:?}, expected Verified",
            report.protection
        )));
    }
    let component = nucleus.bind(KERNEL_DOMAIN, CHECKSUM_PATH)?;
    if traced {
        nucleus.interpose(
            KERNEL_DOMAIN,
            CHECKSUM_PATH,
            wrap(&component, Layer::Sfi, Role::Plain),
        )?;
    }
    let store_proxy = nucleus.bind(app, STORE_PATH)?;
    let checksum_proxy = nucleus.bind(app, CHECKSUM_PATH)?;
    all.extend([
        component.clone(),
        store_proxy.clone(),
        checksum_proxy.clone(),
    ]);

    let mut chaos = ChaosController::new(machine.clone());
    chaos.register_link(ends[0].clone(), ends[1].clone());
    let link_b = chaos.register_link(ends[2].clone(), ends[3].clone());

    let clients = [
        wrap(
            &clients_raw[0],
            Layer::TcpClient,
            Role::Tcp { server: false },
        ),
        wrap(
            &clients_raw[1],
            Layer::TcpClient,
            Role::Tcp { server: false },
        ),
    ];
    let server = wrap(&server_raw, Layer::TcpServer, Role::Tcp { server: true });
    let mut topo = Topology {
        world,
        machine,
        clients,
        server,
        store: wrap(&store_proxy, Layer::Proxy, Role::Plain),
        checksum: wrap(&checksum_proxy, Layer::Proxy, Role::Plain),
        chaos,
        link_b,
        client_conns: Vec::new(),
        server_conns: Vec::new(),
        raw: Raw {
            tcp: [clients_raw[0].clone(), clients_raw[1].clone(), server_raw],
            link_ends: ends.clone(),
            cache,
            component,
            all,
        },
    };
    connect(&mut topo, shape, &client_arps[0])?;
    warm(&topo, shape)?;
    Ok(topo)
}

/// One set-up round: pump everyone, accept, advance the clock.
fn setup_round(topo: &mut Topology, shape: &Shape) -> Result<(), Error> {
    for t in &topo.raw.tcp {
        t.invoke("tcp", "pump", &[])?;
    }
    loop {
        let id = int(topo.raw.tcp[2].invoke("tcp", "accept", &[Value::Int(PORT)])?)?;
        if id < 0 {
            break;
        }
        if shape.keepalive {
            topo.raw.tcp[2].invoke(
                "tcp",
                "set_keepalive",
                &[Value::Int(id), Value::Int(KEEPALIVE)],
            )?;
        }
        topo.server_conns.push(id);
    }
    topo.machine.lock().tick(SETUP_TICK);
    Ok(())
}

/// Resolves the server's MAC on host A (host B has its static entry),
/// then opens every connection and waits until the server accepted all.
fn connect(topo: &mut Topology, shape: &Shape, arp_a: &ObjRef) -> Result<(), Error> {
    // Resolve before the burst of SYNs, which would otherwise overflow
    // the ARP layer's bounded pending queue.
    let server_ip = Value::Int(i64::from(SERVER_IP));
    arp_a.invoke("arp", "resolve", std::slice::from_ref(&server_ip))?;
    let mut rounds = 0;
    while arp_a
        .invoke("arp", "lookup", std::slice::from_ref(&server_ip))?
        .as_bytes()?
        .is_empty()
    {
        setup_round(topo, shape)?;
        rounds += 1;
        if rounds > SETUP_ROUNDS {
            return Err(Error::Setup(
                "ARP resolution of the server never completed".into(),
            ));
        }
    }
    for c in 0..shape.conns() {
        let host = c / shape.conns_per_host;
        let id = int(topo.raw.tcp[host].invoke(
            "tcp",
            "connect",
            &[server_ip.clone(), Value::Int(PORT)],
        )?)?;
        topo.client_conns.push((host, id));
    }
    while topo.server_conns.len() < shape.conns() {
        setup_round(topo, shape)?;
        rounds += 1;
        if rounds > SETUP_ROUNDS {
            return Err(Error::Setup(format!(
                "only {} of {} connections accepted",
                topo.server_conns.len(),
                shape.conns()
            )));
        }
    }
    for &(host, id) in &topo.client_conns {
        let state = topo.raw.tcp[host].invoke("tcp", "state", &[Value::Int(id)])?;
        if state.as_str()? != "established" {
            return Err(Error::Setup(format!("client connection {id} is {state:?}")));
        }
    }
    Ok(())
}

/// Reads the first cache-full of the key space through the cache.
fn warm(topo: &Topology, shape: &Shape) -> Result<(), Error> {
    let n = (shape.key_space as usize).min(CACHE_SECTORS) as i64;
    for start in (0..n).step_by(64) {
        topo.raw.cache.invoke(
            "blockdev",
            "read_many",
            &[sectors_arg(start..(start + 64).min(n))],
        )?;
    }
    Ok(())
}

/// Flushes the store, builds a fresh stack on the same disk (a remount,
/// which replays the journal) and returns its top for reading back.
pub fn remount(topo: &Topology) -> Result<ObjRef, Error> {
    topo.raw.cache.invoke("blockdev", "flush", &[])?;
    let nucleus = &topo.world.nucleus;
    let driver = StackBuilder::disk(&nucleus.mem, KERNEL_DOMAIN)
        .build()?
        .driver;
    let retry = make_retry(topo.machine.clone(), driver, RetryConfig::default());
    let journal = mount_journal(retry, JournalConfig::default())?;
    Ok(StackBuilder::on(journal)
        .sharded_cache(CACHE_SECTORS, CACHE_SHARDS)
        .build()?
        .top)
}
