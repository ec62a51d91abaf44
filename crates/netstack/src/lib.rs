//! Network components for the Paramecium reproduction.
//!
//! The paper's motivating scenario (section 1) is "inserting application
//! components for fast protocol processing into a shared network device
//! driver" — and the security problem that motivates certification:
//! "software verification of the component cannot easily reveal packet
//! snooping". This crate provides that scenario as a *stack of
//! interchangeable objects*: every layer both consumes and exports the
//! two-method `netdev` interface (`send(bytes)`, `recv() -> bytes`), so
//! any layer can be slid between any other two — including across
//! protection domains — without either side knowing.
//!
//! Bottom to top:
//!
//! - [`wire`] — pure codecs: Ethernet, ARP, IPv4, UDP and TCP headers,
//!   the Internet checksum and the TCP pseudo-header checksum. Every
//!   parser is total (malformed input returns `None`, never panics) and
//!   round-trips with its builder; `tests/wire_codecs.rs` pins both by
//!   property.
//! - **netdev providers** — the objects that put frames on a wire:
//!   [`driver`] (the NIC driver at `/shared/network`, built on the
//!   machine's NIC device through I/O-space claims and interrupts) and
//!   [`simlink`] (a seeded in-memory lossy link that drops, duplicates,
//!   reorders, corrupts and delays frames deterministically — the
//!   adversary the test suites run against).
//! - **netdev interposers** — layers that wrap a lower `netdev` and
//!   export `netdev` themselves: [`arp`] (IPv4↔MAC resolution with
//!   request queuing and reply generation), [`route`] (a longest-prefix
//!   router spanning two or more lower drivers, with per-route counters)
//!   and [`monitor`] (the paper's interposing network monitor, installed
//!   by replacing `/shared/network` in the name space). ARP and the
//!   router implement only the data path (`send`, `recv`, `pending`);
//!   a provider's `netdev stats` is read from the provider itself, and
//!   each interposer reports its own counters on its own interface.
//! - **endpoints** — [`stack`] (a UDP/IP endpoint) and [`tcp`] (a
//!   minimal-but-correct TCP: 3-way handshake, sequence/ack tracking,
//!   retransmission with exponential RTO backoff, sliding-window flow
//!   control and FIN teardown, all driven by the machine's virtual
//!   clock so every exchange replays bit-identically).
//! - [`filter`] — packet filters installed *into* an endpoint's receive
//!   path: a native counting filter and a bytecode UDP-port filter (the
//!   downloadable component of the experiments).
//! - [`testkit`] — the shared single-NIC test fixture used by the
//!   in-crate suites and integration tests.
//!
//! Frames travel the whole stack as refcounted [`bytes::Bytes`] views:
//! a received frame is parsed in place and its payload handed to the
//! application as a slice of the original buffer — no copies between
//! the device queue and the socket, pinned by an allocation-counting
//! test (`tests/alloc_counting.rs`).

pub mod arp;
pub mod driver;
pub mod filter;
pub mod monitor;
pub mod route;
pub mod simlink;
pub mod stack;
pub mod tcp;
pub mod testkit;
pub mod wire;

pub use driver::{install_driver, make_driver, make_driver_on};
pub use filter::{make_l4_port_filter, make_native_port_filter, udp_port_filter_program};
pub use monitor::make_network_monitor;
pub use stack::make_udp_stack;
