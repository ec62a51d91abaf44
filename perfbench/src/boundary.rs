//! Counts taken at the benchmark's own boundary agents.
//!
//! Each agent carries a [`Role`] saying what it may count. Counts come
//! from the arguments and results that cross the boundary, never from a
//! layer's internal `stats` list: retransmits are data segments whose
//! sequence space a flow already sent (decoded with the public
//! `netstack::wire` codecs), drops are frames sent at one end of a link
//! and not received at the other, reordering is a frame received after
//! a frame sent later, a cache miss is a sector read that reaches the
//! journal boundary, and so on.

use std::collections::{HashMap, VecDeque};

use paramecium::netstack::wire::{self, tcp_flags};
use paramecium::obj::{ObjError, Value};

use crate::trace::{self, Layer};

/// What an agent counts.
#[derive(Clone, Copy, Debug)]
pub enum Role {
    /// Calls and time only.
    Plain,
    /// One end of a simulated link: `link` 0 (A) or 1 (B), `side` 0 for
    /// the router's end, 1 for the client host's end.
    LinkEnd {
        /// Link index.
        link: usize,
        /// End of the link.
        side: usize,
    },
    /// An ARP layer.
    Arp,
    /// A TCP endpoint: `server` or a client host.
    Tcp {
        /// Whether this is the server's endpoint.
        server: bool,
    },
    /// The block cache's top boundary.
    Cache,
    /// The journal's top boundary (the cache's backing store).
    Journal,
    /// The retry layer's top boundary (the journal's backing store);
    /// `data_sectors` is where the journal's reserved region starts.
    Retry {
        /// Client-visible sectors of the journal.
        data_sectors: i64,
    },
    /// The disk driver's top boundary.
    Driver,
}

/// Named boundary counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum C {
    /// `pump` calls on client-host TCP endpoints.
    PumpsClient,
    /// `pump` calls on the server TCP endpoint.
    PumpsServer,
    /// Data segments the client hosts put on a link.
    DataSegsClient,
    /// Data segments the server put on a link.
    DataSegsServer,
    /// Client data segments resending sequence space already sent.
    RetransmitsClient,
    /// Server data segments resending sequence space already sent.
    RetransmitsServer,
    /// Frames sent into link A at the router's end.
    SentA0,
    /// Frames sent into link A at the client's end.
    SentA1,
    /// Frames sent into link B at the router's end.
    SentB0,
    /// Frames sent into link B at the client's end.
    SentB1,
    /// Frames received from link A at the router's end.
    RecvA0,
    /// Frames received from link A at the client's end.
    RecvA1,
    /// Frames received from link B at the router's end.
    RecvB0,
    /// Frames received from link B at the client's end.
    RecvB1,
    /// Frames received after a frame sent later in the same direction.
    Reordered,
    /// `arp resolve` calls.
    ArpResolves,
    /// `arp resolve` calls answered from the cache.
    ArpHits,
    /// Sectors read at the cache boundary.
    CacheReadSectors,
    /// Sectors read at the journal boundary (cache misses).
    JournalReadSectors,
    /// Sectors written at the journal boundary outside transactions
    /// (cache writebacks).
    JournalWriteSectors,
    /// `commit` calls at the journal boundary.
    JournalCommits,
    /// Log appends reaching the retry boundary.
    LogAppends,
    /// Superblock writes (one per checkpoint) reaching the retry boundary.
    Checkpoints,
    /// Transfer calls at the disk driver's boundary.
    DriverTransfers,
    /// Sectors those transfers carried.
    DriverSectors,
}

const N_COUNTERS: usize = C::DriverSectors as usize + 1;

/// The counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts([u64; N_COUNTERS]);

impl Counts {
    /// Reads a counter.
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    fn add(&mut self, c: C, n: u64) {
        self.0[c as usize] += n;
    }

    /// Counter-wise `self - base`.
    pub fn minus(&self, base: &Counts) -> Counts {
        let mut out = self.clone();
        for (o, b) in out.0.iter_mut().zip(base.0) {
            *o -= b;
        }
        out
    }

    /// Frames sent into `link` at either end and never received at the
    /// other.
    pub fn dropped(&self, link: usize) -> u64 {
        let [s0, s1, r0, r1] = if link == 0 {
            [C::SentA0, C::SentA1, C::RecvA0, C::RecvA1]
        } else {
            [C::SentB0, C::SentB1, C::RecvB0, C::RecvB1]
        };
        (self.get(s0) + self.get(s1)).saturating_sub(self.get(r0) + self.get(r1))
    }
}

/// Tells whether a data segment resends sequence space its flow has
/// already sent: per flow, the highest sequence end seen so far.
#[derive(Default)]
pub struct RetransmitDetector {
    high: HashMap<(u32, u32, u16, u16), u32>,
}

impl RetransmitDetector {
    /// Records a data segment of `flow` covering `[seq, seq + len)`;
    /// returns whether it starts inside space already sent.
    pub fn observe(&mut self, flow: (u32, u32, u16, u16), seq: u32, len: u32) -> bool {
        let end = seq.wrapping_add(len);
        match self.high.get_mut(&flow) {
            None => {
                self.high.insert(flow, end);
                false
            }
            Some(high) => {
                let resend = (high.wrapping_sub(seq) as i32) > 0;
                if (end.wrapping_sub(*high) as i32) > 0 {
                    *high = end;
                }
                resend
            }
        }
    }
}

/// Detects frames overtaken in flight: each frame sent in a direction
/// gets the next index; a frame received with an index below one
/// already received was reordered. Frames are matched by a fingerprint
/// of their headers. Identical fingerprints (a retransmission of a
/// dropped segment can repeat its original's headers) match the oldest
/// send not yet overtaken, so a lost original does not make its
/// retransmission look late.
#[derive(Default)]
pub struct ReorderDetector {
    next: u64,
    highest: Option<u64>,
    in_flight: HashMap<u64, VecDeque<u64>>,
}

impl ReorderDetector {
    /// A frame with fingerprint `fp` entered the link.
    pub fn sent(&mut self, fp: u64) {
        self.in_flight.entry(fp).or_default().push_back(self.next);
        self.next += 1;
    }

    /// A frame with fingerprint `fp` left the link; returns whether a
    /// frame sent after it arrived first.
    pub fn received(&mut self, fp: u64) -> bool {
        let Some(queue) = self.in_flight.get_mut(&fp) else {
            return false;
        };
        // Sends queue in index order: take the first one past everything
        // delivered so far, else (a genuinely late frame) the latest.
        let fresh = queue
            .iter()
            .position(|&i| self.highest.is_none_or(|h| i > h));
        let reordered = fresh.is_none();
        let idx = match fresh {
            Some(at) => queue.remove(at).expect("position is in range"),
            None => queue.pop_back().expect("queues are removed when empty"),
        };
        if queue.is_empty() {
            self.in_flight.remove(&fp);
        }
        if !reordered {
            self.highest = Some(idx);
        }
        reordered
    }
}

/// Per-run observer state.
#[derive(Default)]
pub struct Observers {
    retransmits: RetransmitDetector,
    /// Per direction, indexed `2 * link + sending side`.
    reorder: [ReorderDetector; 4],
}

/// FNV-1a over a frame's first 64 bytes and its length: enough header
/// (addresses, ports, sequence, acknowledgement, window, checksum) to
/// tell segments apart.
fn fingerprint(frame: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ frame.len() as u64;
    for &b in &frame[..frame.len().min(64)] {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn list_len(args: &[Value]) -> u64 {
    args.first()
        .and_then(|a| a.as_list().ok())
        .map_or(0, |l| l.len() as u64)
}

/// Counts what one call through an agent of `role` carried.
pub fn observe(role: &Role, method: &str, args: &[Value], out: &Result<Value, ObjError>) {
    match *role {
        Role::Plain => {}
        Role::LinkEnd { link, side } => observe_link(link, side, method, args, out),
        Role::Arp => {
            if method == "resolve" {
                let hit = matches!(out, Ok(Value::Bytes(b)) if !b.is_empty());
                trace::with_counts(|c, _| {
                    c.add(C::ArpResolves, 1);
                    c.add(C::ArpHits, u64::from(hit));
                });
            }
        }
        Role::Tcp { server } => {
            if method == "pump" {
                let k = if server {
                    C::PumpsServer
                } else {
                    C::PumpsClient
                };
                trace::with_counts(|c, _| c.add(k, 1));
            }
        }
        Role::Cache => {
            let n = match method {
                "read" => 1,
                "read_many" => list_len(args),
                _ => return,
            };
            trace::with_counts(|c, _| c.add(C::CacheReadSectors, n));
        }
        Role::Journal => {
            let (k, n) = match method {
                "read" => (C::JournalReadSectors, 1),
                "read_many" => (C::JournalReadSectors, list_len(args)),
                "write" => (C::JournalWriteSectors, 1),
                "write_many" => (C::JournalWriteSectors, list_len(args)),
                "commit" => (C::JournalCommits, 1),
                _ => return,
            };
            trace::with_counts(|c, _| c.add(k, n));
        }
        Role::Retry { data_sectors } => {
            if method != "write_many" {
                return;
            }
            let sectors: Vec<i64> = args
                .first()
                .and_then(|a| a.as_list().ok())
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|p| p.as_list().ok()?.first()?.as_int().ok())
                        .collect()
                })
                .unwrap_or_default();
            let log_start = data_sectors + 2;
            let k = if sectors.iter().all(|&s| s >= log_start) {
                C::LogAppends
            } else if sectors.len() == 1 && (data_sectors..log_start).contains(&sectors[0]) {
                C::Checkpoints
            } else {
                return;
            };
            trace::with_counts(|c, _| c.add(k, 1));
        }
        Role::Driver => {
            let n = match method {
                "read" | "write" => 1,
                "read_many" | "write_many" => list_len(args),
                _ => return,
            };
            trace::with_counts(|c, _| {
                c.add(C::DriverTransfers, 1);
                c.add(C::DriverSectors, n);
            });
        }
    }
}

fn observe_link(
    link: usize,
    side: usize,
    method: &str,
    args: &[Value],
    out: &Result<Value, ObjError>,
) {
    let frame = match method {
        "send" => args.first().and_then(|a| a.as_bytes().ok()),
        "recv" => match out {
            Ok(Value::Bytes(b)) if !b.is_empty() => Some(b),
            _ => None,
        },
        _ => None,
    };
    let Some(frame) = frame else {
        return;
    };
    let _span = trace::enter(Layer::Observe);
    let fp = fingerprint(frame);
    let sending = method == "send";
    // A data segment: payload-bearing and pushed (keepalive probes carry
    // one byte without PSH and are not data).
    let data_seg = sending
        .then(|| wire::parse_tcp_frame(frame).ok())
        .flatten()
        .filter(|(_, h, p)| !p.is_empty() && h.flags & tcp_flags::PSH != 0)
        .map(|(ip, h, p)| {
            (
                (ip.src, ip.dst, h.src_port, h.dst_port),
                h.seq,
                p.len() as u32,
            )
        });
    trace::with_counts(|c, obs| {
        let end = 2 * link + side;
        if sending {
            c.add([C::SentA0, C::SentA1, C::SentB0, C::SentB1][end], 1);
            obs.reorder[end].sent(fp);
            if let Some((flow, seq, len)) = data_seg {
                // The router's end carries the server's segments.
                let client = side == 1;
                c.add(
                    if client {
                        C::DataSegsClient
                    } else {
                        C::DataSegsServer
                    },
                    1,
                );
                if obs.retransmits.observe(flow, seq, len) {
                    c.add(
                        if client {
                            C::RetransmitsClient
                        } else {
                            C::RetransmitsServer
                        },
                        1,
                    );
                }
            }
        } else {
            c.add([C::RecvA0, C::RecvA1, C::RecvB0, C::RecvB1][end], 1);
            // Received at this end means sent from the other one.
            if obs.reorder[2 * link + (1 - side)].received(fp) {
                c.add(C::Reordered, 1);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resent_sequence_space_is_a_retransmit() {
        let mut d = RetransmitDetector::default();
        let f = (1, 2, 3, 4);
        assert!(!d.observe(f, 100, 10));
        assert!(!d.observe(f, 110, 10));
        assert!(d.observe(f, 100, 10), "same segment again");
        assert!(d.observe(f, 105, 20), "overlapping resend that extends");
        assert!(!d.observe(f, 125, 5));
        assert!(!d.observe((9, 2, 3, 4), 100, 10), "flows are independent");
        // Sequence numbers wrap.
        assert!(!d.observe((5, 5, 5, 5), u32::MAX - 4, 10));
        assert!(!d.observe((5, 5, 5, 5), 5, 10));
        assert!(d.observe((5, 5, 5, 5), u32::MAX - 4, 10));
    }

    #[test]
    fn overtaken_frames_count_as_reordered() {
        let mut d = ReorderDetector::default();
        for fp in [10, 11, 12, 13] {
            d.sent(fp);
        }
        assert!(!d.received(10));
        assert!(!d.received(12), "11 is late, 12 is not");
        assert!(d.received(11));
        assert!(!d.received(13));
        // Identical fingerprints in flight pair in order; a frame never
        // sent (or already received) is ignored.
        d.sent(20);
        d.sent(20);
        assert!(!d.received(20));
        assert!(!d.received(20));
        assert!(!d.received(99));
        // A dropped original (30) and its identical retransmission: the
        // retransmission is not late.
        d.sent(30);
        d.sent(31);
        d.sent(30);
        assert!(!d.received(31));
        assert!(!d.received(30));
    }

    #[test]
    fn drops_are_sent_minus_received() {
        let mut c = Counts::default();
        c.add(C::SentB0, 50);
        c.add(C::SentB1, 50);
        c.add(C::RecvB0, 49);
        c.add(C::RecvB1, 48);
        assert_eq!(c.dropped(1), 3);
        assert_eq!(c.dropped(0), 0);
        let base = c.clone();
        c.add(C::SentB0, 5);
        assert_eq!(c.minus(&base).get(C::SentB0), 5);
    }
}
