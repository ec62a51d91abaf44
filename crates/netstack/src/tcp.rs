//! A minimal-but-correct TCP endpoint object.
//!
//! [`make_tcp`] layers a TCP state machine on any object exporting the
//! `netdev` interface — a NIC driver, the ARP layer, a monitor, a router
//! or a simulated lossy link — and exports a `tcp` interface:
//!
//! - `listen(port: int)`, `connect(ip: int, port: int) -> int` (id),
//!   `accept(port: int) -> int` (id, `-1` when the backlog is empty),
//! - `send(id: int, data: bytes) -> int` (bytes accepted into the send
//!   buffer), `recv(id: int, max: int) -> bytes`, `close(id: int)`,
//! - `state(id: int) -> str`, `error(id: int) -> str` (why a dead
//!   connection died: `"reset"`, `"user-timeout"`,
//!   `"keepalive-timeout"`, `"retries-exhausted"`, or `""`),
//! - `set_user_timeout(id: int, cycles: int)` — RFC 5482 bound on how
//!   long data may sit unacknowledged before the connection aborts
//!   cleanly (default [`DEFAULT_USER_TIMEOUT`], 0 disables),
//! - `set_keepalive(id: int, interval: int)` — probe an idle
//!   connection every `interval` cycles; [`KEEPALIVE_PROBES`]
//!   unanswered probes abort it (0 disables),
//! - `set_backlog(port: int, n: int)` — cap the accept queue (default
//!   [`DEFAULT_BACKLOG`]); handshakes completing against a full queue
//!   are refused with an RST and counted in `backlog_dropped`,
//! - `stats() -> list`, `set_filter(handle)`,
//! - `pump() -> int` — the engine: drains the lower netdev, runs the
//!   retransmission timers against the machine's **virtual clock**, and
//!   emits whatever segments are due (data within the peer's window,
//!   pure ACKs, FINs, zero-window probes). Everything is driven by
//!   explicit `pump` calls, so a whole multi-host exchange is a
//!   deterministic function of the machine clock and the link seed.
//!   A pump costs O(frames received + connections with work + timers
//!   due): idle connections are not visited at all.
//!
//! The implementation covers the three-way handshake, sequence/ack
//! tracking, retransmission with exponential RTO backoff, sliding-window
//! flow control (including zero-window probes), out-of-order reassembly
//! and the FIN teardown handshake with TIME-WAIT. Sequence arithmetic is
//! done on unsigned 64-bit *stream offsets* relative to the ISS/IRS, so
//! 32-bit wire wrap-around cannot corrupt the state machine.
//!
//! Every transmitted and received segment is folded into an FNV-1a
//! digest exposed through `stats`, which is what the determinism tests
//! compare across replays.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use paramecium_machine::Machine;
use paramecium_obj::{ObjError, ObjRef, ObjectBuilder, TypeTag, Value};
use parking_lot::Mutex;

use crate::arp::resolve_or_broadcast;
use crate::wire::{self, tcp_flags, Mac, TcpHeader, MAC_BROADCAST};

/// Maximum segment payload.
pub const TCP_MSS: usize = 1000;
/// Send-buffer capacity per connection.
pub const SEND_BUF_MAX: usize = 64 * 1024;
/// Receive window per connection.
pub const RECV_WND: usize = 16 * 1024;
/// Initial retransmission timeout, in machine cycles.
pub const BASE_RTO: u64 = 200_000;
/// RTO ceiling (backoff stops doubling here).
pub const MAX_RTO: u64 = BASE_RTO << 8;
/// Retransmissions before the connection is aborted.
pub const MAX_RETRIES: u32 = 12;
/// TIME-WAIT linger, in machine cycles.
pub const TIME_WAIT_CYCLES: u64 = 800_000;
/// Default user timeout (RFC 5482), in machine cycles: a connection
/// with data continuously unacknowledged for this long is aborted into
/// a clean `"user-timeout"` error state. Zero disables the timer;
/// `set_user_timeout` adjusts it per connection.
pub const DEFAULT_USER_TIMEOUT: u64 = 100_000_000;
/// Unanswered keepalive probes before an idle connection is aborted.
pub const KEEPALIVE_PROBES: u32 = 3;
/// Default cap on established-but-unaccepted connections per listening
/// port; completions beyond it are refused with an RST.
pub const DEFAULT_BACKLOG: usize = 64;

/// Connection states (RFC 793 names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
    Closed,
}

impl State {
    fn name(self) -> &'static str {
        match self {
            State::SynSent => "syn-sent",
            State::SynRcvd => "syn-rcvd",
            State::Established => "established",
            State::FinWait1 => "fin-wait-1",
            State::FinWait2 => "fin-wait-2",
            State::CloseWait => "close-wait",
            State::Closing => "closing",
            State::LastAck => "last-ack",
            State::TimeWait => "time-wait",
            State::Closed => "closed",
        }
    }
}

/// One connection. All sequence bookkeeping is in u64 stream offsets:
/// byte `i` of our outgoing stream has wire sequence `iss + 1 + i`
/// (wrapping), and symmetrically for the peer via `irs`.
struct Conn {
    state: State,
    peer_ip: u32,
    peer_port: u16,
    local_port: u16,
    peer_mac: Option<Mac>,
    iss: u32,
    irs: u32,
    /// Lowest unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to transmit.
    snd_nxt: u64,
    /// Bytes from offset `snd_una` onward not yet acknowledged.
    send_buf: VecDeque<u8>,
    /// Stream length once `close` fixes it; our FIN occupies this offset.
    stream_end: Option<u64>,
    fin_sent: bool,
    fin_acked: bool,
    /// Right edge of the peer's advertised window as a stream offset
    /// (kept monotonic: a receiver may not revoke window it granted).
    peer_wnd_edge: u64,
    /// Next expected incoming stream offset.
    rcv_nxt: u64,
    /// In-order bytes ready for the application.
    recv_buf: VecDeque<u8>,
    /// Out-of-order segments keyed by stream offset.
    ooo: BTreeMap<u64, Vec<u8>>,
    /// Offset of the peer's FIN, once seen.
    peer_fin: Option<u64>,
    peer_fin_rcvd: bool,
    ack_pending: bool,
    rto: u64,
    rtx_at: Option<u64>,
    retries: u32,
    timewait_at: u64,
    /// User timeout (RFC 5482), cycles; 0 disables.
    user_timeout: u64,
    /// Clock reading when data first went unacknowledged; rearmed on
    /// every forward ack so only a *continuous* stall trips the timer.
    stalled_since: Option<u64>,
    /// Keepalive probe interval, cycles; 0 disables.
    keepalive: u64,
    /// Clock reading of the last keepalive probe sent.
    ka_sent_at: u64,
    /// Probes sent since the peer was last heard from.
    ka_probes: u32,
    /// Clock reading of the last segment received on this connection.
    last_rx: u64,
    /// Why the connection died, for `error(id)`; `None` while healthy
    /// or after a clean close.
    err: Option<&'static str>,
    /// Listed in `TcpState::ready`: the next pump visits it.
    ready: bool,
    /// Deadline of this connection's live entry in `TcpState::timers`;
    /// its real next deadline is never earlier.
    queued_at: Option<u64>,
}

impl Conn {
    fn new(peer_ip: u32, peer_port: u16, local_port: u16, iss: u32, state: State) -> Conn {
        Conn {
            state,
            peer_ip,
            peer_port,
            local_port,
            peer_mac: None,
            iss,
            irs: 0,
            snd_una: 0,
            snd_nxt: 0,
            send_buf: VecDeque::new(),
            stream_end: None,
            fin_sent: false,
            fin_acked: false,
            peer_wnd_edge: 0,
            rcv_nxt: 0,
            recv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            peer_fin: None,
            peer_fin_rcvd: false,
            ack_pending: false,
            rto: BASE_RTO,
            rtx_at: None,
            retries: 0,
            timewait_at: 0,
            user_timeout: DEFAULT_USER_TIMEOUT,
            stalled_since: None,
            keepalive: 0,
            ka_sent_at: 0,
            ka_probes: 0,
            last_rx: 0,
            err: None,
            ready: false,
            queued_at: None,
        }
    }

    /// The earliest clock reading at which a pump visit could change
    /// this connection without it being touched first, right after a
    /// visit at `now`: the retransmit, TIME-WAIT, user-timeout and
    /// keepalive deadlines. Data that went out unacknowledged in this
    /// visit yields `now` itself, because `pump_timer` stamps
    /// `stalled_since` on the pump after the send.
    fn next_deadline(&self, now: u64) -> Option<u64> {
        if self.state == State::Closed {
            return None;
        }
        let time_wait = (self.state == State::TimeWait).then_some(self.timewait_at);
        let stall = (self.user_timeout > 0 && self.snd_una < self.snd_nxt).then(|| {
            self.stalled_since
                .map_or(now, |since| since.saturating_add(self.user_timeout))
        });
        let keepalive = (self.keepalive > 0
            && self.state == State::Established
            && self.snd_una == self.snd_nxt)
            .then(|| {
                self.last_rx
                    .max(self.ka_sent_at)
                    .saturating_add(self.keepalive)
            });
        [self.rtx_at, time_wait, stall, keepalive]
            .into_iter()
            .flatten()
            .min()
    }

    /// Transition to `Closed` with a diagnostic reason. Idempotent: a
    /// connection that already died keeps its first cause.
    fn abort(&mut self, reason: &'static str) -> bool {
        if self.state == State::Closed {
            return false;
        }
        self.state = State::Closed;
        self.rtx_at = None;
        self.err = Some(reason);
        true
    }

    /// Wire sequence number for stream offset `off`.
    fn wire_seq(&self, off: u64) -> u32 {
        self.iss.wrapping_add(1).wrapping_add(off as u32)
    }

    /// Wire ack number acknowledging everything up to `rcv_nxt`.
    fn wire_ack(&self) -> u32 {
        self.irs.wrapping_add(1).wrapping_add(self.rcv_nxt as u32)
    }

    /// Maps an incoming wire sequence number to a stream offset near
    /// `rcv_nxt` (wrap-safe). Negative offsets (ancient duplicates far
    /// behind the window) come back as `None`.
    fn seq_to_off(&self, seq: u32) -> Option<u64> {
        let off32 = seq.wrapping_sub(self.irs.wrapping_add(1));
        let diff = i64::from(off32.wrapping_sub(self.rcv_nxt as u32) as i32);
        let off = self.rcv_nxt as i64 + diff;
        u64::try_from(off).ok()
    }

    /// Maps an incoming wire ack number to a stream offset near
    /// `snd_una` (wrap-safe).
    fn ack_to_off(&self, ack: u32) -> Option<u64> {
        let off32 = ack.wrapping_sub(self.iss.wrapping_add(1));
        let diff = i64::from(off32.wrapping_sub(self.snd_una as u32) as i32);
        let off = self.snd_una as i64 + diff;
        u64::try_from(off).ok()
    }

    /// Window we advertise: free receive-buffer space.
    fn adv_window(&self) -> u16 {
        let used = self.recv_buf.len();
        RECV_WND.saturating_sub(used).min(usize::from(u16::MAX)) as u16
    }
}

/// Aggregate endpoint counters; `digest` folds every segment on the wire
/// (both directions) through FNV-1a and is the replay fingerprint.
#[derive(Default)]
struct TcpStats {
    segs_tx: u64,
    segs_rx: u64,
    bytes_tx: u64,
    bytes_rx: u64,
    retransmits: u64,
    malformed: u64,
    filtered: u64,
    rst_tx: u64,
    aborted: u64,
    digest: u64,
    backlog_dropped: u64,
}

impl TcpStats {
    fn fold(&mut self, frame: &[u8]) {
        let mut h = if self.digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.digest
        };
        for &b in frame {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.digest = h;
    }
}

struct TcpState {
    machine: Arc<Mutex<Machine>>,
    lower: ObjRef,
    ip: u32,
    mac: Mac,
    filter: Option<ObjRef>,
    /// Connection slab indexed by id. Ids are handed out in order from 1
    /// (the next one is `conns.len()`; slot 0 stays empty) and never
    /// reused; a connection refused at a full backlog leaves its slot
    /// empty.
    conns: Vec<Option<Conn>>,
    /// (peer ip, peer port, local port) -> connection id.
    demux: HashMap<(u32, u16, u16), i64>,
    /// Listening port -> accept queue.
    listeners: HashMap<u16, Listener>,
    next_port: u16,
    stats: TcpStats,
    /// Min-heap of `(deadline, id)` over every connection timer, one live
    /// entry per connection (`Conn::queued_at`). Entries are revalidated
    /// lazily: a deadline that moves later leaves its entry in place, so
    /// an entry may fire early (the visit finds nothing due and pushes
    /// the real deadline), never late.
    timers: BinaryHeap<Reverse<(u64, i64)>>,
    /// Connections touched since their last visit, unordered.
    ready: Vec<i64>,
    /// The batch `pump` is visiting; swapped with `ready` so neither
    /// buffer reallocates once warm.
    visiting: Vec<i64>,
}

/// One listening port: established-but-unaccepted connections queue
/// here until `accept`, and completions past `cap` are refused with an
/// RST so a slow acceptor sheds load instead of growing without bound.
struct Listener {
    backlog: VecDeque<i64>,
    cap: usize,
}

impl Default for Listener {
    fn default() -> Listener {
        Listener {
            backlog: VecDeque::new(),
            cap: DEFAULT_BACKLOG,
        }
    }
}

/// The live connection `id` in the slab; every internal caller holds a
/// valid id.
fn conn_at(conns: &mut [Option<Conn>], id: i64) -> &mut Conn {
    conns[id as usize].as_mut().expect("conn exists")
}

/// Deterministic initial sequence number for connection `id`.
fn isn(id: i64) -> u32 {
    ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

impl TcpState {
    fn now(&self) -> u64 {
        self.machine.lock().now()
    }

    /// Queues connection `id` for the next pump's visit.
    fn mark_ready(&mut self, id: i64) {
        if let Some(conn) = self.conns[id as usize].as_mut() {
            if !conn.ready {
                conn.ready = true;
                self.ready.push(id);
            }
        }
    }

    fn dst_mac(&mut self, id: i64) -> Result<Mac, ObjError> {
        let conn = conn_at(&mut self.conns, id);
        if let Some(mac) = conn.peer_mac {
            return Ok(mac);
        }
        let peer_ip = conn.peer_ip;
        let mac = if self.lower.has_interface("arp") {
            resolve_or_broadcast(&self.lower, peer_ip)?
        } else {
            MAC_BROADCAST
        };
        if mac != MAC_BROADCAST {
            conn_at(&mut self.conns, id).peer_mac = Some(mac);
        }
        Ok(mac)
    }

    /// Builds and transmits one segment for connection `id`.
    fn emit(&mut self, id: i64, flags: u8, seq: u32, payload: &[u8]) -> Result<(), ObjError> {
        let dst_mac = self.dst_mac(id)?;
        let conn = conn_at(&mut self.conns, id);
        let hdr = TcpHeader {
            src_port: conn.local_port,
            dst_port: conn.peer_port,
            seq,
            ack: if flags & tcp_flags::ACK != 0 {
                conn.wire_ack()
            } else {
                0
            },
            flags,
            window: conn.adv_window(),
        };
        let peer_ip = conn.peer_ip;
        conn.ack_pending = false;
        let frame = wire::build_tcp_frame(self.mac, dst_mac, self.ip, peer_ip, &hdr, payload);
        self.stats.segs_tx += 1;
        self.stats.bytes_tx += payload.len() as u64;
        self.stats.fold(&frame);
        self.lower
            .invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])?;
        Ok(())
    }

    /// Sends an RST in reply to a stray segment.
    fn emit_rst(&mut self, peer_mac: Mac, peer_ip: u32, hdr: &TcpHeader) -> Result<(), ObjError> {
        let rst = TcpHeader {
            src_port: hdr.dst_port,
            dst_port: hdr.src_port,
            seq: hdr.ack,
            ack: hdr.seq.wrapping_add(1),
            flags: tcp_flags::RST | tcp_flags::ACK,
            window: 0,
        };
        let frame = wire::build_tcp_frame(self.mac, peer_mac, self.ip, peer_ip, &rst, &[]);
        self.stats.segs_tx += 1;
        self.stats.rst_tx += 1;
        self.stats.fold(&frame);
        self.lower
            .invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])?;
        Ok(())
    }

    fn arm_rtx(&mut self, id: i64, now: u64) {
        let conn = conn_at(&mut self.conns, id);
        conn.rtx_at = Some(now + conn.rto);
    }

    /// Our FIN was acknowledged — advance the close handshake.
    fn on_fin_acked(&mut self, id: i64, now: u64) {
        let conn = conn_at(&mut self.conns, id);
        conn.fin_acked = true;
        match conn.state {
            State::FinWait1 => conn.state = State::FinWait2,
            State::Closing => {
                conn.state = State::TimeWait;
                conn.timewait_at = now + TIME_WAIT_CYCLES;
            }
            State::LastAck => {
                conn.state = State::Closed;
            }
            _ => {}
        }
    }

    /// The peer's FIN has been consumed in order — advance teardown.
    fn on_peer_fin(&mut self, id: i64, now: u64) {
        let conn = conn_at(&mut self.conns, id);
        conn.peer_fin_rcvd = true;
        match conn.state {
            State::SynRcvd | State::Established => conn.state = State::CloseWait,
            State::FinWait1 => {
                if conn.fin_acked {
                    conn.state = State::TimeWait;
                    conn.timewait_at = now + TIME_WAIT_CYCLES;
                } else {
                    conn.state = State::Closing;
                }
            }
            State::FinWait2 => {
                conn.state = State::TimeWait;
                conn.timewait_at = now + TIME_WAIT_CYCLES;
            }
            _ => {}
        }
    }

    /// Handles one parsed inbound segment addressed to connection `id`.
    fn segment_in(
        &mut self,
        id: i64,
        hdr: &TcpHeader,
        payload: &[u8],
        now: u64,
    ) -> Result<(), ObjError> {
        let conn = conn_at(&mut self.conns, id);
        conn.last_rx = now;
        conn.ka_probes = 0;
        if hdr.flags & tcp_flags::RST != 0 {
            if conn.abort("reset") {
                self.stats.aborted += 1;
            }
            return Ok(());
        }

        // Handshake states first.
        match conn.state {
            State::SynSent => {
                let syn_ack = tcp_flags::SYN | tcp_flags::ACK;
                if hdr.flags & syn_ack == syn_ack && hdr.ack == conn.iss.wrapping_add(1) {
                    conn.irs = hdr.seq;
                    conn.rcv_nxt = 0;
                    conn.peer_wnd_edge = u64::from(hdr.window);
                    conn.state = State::Established;
                    conn.ack_pending = true;
                    conn.rtx_at = None;
                    conn.rto = BASE_RTO;
                    conn.retries = 0;
                }
                // Anything else in SYN-SENT (e.g. a delayed duplicate) is
                // dropped; the SYN retransmit timer covers us.
                return Ok(());
            }
            State::SynRcvd => {
                if hdr.flags & tcp_flags::SYN != 0 {
                    // Duplicate SYN: re-ack it via the SYN-ACK timer.
                    return Ok(());
                }
                if hdr.flags & tcp_flags::ACK == 0 || hdr.ack != conn.iss.wrapping_add(1) {
                    return Ok(());
                }
                let port = conn.local_port;
                let key = (conn.peer_ip, conn.peer_port, port);
                let peer_mac = conn.peer_mac.unwrap_or(MAC_BROADCAST);
                let peer_ip = conn.peer_ip;
                let lst = self.listeners.entry(port).or_default();
                if lst.backlog.len() >= lst.cap {
                    // Accept queue full: refuse the completed handshake
                    // with an RST so the peer fails fast instead of
                    // sitting established against a stalled acceptor.
                    self.stats.backlog_dropped += 1;
                    self.conns[id as usize] = None;
                    self.demux.remove(&key);
                    return self.emit_rst(peer_mac, peer_ip, hdr);
                }
                lst.backlog.push_back(id);
                let conn = conn_at(&mut self.conns, id);
                conn.state = State::Established;
                conn.peer_wnd_edge = u64::from(hdr.window);
                conn.rtx_at = None;
                conn.rto = BASE_RTO;
                conn.retries = 0;
                // Fall through to process any piggybacked payload.
            }
            State::Closed => return Ok(()),
            _ => {}
        }

        let conn = conn_at(&mut self.conns, id);

        // A retransmitted SYN/SYN-ACK means our ACK was lost: re-ack.
        if hdr.flags & tcp_flags::SYN != 0 {
            conn.ack_pending = true;
        }

        // ACK processing: advance snd_una, free send buffer, reset RTO.
        let mut fin_acked_now = false;
        if hdr.flags & tcp_flags::ACK != 0 {
            if let Some(ack_off) = conn.ack_to_off(hdr.ack) {
                let limit = conn.snd_nxt;
                if ack_off > conn.snd_una && ack_off <= limit {
                    let data_acked =
                        (ack_off - conn.snd_una).min(conn.send_buf.len() as u64) as usize;
                    conn.send_buf.drain(..data_acked);
                    conn.snd_una = ack_off;
                    conn.rto = BASE_RTO;
                    conn.retries = 0;
                    // Forward progress restarts the user timeout.
                    conn.stalled_since = None;
                    if let Some(end) = conn.stream_end {
                        if conn.fin_sent && ack_off == end + 1 {
                            fin_acked_now = true;
                        }
                    }
                    conn.rtx_at = if conn.snd_una == conn.snd_nxt {
                        None
                    } else {
                        Some(now + conn.rto)
                    };
                }
                // Window update (right edge is monotonic).
                let edge = ack_off + u64::from(hdr.window);
                conn.peer_wnd_edge = conn.peer_wnd_edge.max(edge);
            }
        }

        // Payload processing: in-order append, out-of-order buffering,
        // duplicate trimming — all within our advertised window.
        if !payload.is_empty() {
            if let Some(off) = conn.seq_to_off(hdr.seq) {
                let limit = conn.rcv_nxt + (RECV_WND - conn.recv_buf.len()) as u64;
                let end = (off + payload.len() as u64).min(limit);
                if end > conn.rcv_nxt && off < limit {
                    if off <= conn.rcv_nxt {
                        // Overlaps the expected offset: take the new part.
                        let skip = (conn.rcv_nxt - off) as usize;
                        let take = (end - conn.rcv_nxt) as usize;
                        conn.recv_buf.extend(&payload[skip..skip + take]);
                        conn.rcv_nxt = end;
                        // Drain any out-of-order data that now fits.
                        while let Some((&o, _)) = conn.ooo.iter().next() {
                            if o > conn.rcv_nxt {
                                break;
                            }
                            let (o, seg) = conn.ooo.pop_first().expect("checked");
                            let seg_end = o + seg.len() as u64;
                            if seg_end > conn.rcv_nxt {
                                let skip = (conn.rcv_nxt - o) as usize;
                                conn.recv_buf.extend(&seg[skip..]);
                                conn.rcv_nxt = seg_end;
                            }
                        }
                    } else {
                        let take = (end - off) as usize;
                        conn.ooo
                            .entry(off)
                            .or_insert_with(|| payload[..take].to_vec());
                    }
                }
            }
            // Data (new, duplicate or out of order) always provokes an ACK.
            conn.ack_pending = true;
            self.stats.bytes_rx += payload.len() as u64;
        }

        // FIN processing: the FIN occupies the offset right after the
        // segment's payload and is consumed only once in order.
        let mut peer_fin_now = false;
        if hdr.flags & tcp_flags::FIN != 0 {
            if let Some(off) = conn.seq_to_off(hdr.seq) {
                conn.peer_fin = Some(off + payload.len() as u64);
            }
        }
        if let Some(fin_off) = conn.peer_fin {
            if !conn.peer_fin_rcvd && conn.rcv_nxt == fin_off {
                conn.rcv_nxt = fin_off + 1;
                conn.ack_pending = true;
                peer_fin_now = true;
            } else if conn.peer_fin_rcvd && hdr.flags & tcp_flags::FIN != 0 {
                // Retransmitted FIN: our final ACK was lost — re-ack.
                conn.ack_pending = true;
            }
        }

        if fin_acked_now {
            self.on_fin_acked(id, now);
        }
        if peer_fin_now {
            self.on_peer_fin(id, now);
        }
        Ok(())
    }

    /// Drains the lower netdev, demultiplexes, counts malformed traffic.
    /// Returns frames consumed.
    fn pump_rx(&mut self, now: u64) -> Result<i64, ObjError> {
        let mut handled = 0i64;
        loop {
            let frame = self.lower.invoke("netdev", "recv", &[])?;
            let frame = frame.as_bytes()?.clone();
            if frame.is_empty() {
                break;
            }
            handled += 1;
            if let Some(f) = &self.filter {
                let ok = f
                    .invoke("filter", "check", &[Value::Bytes(frame.clone())])?
                    .as_bool()?;
                if !ok {
                    self.stats.filtered += 1;
                    continue;
                }
            }
            let parsed = wire::parse_tcp_frame(&frame);
            let Ok((ip, hdr, payload)) = parsed else {
                self.stats.malformed += 1;
                continue;
            };
            if ip.dst != self.ip {
                self.stats.malformed += 1;
                continue;
            }
            self.stats.segs_rx += 1;
            self.stats.fold(&frame);
            let key = (ip.src, hdr.src_port, hdr.dst_port);
            if let Some(&id) = self.demux.get(&key) {
                self.segment_in(id, &hdr, payload, now)?;
                self.mark_ready(id);
                continue;
            }
            // No connection: a SYN to a listening port opens one.
            if hdr.flags & tcp_flags::SYN != 0
                && hdr.flags & tcp_flags::ACK == 0
                && self.listeners.contains_key(&hdr.dst_port)
            {
                let id = self.conns.len() as i64;
                let mut conn =
                    Conn::new(ip.src, hdr.src_port, hdr.dst_port, isn(id), State::SynRcvd);
                conn.irs = hdr.seq;
                conn.rcv_nxt = 0;
                conn.peer_wnd_edge = u64::from(hdr.window);
                let src_mac: Mac = frame[6..12].try_into().expect("6 bytes");
                conn.peer_mac = Some(src_mac);
                self.conns.push(Some(conn));
                self.demux.insert(key, id);
                // SYN-ACK, covered by the retransmit timer.
                let seq = isn(id);
                self.emit(id, tcp_flags::SYN | tcp_flags::ACK, seq, &[])?;
                self.arm_rtx(id, now);
                self.mark_ready(id);
                continue;
            }
            if hdr.flags & tcp_flags::RST == 0 {
                let src_mac: Mac = frame[6..12].try_into().expect("6 bytes");
                self.emit_rst(src_mac, ip.src, &hdr)?;
            }
        }
        Ok(handled)
    }

    /// Retransmission / TIME-WAIT / user-timeout / keepalive timer pass
    /// for one connection.
    fn pump_timer(&mut self, id: i64, now: u64) -> Result<(), ObjError> {
        let conn = conn_at(&mut self.conns, id);
        if conn.state == State::TimeWait && now >= conn.timewait_at {
            conn.state = State::Closed;
            return Ok(());
        }
        if conn.state == State::Closed {
            return Ok(());
        }
        // User timeout (RFC 5482): the timer runs only while data is
        // continuously unacknowledged, so an idle-but-healthy
        // connection is never at risk.
        if conn.user_timeout > 0 && conn.snd_una < conn.snd_nxt {
            let since = *conn.stalled_since.get_or_insert(now);
            if now.saturating_sub(since) >= conn.user_timeout {
                if conn.abort("user-timeout") {
                    self.stats.aborted += 1;
                }
                return Ok(());
            }
        } else {
            conn.stalled_since = None;
        }
        // Keepalive: probe an idle established connection; too many
        // unanswered probes abort it into a clean error state. The
        // probe carries one byte just below `snd_una`, which the peer
        // discards as a duplicate but must acknowledge.
        if conn.keepalive > 0 && conn.state == State::Established && conn.snd_una == conn.snd_nxt {
            let due = conn.last_rx.max(conn.ka_sent_at) + conn.keepalive;
            if now >= due {
                if conn.ka_probes >= KEEPALIVE_PROBES {
                    if conn.abort("keepalive-timeout") {
                        self.stats.aborted += 1;
                    }
                    return Ok(());
                }
                conn.ka_probes += 1;
                conn.ka_sent_at = now;
                let seq = conn.wire_seq(conn.snd_una).wrapping_sub(1);
                self.emit(id, tcp_flags::ACK, seq, &[0])?;
            }
        }
        let conn = conn_at(&mut self.conns, id);
        let Some(due) = conn.rtx_at else {
            return Ok(());
        };
        if now < due {
            return Ok(());
        }
        conn.retries += 1;
        if conn.retries > MAX_RETRIES {
            if conn.abort("retries-exhausted") {
                self.stats.aborted += 1;
            }
            return Ok(());
        }
        conn.rto = (conn.rto * 2).min(MAX_RTO);
        conn.rtx_at = Some(now + conn.rto);
        self.stats.retransmits += 1;
        let state = conn.state;
        match state {
            State::SynSent => {
                let seq = conn.iss;
                self.emit(id, tcp_flags::SYN, seq, &[])?;
            }
            State::SynRcvd => {
                let seq = conn.iss;
                self.emit(id, tcp_flags::SYN | tcp_flags::ACK, seq, &[])?;
            }
            _ => {
                // Resend from snd_una: one MSS of data, or the FIN.
                let (seq, chunk, fin) = {
                    let conn = conn_at(&mut self.conns, id);
                    let unacked =
                        (conn.snd_nxt - conn.snd_una).min(conn.send_buf.len() as u64) as usize;
                    if unacked > 0 {
                        let take = unacked.min(TCP_MSS);
                        let chunk: Vec<u8> = conn.send_buf.iter().take(take).copied().collect();
                        (conn.wire_seq(conn.snd_una), chunk, false)
                    } else if conn.fin_sent && !conn.fin_acked {
                        let end = conn.stream_end.expect("fin implies stream end");
                        (conn.wire_seq(end), Vec::new(), true)
                    } else {
                        // Zero-window probe: nothing in flight but data
                        // is queued — push one byte past the edge.
                        let take = conn.send_buf.len().min(1);
                        if take == 0 {
                            conn.rtx_at = None;
                            return Ok(());
                        }
                        let chunk = vec![conn.send_buf[0]];
                        let seq = conn.wire_seq(conn.snd_una);
                        conn.snd_nxt = conn.snd_nxt.max(conn.snd_una + 1);
                        (seq, chunk, false)
                    }
                };
                let flags = if fin {
                    tcp_flags::FIN | tcp_flags::ACK
                } else {
                    tcp_flags::ACK | tcp_flags::PSH
                };
                self.emit(id, flags, seq, &chunk)?;
            }
        }
        Ok(())
    }

    /// Output pass: new data within the peer's window, the FIN once the
    /// stream is drained, else a pure ACK if one is owed.
    fn pump_tx(&mut self, id: i64, now: u64) -> Result<i64, ObjError> {
        let mut sent = 0i64;
        loop {
            let conn = conn_at(&mut self.conns, id);
            if matches!(conn.state, State::Closed | State::SynSent | State::SynRcvd) {
                break;
            }
            if conn.state == State::TimeWait {
                // Only re-acks (e.g. for a retransmitted FIN) leave here.
                if conn.ack_pending {
                    let seq = conn.wire_seq(conn.snd_nxt);
                    self.emit(id, tcp_flags::ACK, seq, &[])?;
                    sent += 1;
                }
                break;
            }
            let data_end = conn.snd_una + conn.send_buf.len() as u64;
            let usable = conn.peer_wnd_edge.saturating_sub(conn.snd_nxt);
            if conn.snd_nxt < data_end && usable > 0 && !conn.fin_sent {
                let start = (conn.snd_nxt - conn.snd_una) as usize;
                let take = ((data_end - conn.snd_nxt).min(usable) as usize).min(TCP_MSS);
                let chunk: Vec<u8> = conn
                    .send_buf
                    .iter()
                    .skip(start)
                    .take(take)
                    .copied()
                    .collect();
                let seq = conn.wire_seq(conn.snd_nxt);
                conn.snd_nxt += take as u64;
                self.emit(id, tcp_flags::ACK | tcp_flags::PSH, seq, &chunk)?;
                self.arm_rtx(id, now);
                sent += 1;
                continue;
            }
            if let Some(end) = conn.stream_end {
                if !conn.fin_sent && conn.snd_nxt == end {
                    conn.fin_sent = true;
                    conn.snd_nxt = end + 1;
                    match conn.state {
                        State::Established => conn.state = State::FinWait1,
                        State::CloseWait => conn.state = State::LastAck,
                        _ => {}
                    }
                    let seq = conn.wire_seq(end);
                    self.emit(id, tcp_flags::FIN | tcp_flags::ACK, seq, &[])?;
                    self.arm_rtx(id, now);
                    sent += 1;
                    continue;
                }
            }
            // Queued data but a closed window and nothing in flight:
            // arm the probe timer so we learn when it reopens.
            if conn.snd_nxt == conn.snd_una && !conn.send_buf.is_empty() && conn.rtx_at.is_none() {
                conn.rtx_at = Some(now + conn.rto);
            }
            if conn.ack_pending {
                let seq = conn.wire_seq(conn.snd_nxt);
                self.emit(id, tcp_flags::ACK, seq, &[])?;
                sent += 1;
            }
            break;
        }
        Ok(sent)
    }

    /// One visit: the timer pass, then the output pass, then the
    /// connection's next deadline goes on the timer heap unless its live
    /// entry is already at or before it.
    fn visit(&mut self, id: i64, now: u64) -> Result<i64, ObjError> {
        self.pump_timer(id, now)?;
        let sent = self.pump_tx(id, now)?;
        let conn = conn_at(&mut self.conns, id);
        conn.ready = false;
        if let Some(due) = conn.next_deadline(now) {
            if conn.queued_at.is_none_or(|queued| due < queued) {
                conn.queued_at = Some(due);
                self.timers.push(Reverse((due, id)));
            }
        }
        Ok(sent)
    }

    /// Visits `batch` in order. On an error, the connections not yet
    /// visited stay ready for the next pump.
    fn visit_all(&mut self, batch: &[i64], now: u64) -> Result<i64, ObjError> {
        let mut sent = 0;
        for (i, &id) in batch.iter().enumerate() {
            // An empty slot is a connection the backlog refused.
            if self.conns[id as usize].is_none() {
                continue;
            }
            match self.visit(id, now) {
                Ok(n) => sent += n,
                Err(e) => {
                    self.ready.extend_from_slice(&batch[i..]);
                    return Err(e);
                }
            }
        }
        Ok(sent)
    }

    /// Receives, then visits exactly the connections that may have work:
    /// those touched since their last visit (by a segment or an API
    /// call) and those with a timer due, including a visit that left a
    /// stall to stamp. Cost: O(frames received + connections with work
    /// + timers due), not O(live connections).
    ///
    /// Determinism contract: visits run in ascending id order, and a
    /// connection that is idle and not due would do nothing if visited,
    /// so the segment trace is bit-identical to visiting every
    /// connection in id order on every pump.
    fn pump(&mut self) -> Result<i64, ObjError> {
        let now = self.now();
        let handled = self.pump_rx(now)?;
        while let Some(&Reverse((due, id))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            // Only a connection's latest entry is live; an older, later
            // one it superseded is dropped without a visit.
            if let Some(conn) = self.conns[id as usize].as_mut() {
                if conn.queued_at == Some(due) {
                    conn.queued_at = None;
                    self.mark_ready(id);
                }
            }
        }
        let mut batch = std::mem::take(&mut self.visiting);
        std::mem::swap(&mut batch, &mut self.ready);
        batch.sort_unstable();
        let sent = self.visit_all(&batch, now);
        batch.clear();
        self.visiting = batch;
        Ok(handled + sent?)
    }

    fn conn_mut(&mut self, id: i64) -> Result<&mut Conn, ObjError> {
        usize::try_from(id)
            .ok()
            .and_then(|slot| self.conns.get_mut(slot))
            .and_then(Option::as_mut)
            .ok_or_else(|| ObjError::failed(format!("no such connection {id}")))
    }
}

/// Builds a TCP endpoint object over `lower` (any `netdev`), owning IP
/// address `ip` and hardware address `mac`. If `lower` also exports the
/// `arp` interface, destination MACs are resolved through it; otherwise
/// segments go out link-broadcast.
pub fn make_tcp(machine: Arc<Mutex<Machine>>, lower: ObjRef, ip: u32, mac: Mac) -> ObjRef {
    ObjectBuilder::new("tcp")
        .state(TcpState {
            machine,
            lower,
            ip,
            mac,
            filter: None,
            conns: vec![None],
            demux: HashMap::new(),
            listeners: HashMap::new(),
            next_port: 49152,
            stats: TcpStats::default(),
            timers: BinaryHeap::new(),
            ready: Vec::new(),
            visiting: Vec::new(),
        })
        .interface("tcp", |i| {
            i.method("listen", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let port = args[0].as_int()?;
                let port =
                    u16::try_from(port).map_err(|_| ObjError::failed("port out of range"))?;
                this.with_state(|s: &mut TcpState| {
                    s.listeners.entry(port).or_default();
                    Ok(Value::Unit)
                })
            })
            .method(
                "connect",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Int,
                |this, args| {
                    let dst_ip = args[0].as_int()? as u32;
                    let dst_port = u16::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("port out of range"))?;
                    this.with_state(|s: &mut TcpState| {
                        let id = s.conns.len() as i64;
                        let local_port = s.next_port;
                        s.next_port = s.next_port.wrapping_add(1).max(49152);
                        let conn = Conn::new(dst_ip, dst_port, local_port, isn(id), State::SynSent);
                        s.conns.push(Some(conn));
                        s.demux.insert((dst_ip, dst_port, local_port), id);
                        let now = s.now();
                        let seq = isn(id);
                        s.emit(id, tcp_flags::SYN, seq, &[])?;
                        s.arm_rtx(id, now);
                        s.mark_ready(id);
                        Ok(Value::Int(id))
                    })
                },
            )
            .method("accept", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let port = u16::try_from(args[0].as_int()?)
                    .map_err(|_| ObjError::failed("port out of range"))?;
                this.with_state(|s: &mut TcpState| {
                    let id = s
                        .listeners
                        .get_mut(&port)
                        .and_then(|l| l.backlog.pop_front())
                        .unwrap_or(-1);
                    Ok(Value::Int(id))
                })
            })
            .method(
                "send",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Int,
                |this, args| {
                    let id = args[0].as_int()?;
                    let data = args[1].as_bytes()?.clone();
                    this.with_state(|s: &mut TcpState| {
                        let conn = s.conn_mut(id)?;
                        if conn.stream_end.is_some()
                            || !matches!(
                                conn.state,
                                State::SynSent
                                    | State::SynRcvd
                                    | State::Established
                                    | State::CloseWait
                            )
                        {
                            return Err(ObjError::failed("connection not writable"));
                        }
                        let room = SEND_BUF_MAX - conn.send_buf.len();
                        let take = room.min(data.len());
                        conn.send_buf.extend(&data[..take]);
                        s.mark_ready(id);
                        Ok(Value::Int(take as i64))
                    })
                },
            )
            .method(
                "recv",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Bytes,
                |this, args| {
                    let id = args[0].as_int()?;
                    let max = usize::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("max must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        let conn = s.conn_mut(id)?;
                        let take = conn.recv_buf.len().min(max);
                        if take == 0 {
                            return Ok(Value::Bytes(bytes::Bytes::new()));
                        }
                        let out: Vec<u8> = conn.recv_buf.drain(..take).collect();
                        // Freed window: owe the peer an update.
                        conn.ack_pending = true;
                        s.mark_ready(id);
                        Ok(Value::Bytes(bytes::Bytes::from(out)))
                    })
                },
            )
            .method("close", &[TypeTag::Int], TypeTag::Unit, |this, args| {
                let id = args[0].as_int()?;
                this.with_state(|s: &mut TcpState| {
                    let conn = s.conn_mut(id)?;
                    if conn.stream_end.is_none() {
                        conn.stream_end = Some(conn.snd_una + conn.send_buf.len() as u64);
                    }
                    s.mark_ready(id);
                    Ok(Value::Unit)
                })
            })
            .method("state", &[TypeTag::Int], TypeTag::Str, |this, args| {
                let id = args[0].as_int()?;
                this.with_state(|s: &mut TcpState| {
                    Ok(Value::Str(s.conn_mut(id)?.state.name().into()))
                })
            })
            .method("error", &[TypeTag::Int], TypeTag::Str, |this, args| {
                let id = args[0].as_int()?;
                this.with_state(|s: &mut TcpState| {
                    Ok(Value::Str(s.conn_mut(id)?.err.unwrap_or("").into()))
                })
            })
            .method(
                "set_user_timeout",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let id = args[0].as_int()?;
                    let cycles = u64::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("timeout must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        let conn = s.conn_mut(id)?;
                        conn.user_timeout = cycles;
                        conn.stalled_since = None;
                        s.mark_ready(id);
                        Ok(Value::Unit)
                    })
                },
            )
            .method(
                "set_keepalive",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let id = args[0].as_int()?;
                    let interval = u64::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("interval must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        let now = s.now();
                        let conn = s.conn_mut(id)?;
                        conn.keepalive = interval;
                        conn.ka_probes = 0;
                        // Start the idle clock here, not at connection
                        // birth, so the first probe is one full
                        // interval out.
                        conn.last_rx = conn.last_rx.max(now);
                        s.mark_ready(id);
                        Ok(Value::Unit)
                    })
                },
            )
            .method(
                "set_backlog",
                &[TypeTag::Int, TypeTag::Int],
                TypeTag::Unit,
                |this, args| {
                    let port = u16::try_from(args[0].as_int()?)
                        .map_err(|_| ObjError::failed("port out of range"))?;
                    let cap = usize::try_from(args[1].as_int()?)
                        .map_err(|_| ObjError::failed("backlog must be non-negative"))?;
                    this.with_state(|s: &mut TcpState| {
                        s.listeners.entry(port).or_default().cap = cap;
                        Ok(Value::Unit)
                    })
                },
            )
            .method("pump", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut TcpState| Ok(Value::Int(s.pump()?)))
            })
            .method(
                "set_filter",
                &[TypeTag::Handle],
                TypeTag::Unit,
                |this, args| {
                    let f = args[0].as_handle()?.clone();
                    this.with_state(|s: &mut TcpState| {
                        s.filter = Some(f.clone());
                        Ok(Value::Unit)
                    })
                },
            )
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut TcpState| {
                    let st = &s.stats;
                    Ok(Value::List(vec![
                        Value::Int(st.segs_tx as i64),
                        Value::Int(st.segs_rx as i64),
                        Value::Int(st.bytes_tx as i64),
                        Value::Int(st.bytes_rx as i64),
                        Value::Int(st.retransmits as i64),
                        Value::Int(st.malformed as i64),
                        Value::Int(st.filtered as i64),
                        Value::Int(st.rst_tx as i64),
                        Value::Int(st.aborted as i64),
                        Value::Int(st.digest as i64),
                        Value::Int(st.backlog_dropped as i64),
                    ]))
                })
            })
        })
        .build()
}

/// Position of the digest in the `stats` list (for tests).
pub const STAT_DIGEST: usize = 9;
/// Position of the malformed counter in the `stats` list.
pub const STAT_MALFORMED: usize = 5;
/// Position of the retransmit counter in the `stats` list.
pub const STAT_RETRANSMITS: usize = 4;
/// Position of the aborted-connections counter in the `stats` list.
pub const STAT_ABORTED: usize = 8;
/// Position of the backlog-overflow counter in the `stats` list.
pub const STAT_BACKLOG_DROPPED: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simlink::{make_simlink, LinkConfig};

    const IP_A: u32 = 0x0A00_0001;
    const IP_B: u32 = 0x0A00_0002;
    const MAC_A: Mac = [2, 0, 0, 0, 0, 0xAA];
    const MAC_B: Mac = [2, 0, 0, 0, 0, 0xBB];

    fn pair(cfg: LinkConfig) -> (Arc<Mutex<Machine>>, ObjRef, ObjRef) {
        let (machine, a, b, _, _) = pair_with_link(cfg);
        (machine, a, b)
    }

    /// Like `pair`, but also returns the raw link endpoints so tests
    /// can partition / heal directions at runtime via `set_config`.
    fn pair_with_link(cfg: LinkConfig) -> (Arc<Mutex<Machine>>, ObjRef, ObjRef, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (end_a, end_b) = make_simlink(machine.clone(), cfg);
        let a = make_tcp(machine.clone(), end_a.clone(), IP_A, MAC_A);
        let b = make_tcp(machine.clone(), end_b.clone(), IP_B, MAC_B);
        (machine, a, b, end_a, end_b)
    }

    /// Sets the drop rate of `end`'s transmit direction, leaving the
    /// other knobs as configured.
    fn set_drop(end: &ObjRef, permille: i64) {
        let knobs = end.invoke("link", "config", &[]).unwrap();
        let mut knobs = knobs.as_list().unwrap().to_vec();
        knobs[0] = Value::Int(permille);
        end.invoke("link", "set_config", &[Value::List(knobs)])
            .unwrap();
    }

    fn establish(machine: &Arc<Mutex<Machine>>, a: &ObjRef, b: &ObjRef, port: i64) -> (i64, i64) {
        b.invoke("tcp", "listen", &[Value::Int(port)]).unwrap();
        let id_a = a
            .invoke(
                "tcp",
                "connect",
                &[Value::Int(IP_B as i64), Value::Int(port)],
            )
            .unwrap()
            .as_int()
            .unwrap();
        pump_net(machine, &[a, b], 4);
        let id_b = b
            .invoke("tcp", "accept", &[Value::Int(port)])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(id_b >= 0, "handshake completes");
        (id_a, id_b)
    }

    fn conn_state(ep: &ObjRef, id: i64) -> String {
        ep.invoke("tcp", "state", &[Value::Int(id)])
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    fn conn_error(ep: &ObjRef, id: i64) -> String {
        ep.invoke("tcp", "error", &[Value::Int(id)])
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    fn pump_net(machine: &Arc<Mutex<Machine>>, eps: &[&ObjRef], rounds: usize) {
        for _ in 0..rounds {
            for ep in eps {
                ep.invoke("tcp", "pump", &[]).unwrap();
            }
            machine.lock().tick(BASE_RTO / 4);
        }
    }

    fn tcp_stats(ep: &ObjRef) -> Vec<i64> {
        ep.invoke("tcp", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn handshake_data_exchange_and_teardown() {
        let (machine, a, b) = pair(LinkConfig::perfect(7));
        b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
        let id_a = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        pump_net(&machine, &[&a, &b], 4);
        let id_b = b
            .invoke("tcp", "accept", &[Value::Int(80)])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(id_b >= 0, "handshake completes");
        assert_eq!(
            a.invoke("tcp", "state", &[Value::Int(id_a)]).unwrap(),
            Value::Str("established".into())
        );

        // A large message: forces segmentation (> MSS).
        let msg: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
        let accepted = a
            .invoke(
                "tcp",
                "send",
                &[
                    Value::Int(id_a),
                    Value::Bytes(bytes::Bytes::from(msg.clone())),
                ],
            )
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(accepted, msg.len() as i64);
        pump_net(&machine, &[&a, &b], 8);
        let got = b
            .invoke("tcp", "recv", &[Value::Int(id_b), Value::Int(1 << 20)])
            .unwrap();
        assert_eq!(got.as_bytes().unwrap().to_vec(), msg);

        // Full close in both directions.
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        b.invoke("tcp", "close", &[Value::Int(id_b)]).unwrap();
        pump_net(&machine, &[&a, &b], 12);
        machine.lock().tick(TIME_WAIT_CYCLES + 1);
        pump_net(&machine, &[&a, &b], 2);
        let sa = a.invoke("tcp", "state", &[Value::Int(id_a)]).unwrap();
        let sb = b.invoke("tcp", "state", &[Value::Int(id_b)]).unwrap();
        assert_eq!(sa, Value::Str("closed".into()));
        assert_eq!(sb, Value::Str("closed".into()));
    }

    #[test]
    fn data_survives_a_lossy_link_via_retransmission() {
        let mut cfg = LinkConfig::perfect(21);
        cfg.drop_permille = 250;
        cfg.dup_permille = 100;
        cfg.reorder_permille = 100;
        let (machine, a, b) = pair(cfg);
        b.invoke("tcp", "listen", &[Value::Int(9)]).unwrap();
        let id_a = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(9)])
            .unwrap()
            .as_int()
            .unwrap();
        let msg: Vec<u8> = (0..8000u32).map(|i| (i * 7 % 256) as u8).collect();
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(msg.clone())),
            ],
        )
        .unwrap();
        let mut got = Vec::new();
        let mut id_b = -1;
        for _ in 0..400 {
            pump_net(&machine, &[&a, &b], 1);
            if id_b < 0 {
                id_b = b
                    .invoke("tcp", "accept", &[Value::Int(9)])
                    .unwrap()
                    .as_int()
                    .unwrap();
            }
            if id_b >= 0 {
                let chunk = b
                    .invoke("tcp", "recv", &[Value::Int(id_b), Value::Int(4096)])
                    .unwrap();
                got.extend_from_slice(chunk.as_bytes().unwrap());
                if got.len() == msg.len() {
                    break;
                }
            }
        }
        assert_eq!(got, msg, "stream is exact despite loss/dup/reorder");
        assert!(
            tcp_stats(&a)[STAT_RETRANSMITS] > 0,
            "loss actually exercised the retransmit path"
        );
    }

    #[test]
    fn same_seed_yields_identical_digest() {
        let run = |seed: u64| -> (Vec<i64>, Vec<i64>) {
            let mut cfg = LinkConfig::perfect(seed);
            cfg.drop_permille = 120;
            cfg.reorder_permille = 80;
            let (machine, a, b) = pair(cfg);
            b.invoke("tcp", "listen", &[Value::Int(5)]).unwrap();
            let id = a
                .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(5)])
                .unwrap()
                .as_int()
                .unwrap();
            let msg = vec![0x5A; 4000];
            a.invoke(
                "tcp",
                "send",
                &[Value::Int(id), Value::Bytes(bytes::Bytes::from(msg))],
            )
            .unwrap();
            pump_net(&machine, &[&a, &b], 40);
            (tcp_stats(&a), tcp_stats(&b))
        };
        assert_eq!(run(99), run(99), "replay is bit-identical");
        assert_ne!(
            run(99).0[STAT_DIGEST],
            run(100).0[STAT_DIGEST],
            "different seed takes a different trace"
        );
    }

    #[test]
    fn corrupted_segments_count_malformed_and_never_deliver() {
        let mut cfg = LinkConfig::perfect(33);
        cfg.corrupt_permille = 200;
        let (machine, a, b) = pair(cfg);
        b.invoke("tcp", "listen", &[Value::Int(5)]).unwrap();
        let id_a = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(5)])
            .unwrap()
            .as_int()
            .unwrap();
        let msg: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(msg.clone())),
            ],
        )
        .unwrap();
        let mut got = Vec::new();
        let mut id_b = -1;
        for _ in 0..400 {
            pump_net(&machine, &[&a, &b], 1);
            if id_b < 0 {
                id_b = b
                    .invoke("tcp", "accept", &[Value::Int(5)])
                    .unwrap()
                    .as_int()
                    .unwrap();
            }
            if id_b >= 0 {
                let chunk = b
                    .invoke("tcp", "recv", &[Value::Int(id_b), Value::Int(4096)])
                    .unwrap();
                got.extend_from_slice(chunk.as_bytes().unwrap());
                if got.len() == msg.len() {
                    break;
                }
            }
        }
        assert_eq!(got, msg, "corruption never corrupts the stream");
        let malformed: i64 = tcp_stats(&a)[STAT_MALFORMED] + tcp_stats(&b)[STAT_MALFORMED];
        assert!(
            malformed > 0,
            "corrupted frames were counted, not delivered"
        );
    }

    #[test]
    fn listen_backlog_overflow_draws_rst_and_counts() {
        let (machine, a, b) = pair(LinkConfig::perfect(11));
        b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
        b.invoke("tcp", "set_backlog", &[Value::Int(80), Value::Int(2)])
            .unwrap();
        let ids: Vec<i64> = (0..4)
            .map(|_| {
                a.invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(80)])
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(
            tcp_stats(&b)[STAT_BACKLOG_DROPPED],
            2,
            "completions past the cap were shed"
        );
        let reset: Vec<i64> = ids
            .iter()
            .copied()
            .filter(|&id| conn_state(&a, id) == "closed")
            .collect();
        assert_eq!(reset.len(), 2, "exactly the overflow was refused");
        for id in reset {
            assert_eq!(conn_error(&a, id), "reset", "refusal is a clean error");
        }
        for _ in 0..2 {
            let id = b
                .invoke("tcp", "accept", &[Value::Int(80)])
                .unwrap()
                .as_int()
                .unwrap();
            assert!(id >= 0, "queued connections still accept");
        }
        assert_eq!(
            b.invoke("tcp", "accept", &[Value::Int(80)])
                .unwrap()
                .as_int()
                .unwrap(),
            -1,
            "nothing beyond the cap was queued"
        );
    }

    #[test]
    fn user_timeout_aborts_a_partitioned_connection_cleanly() {
        let (machine, a, b, end_a, _end_b) = pair_with_link(LinkConfig::perfect(17));
        let (id_a, _id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(id_a), Value::Int(1_000_000)],
        )
        .unwrap();
        // Partition the A->B direction mid-stream: B never acks again.
        set_drop(&end_a, 1000);
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(vec![7u8; 2000])),
            ],
        )
        .unwrap();
        for _ in 0..40 {
            pump_net(&machine, &[&a, &b], 1);
            if conn_state(&a, id_a) == "closed" {
                break;
            }
        }
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        assert!(
            tcp_stats(&a)[STAT_RETRANSMITS] > 0,
            "the stall was a real retransmit stall, not instant death"
        );
        // Further pumps must not re-abort, and healing the link must
        // not resurrect the dead connection.
        set_drop(&end_a, 0);
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
    }

    #[test]
    fn keepalive_probes_detect_a_dead_peer_but_spare_a_live_one() {
        let (machine, a, b, end_a, end_b) = pair_with_link(LinkConfig::perfect(23));
        let (id_a, _id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_keepalive",
            &[Value::Int(id_a), Value::Int(300_000)],
        )
        .unwrap();
        // Live peer: probes are answered, the idle connection survives
        // far past several keepalive intervals.
        pump_net(&machine, &[&a, &b], 30);
        assert_eq!(conn_state(&a, id_a), "established");
        // Dead peer: full partition. Probes go unanswered and the
        // connection aborts into a clean error state.
        set_drop(&end_a, 1000);
        set_drop(&end_b, 1000);
        for _ in 0..60 {
            pump_net(&machine, &[&a, &b], 1);
            if conn_state(&a, id_a) == "closed" {
                break;
            }
        }
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "keepalive-timeout");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
    }

    #[test]
    fn user_timeout_during_teardown_does_not_double_free_the_conn() {
        let (machine, a, b, end_a, _end_b) = pair_with_link(LinkConfig::perfect(29));
        let (id_a, _id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(id_a), Value::Int(800_000)],
        )
        .unwrap();
        // Partition, then close with data still queued: the connection
        // walks into FIN-WAIT-1 retransmitting against a dead link.
        set_drop(&end_a, 1000);
        a.invoke(
            "tcp",
            "send",
            &[
                Value::Int(id_a),
                Value::Bytes(bytes::Bytes::from(vec![9u8; 1500])),
            ],
        )
        .unwrap();
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        for _ in 0..40 {
            pump_net(&machine, &[&a, &b], 1);
            if conn_state(&a, id_a) == "closed" {
                break;
            }
        }
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        // The id stays valid — state/error remain callable and extra
        // timer passes neither re-abort nor panic.
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 1);
        assert_eq!(conn_state(&a, id_a), "closed");
        // Healing the link does not resurrect the dead connection.
        set_drop(&end_a, 0);
        pump_net(&machine, &[&a, &b], 6);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(conn_error(&a, id_a), "user-timeout");
    }

    #[test]
    fn user_timeout_never_fires_in_time_wait() {
        let (machine, a, b) = pair(LinkConfig::perfect(31));
        let (id_a, id_b) = establish(&machine, &a, &b, 80);
        a.invoke(
            "tcp",
            "set_user_timeout",
            &[Value::Int(id_a), Value::Int(150_000)],
        )
        .unwrap();
        a.invoke("tcp", "close", &[Value::Int(id_a)]).unwrap();
        b.invoke("tcp", "close", &[Value::Int(id_b)]).unwrap();
        pump_net(&machine, &[&a, &b], 8);
        assert_eq!(conn_state(&a, id_a), "time-wait");
        // Sit in TIME-WAIT for several user-timeout periods: with no
        // data outstanding the timer must never fire.
        pump_net(&machine, &[&a, &b], 10);
        assert_eq!(conn_state(&a, id_a), "time-wait");
        assert_eq!(conn_error(&a, id_a), "");
        machine.lock().tick(TIME_WAIT_CYCLES + 1);
        pump_net(&machine, &[&a, &b], 2);
        assert_eq!(conn_state(&a, id_a), "closed");
        assert_eq!(
            conn_error(&a, id_a),
            "",
            "expiry is a clean close, not an abort"
        );
        assert_eq!(tcp_stats(&a)[STAT_ABORTED], 0);
    }

    #[test]
    fn stray_segment_draws_rst() {
        let (machine, a, b) = pair(LinkConfig::perfect(3));
        // No listener on B: A's SYN must be refused.
        let id = a
            .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(7)])
            .unwrap()
            .as_int()
            .unwrap();
        pump_net(&machine, &[&a, &b], 4);
        assert_eq!(
            a.invoke("tcp", "state", &[Value::Int(id)]).unwrap(),
            Value::Str("closed".into())
        );
        assert!(tcp_stats(&b)[7] > 0, "B sent an RST");
    }
}
