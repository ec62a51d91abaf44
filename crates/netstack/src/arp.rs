//! The ARP object: address resolution as an interposable netdev layer.
//!
//! [`make_arp`] wraps any `netdev`-exporting object (the NIC driver, a
//! monitor, a [`crate::simlink`] endpoint) and exports **both** the
//! `netdev` data path (`send`, `recv`, `pending`; the lower layer's
//! `stats` is read from it directly) and an `arp` interface. Protocol
//! objects above it (`udp`, `tcp`) keep talking plain `netdev`; ARP
//! traffic never reaches them — requests addressed to this host are
//! answered in-line from `recv`, replies and gratuitous announcements
//! populate the cache, and everything else passes through untouched.
//!
//! Outbound IPv4 frames addressed to the link-broadcast MAC — the
//! signature of an upper layer that could not resolve its next hop —
//! are **parked** per destination IP rather than flooded: the layer
//! drives resolution itself and releases the queue rewritten to the
//! learned unicast MAC when the reply lands. Each per-IP queue is
//! bounded at [`ARP_PENDING_MAX`] frames, dropping the oldest beyond
//! that, so an unresolvable peer costs bounded memory.
//!
//! The `arp` interface:
//! - `resolve(ip: int) -> bytes` — 6-byte MAC on a cache hit; on a miss
//!   broadcasts a request and returns empty (poll again after the reply
//!   has had time to arrive),
//! - `lookup(ip: int) -> bytes` — cache-only probe, no traffic,
//! - `insert(ip: int, mac: bytes) -> unit` — static entry,
//! - `announce() -> unit` — gratuitous ARP for our own address,
//! - `stats() -> list [requests_tx, replies_tx, replies_rx, hits, misses,
//!   entries, pending, pending_dropped]`.

use std::collections::{HashMap, VecDeque};

use paramecium_obj::{ObjError, ObjRef, ObjectBuilder, TypeTag, Value};

use crate::wire::{
    self, ArpPacket, EthHeader, Ipv4Header, Mac, ARP_OP_REPLY, ARP_OP_REQUEST, ETHERTYPE_ARP,
    ETHERTYPE_IPV4, MAC_BROADCAST,
};

/// Cap on frames parked per unresolved IP; the oldest is dropped to
/// admit a newer one beyond this.
pub const ARP_PENDING_MAX: usize = 16;

/// ARP layer state.
struct ArpState {
    lower: ObjRef,
    ip: u32,
    mac: Mac,
    cache: HashMap<u32, Mac>,
    /// Outbound frames awaiting resolution, keyed by destination IP.
    pending: HashMap<u32, VecDeque<bytes::Bytes>>,
    requests_tx: u64,
    replies_tx: u64,
    replies_rx: u64,
    hits: u64,
    misses: u64,
    pending_dropped: u64,
}

impl ArpState {
    fn send_lower(&self, frame: Vec<u8>) -> Result<(), ObjError> {
        self.lower
            .invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])?;
        Ok(())
    }

    /// Outbound frame: IPv4 going out link-broadcast is parked until
    /// its destination resolves; everything else passes straight down.
    fn send_out(&mut self, frame: bytes::Bytes) -> Result<(), ObjError> {
        let dst_ip = match EthHeader::parse(&frame) {
            Ok((eth, payload)) if eth.ethertype == ETHERTYPE_IPV4 && eth.dst == MAC_BROADCAST => {
                match Ipv4Header::parse(payload) {
                    // Genuine broadcast IP traffic is meant to flood.
                    Ok((ip, _)) if ip.dst != u32::MAX => Some(ip.dst),
                    _ => None,
                }
            }
            _ => None,
        };
        let Some(dst_ip) = dst_ip else {
            return self.send_lower(frame.to_vec());
        };
        if let Some(mac) = self.cache.get(&dst_ip) {
            // Late cache hit: rewrite to unicast and send now.
            let mut out = frame.to_vec();
            out[0..6].copy_from_slice(mac);
            return self.send_lower(out);
        }
        let queue = self.pending.entry(dst_ip).or_default();
        if queue.len() >= ARP_PENDING_MAX {
            queue.pop_front();
            self.pending_dropped += 1;
        }
        let first = queue.is_empty();
        queue.push_back(frame);
        if first {
            // Drive resolution for a queue that just became non-empty.
            let req = ArpPacket {
                op: ARP_OP_REQUEST,
                sender_mac: self.mac,
                sender_ip: self.ip,
                target_mac: [0; 6],
                target_ip: dst_ip,
            }
            .to_frame(self.mac, wire::MAC_BROADCAST);
            self.send_lower(req)?;
            self.requests_tx += 1;
        }
        Ok(())
    }

    /// Handles an inbound ARP payload. Returns `true` if it was consumed.
    fn absorb(&mut self, payload: &[u8]) -> Result<bool, ObjError> {
        let Ok(pkt) = ArpPacket::parse(payload) else {
            // Malformed ARP is consumed (counted nowhere to deliver it).
            return Ok(true);
        };
        // Every valid ARP packet teaches us the sender's binding —
        // and releases any frames parked on it, rewritten to unicast.
        self.cache.insert(pkt.sender_ip, pkt.sender_mac);
        if let Some(queue) = self.pending.remove(&pkt.sender_ip) {
            for frame in queue {
                let mut frame = frame.to_vec();
                frame[0..6].copy_from_slice(&pkt.sender_mac);
                self.send_lower(frame)?;
            }
        }
        match pkt.op {
            ARP_OP_REQUEST if pkt.target_ip == self.ip => {
                let reply = ArpPacket {
                    op: ARP_OP_REPLY,
                    sender_mac: self.mac,
                    sender_ip: self.ip,
                    target_mac: pkt.sender_mac,
                    target_ip: pkt.sender_ip,
                }
                .to_frame(self.mac, pkt.sender_mac);
                self.send_lower(reply)?;
                self.replies_tx += 1;
            }
            ARP_OP_REPLY => self.replies_rx += 1,
            _ => {}
        }
        Ok(true)
    }
}

/// Builds the ARP layer over `lower`, owning protocol address `ip` with
/// hardware address `mac`.
pub fn make_arp(lower: ObjRef, ip: u32, mac: Mac) -> ObjRef {
    ObjectBuilder::new("arp")
        .state(ArpState {
            lower,
            ip,
            mac,
            cache: HashMap::new(),
            pending: HashMap::new(),
            requests_tx: 0,
            replies_tx: 0,
            replies_rx: 0,
            hits: 0,
            misses: 0,
            pending_dropped: 0,
        })
        .interface("netdev", |i| {
            i.method("send", &[TypeTag::Bytes], TypeTag::Unit, |this, args| {
                let frame = args[0].as_bytes()?.clone();
                this.with_state(|s: &mut ArpState| {
                    s.send_out(frame)?;
                    Ok(Value::Unit)
                })
            })
            .method("recv", &[], TypeTag::Bytes, |this, _| {
                // Pull from below until a non-ARP frame (or nothing) shows
                // up; ARP frames are absorbed into the cache / answered.
                let lower = this.with_state(|s: &mut ArpState| Ok(s.lower.clone()))?;
                loop {
                    let frame = lower.invoke("netdev", "recv", &[])?;
                    let bytes = frame.as_bytes()?;
                    if bytes.is_empty() {
                        return Ok(frame);
                    }
                    let is_arp = matches!(
                        EthHeader::parse(bytes),
                        Ok((eth, _)) if eth.ethertype == ETHERTYPE_ARP
                    );
                    if !is_arp {
                        return Ok(frame);
                    }
                    let payload = bytes.slice(wire::ETH_HLEN..bytes.len());
                    this.with_state(|s: &mut ArpState| s.absorb(&payload))?;
                }
            })
            .method("pending", &[], TypeTag::Int, |this, _| {
                let lower = this.with_state(|s: &mut ArpState| Ok(s.lower.clone()))?;
                lower.invoke("netdev", "pending", &[])
            })
        })
        .interface("arp", |i| {
            i.method("resolve", &[TypeTag::Int], TypeTag::Bytes, |this, args| {
                let ip = args[0].as_int()? as u32;
                this.with_state(|s: &mut ArpState| {
                    if let Some(mac) = s.cache.get(&ip) {
                        s.hits += 1;
                        return Ok(Value::Bytes(bytes::Bytes::copy_from_slice(mac)));
                    }
                    s.misses += 1;
                    let req = ArpPacket {
                        op: ARP_OP_REQUEST,
                        sender_mac: s.mac,
                        sender_ip: s.ip,
                        target_mac: [0; 6],
                        target_ip: ip,
                    }
                    .to_frame(s.mac, wire::MAC_BROADCAST);
                    s.send_lower(req)?;
                    s.requests_tx += 1;
                    Ok(Value::Bytes(bytes::Bytes::new()))
                })
            })
            .method("lookup", &[TypeTag::Int], TypeTag::Bytes, |this, args| {
                let ip = args[0].as_int()? as u32;
                this.with_state(|s: &mut ArpState| {
                    Ok(match s.cache.get(&ip) {
                        Some(mac) => Value::Bytes(bytes::Bytes::copy_from_slice(mac)),
                        None => Value::Bytes(bytes::Bytes::new()),
                    })
                })
            })
            .method(
                "insert",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                |this, args| {
                    let ip = args[0].as_int()? as u32;
                    let mac_bytes = args[1].as_bytes()?;
                    let mac: Mac = mac_bytes
                        .as_ref()
                        .try_into()
                        .map_err(|_| ObjError::failed("mac must be 6 bytes"))?;
                    this.with_state(|s: &mut ArpState| {
                        s.cache.insert(ip, mac);
                        Ok(Value::Unit)
                    })
                },
            )
            .method("announce", &[], TypeTag::Unit, |this, _| {
                this.with_state(|s: &mut ArpState| {
                    let gratuitous = ArpPacket {
                        op: ARP_OP_REQUEST,
                        sender_mac: s.mac,
                        sender_ip: s.ip,
                        target_mac: [0; 6],
                        target_ip: s.ip,
                    }
                    .to_frame(s.mac, wire::MAC_BROADCAST);
                    s.send_lower(gratuitous)?;
                    s.requests_tx += 1;
                    Ok(Value::Unit)
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut ArpState| {
                    Ok(Value::List(vec![
                        Value::Int(s.requests_tx as i64),
                        Value::Int(s.replies_tx as i64),
                        Value::Int(s.replies_rx as i64),
                        Value::Int(s.hits as i64),
                        Value::Int(s.misses as i64),
                        Value::Int(s.cache.len() as i64),
                        Value::Int(s.pending.values().map(VecDeque::len).sum::<usize>() as i64),
                        Value::Int(s.pending_dropped as i64),
                    ]))
                })
            })
        })
        .build()
}

/// Resolves `ip` through an object exporting `arp`, returning the MAC to
/// address a frame to: the cached binding, or broadcast while resolution
/// is still in flight. Shared by the UDP and TCP layers.
pub fn resolve_or_broadcast(arp: &ObjRef, ip: u32) -> Result<Mac, ObjError> {
    let mac = arp.invoke("arp", "resolve", &[Value::Int(i64::from(ip))])?;
    let mac = mac.as_bytes()?;
    Ok(match mac.as_ref().try_into() {
        Ok(mac) => mac,
        Err(_) => wire::MAC_BROADCAST,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simlink::{make_simlink, LinkConfig};
    use paramecium_machine::Machine;
    use parking_lot::Mutex;
    use std::sync::Arc;

    const IP_A: u32 = 0x0A00_0001;
    const IP_B: u32 = 0x0A00_0002;
    const MAC_A: Mac = [2, 0, 0, 0, 0, 1];
    const MAC_B: Mac = [2, 0, 0, 0, 0, 2];

    fn two_hosts() -> (Arc<Mutex<Machine>>, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (la, lb) = make_simlink(machine.clone(), LinkConfig::perfect(3));
        let a = make_arp(la, IP_A, MAC_A);
        let b = make_arp(lb, IP_B, MAC_B);
        (machine, a, b)
    }

    fn resolve(host: &ObjRef, ip: u32) -> Vec<u8> {
        host.invoke("arp", "resolve", &[Value::Int(i64::from(ip))])
            .unwrap()
            .as_bytes()
            .unwrap()
            .to_vec()
    }

    fn pump(host: &ObjRef) {
        // Drain the netdev until idle; ARP frames are absorbed in-line.
        loop {
            let f = host.invoke("netdev", "recv", &[]).unwrap();
            if f.as_bytes().unwrap().is_empty() {
                break;
            }
        }
    }

    #[test]
    fn request_reply_populates_both_caches() {
        let (machine, a, b) = two_hosts();
        // Miss: request goes out, nothing cached yet.
        assert!(resolve(&a, IP_B).is_empty());
        machine.lock().tick(10);
        pump(&b); // B absorbs the request, learns A, replies.
        machine.lock().tick(10);
        pump(&a); // A absorbs the reply.
        assert_eq!(resolve(&a, IP_B), MAC_B.to_vec());
        // B learned A's binding from the request itself.
        assert_eq!(resolve(&b, IP_A), MAC_A.to_vec());
        let stats = a.invoke("arp", "stats", &[]).unwrap();
        let s = stats.as_list().unwrap().to_vec();
        assert_eq!(s[0], Value::Int(1)); // one request sent
        assert_eq!(s[2], Value::Int(1)); // one reply received
        assert_eq!(s[3], Value::Int(1)); // one later hit (on A)
        assert_eq!(s[4], Value::Int(1)); // one initial miss
    }

    #[test]
    fn non_arp_traffic_passes_through() {
        let (machine, a, b) = two_hosts();
        let frame = wire::build_udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"data");
        a.invoke(
            "netdev",
            "send",
            &[Value::Bytes(bytes::Bytes::from(frame.clone()))],
        )
        .unwrap();
        machine.lock().tick(10);
        let got = b.invoke("netdev", "recv", &[]).unwrap();
        assert_eq!(got.as_bytes().unwrap().as_ref(), &frame[..]);
    }

    #[test]
    fn gratuitous_announce_preloads_peers() {
        let (machine, a, b) = two_hosts();
        a.invoke("arp", "announce", &[]).unwrap();
        machine.lock().tick(10);
        pump(&b);
        // B resolved A without any request of its own.
        assert_eq!(resolve(&b, IP_A), MAC_A.to_vec());
        let s = b.invoke("arp", "stats", &[]).unwrap();
        assert_eq!(s.as_list().unwrap()[0], Value::Int(0), "no request sent");
    }

    fn arp_stats(host: &ObjRef) -> Vec<i64> {
        host.invoke("arp", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn unresolved_frames_park_then_flush_unicast_on_reply() {
        let (machine, a, b) = two_hosts();
        // An upper layer that failed to resolve sends link-broadcast.
        let frame = wire::build_udp_frame(MAC_A, wire::MAC_BROADCAST, IP_A, IP_B, 1, 2, b"held");
        a.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
            .unwrap();
        assert_eq!(arp_stats(&a)[6], 1, "frame parked awaiting resolution");
        machine.lock().tick(10);
        pump(&b); // B absorbs the request and replies; no data yet.
        machine.lock().tick(10);
        pump(&a); // A absorbs the reply and releases the parked frame.
        assert_eq!(arp_stats(&a)[6], 0, "queue drained on learn");
        machine.lock().tick(10);
        let got = b.invoke("netdev", "recv", &[]).unwrap();
        let got = got.as_bytes().unwrap();
        assert_eq!(&got[0..6], &MAC_B[..], "released frame went out unicast");
        assert_eq!(&got[got.len() - 4..], b"held");
    }

    #[test]
    fn pending_queue_is_bounded_dropping_oldest() {
        let (machine, a, b) = two_hosts();
        for i in 0..(ARP_PENDING_MAX as u8 + 3) {
            let frame = wire::build_udp_frame(MAC_A, wire::MAC_BROADCAST, IP_A, IP_B, 1, 2, &[i]);
            a.invoke("netdev", "send", &[Value::Bytes(bytes::Bytes::from(frame))])
                .unwrap();
        }
        let s = arp_stats(&a);
        assert_eq!(s[6], ARP_PENDING_MAX as i64, "queue capped");
        assert_eq!(s[7], 3, "overflow counted as dropped");
        assert_eq!(s[0], 1, "one request per unresolved destination");
        // Resolution releases the survivors — the oldest three are gone.
        machine.lock().tick(10);
        pump(&b);
        machine.lock().tick(10);
        pump(&a);
        machine.lock().tick(10);
        let mut payloads = Vec::new();
        loop {
            let f = b.invoke("netdev", "recv", &[]).unwrap();
            let f = f.as_bytes().unwrap();
            if f.is_empty() {
                break;
            }
            payloads.push(f[f.len() - 1]);
        }
        let expect: Vec<u8> = (3..ARP_PENDING_MAX as u8 + 3).collect();
        assert_eq!(
            payloads, expect,
            "drop-oldest kept the newest frames in order"
        );
    }

    #[test]
    fn insert_and_lookup_are_cache_only() {
        let (_machine, a, _b) = two_hosts();
        assert!(a
            .invoke("arp", "lookup", &[Value::Int(i64::from(IP_B))])
            .unwrap()
            .as_bytes()
            .unwrap()
            .is_empty());
        a.invoke(
            "arp",
            "insert",
            &[
                Value::Int(i64::from(IP_B)),
                Value::Bytes(bytes::Bytes::copy_from_slice(&MAC_B)),
            ],
        )
        .unwrap();
        assert_eq!(
            a.invoke("arp", "lookup", &[Value::Int(i64::from(IP_B))])
                .unwrap()
                .as_bytes()
                .unwrap()
                .as_ref(),
            &MAC_B[..]
        );
        assert_eq!(resolve_or_broadcast(&a, IP_B).unwrap(), MAC_B);
        assert_eq!(
            resolve_or_broadcast(&a, 0x0909_0909).unwrap(),
            wire::MAC_BROADCAST
        );
    }
}
