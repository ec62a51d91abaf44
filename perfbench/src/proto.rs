//! The key-value protocol the clients and the server speak over TCP.
//!
//! Request: `op u8 | sectors u8 | key u32 | seq u32 | sum u64 | payload`
//! where the payload (PUT only) is `sectors × 512` bytes and `sum` is
//! the client's byte sum of it. Reply: `status u8 | seq u32 | len u32 |
//! sum u64 | body` where `body` (a successful GET) is `len` bytes and
//! `sum` echoes the server component's checksum of a PUT. All integers
//! are little-endian.

use crate::inputs::Op;
use crate::SECTOR;

/// Request header length.
pub const REQ_HDR: usize = 18;
/// Reply header length.
pub const REPLY_HDR: usize = 17;

const OP_GET: u8 = b'G';
const OP_PUT: u8 = b'P';

/// Reply status codes.
pub mod status {
    /// Served.
    pub const OK: u8 = 0;
    /// A store or component call failed.
    pub const REFUSED: u8 = 1;
    /// The component's checksum disagreed with the client's.
    pub const BAD_CHECKSUM: u8 = 2;
    /// The request did not parse.
    pub const BAD_REQUEST: u8 = 3;
}

/// A parsed request header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqHeader {
    /// Operation.
    pub op: Op,
    /// Sector count.
    pub sectors: u8,
    /// First sector.
    pub key: u32,
    /// Client request number, echoed in the reply.
    pub seq: u32,
    /// Client byte sum of the payload (PUT).
    pub sum: u64,
}

impl ReqHeader {
    /// Payload bytes following the header.
    pub fn payload_len(&self) -> usize {
        match self.op {
            Op::Get => 0,
            Op::Put => usize::from(self.sectors) * SECTOR,
        }
    }
}

/// A parsed reply header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Status code.
    pub status: u8,
    /// Request number this answers.
    pub seq: u32,
    /// Body length.
    pub len: u32,
    /// Component checksum (PUT).
    pub sum: u64,
}

/// Encodes a request.
pub fn encode_request(h: &ReqHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REQ_HDR + payload.len());
    out.push(match h.op {
        Op::Get => OP_GET,
        Op::Put => OP_PUT,
    });
    out.push(h.sectors);
    out.extend_from_slice(&h.key.to_le_bytes());
    out.extend_from_slice(&h.seq.to_le_bytes());
    out.extend_from_slice(&h.sum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a reply.
pub fn encode_reply(h: &ReplyHeader, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REPLY_HDR + body.len());
    out.push(h.status);
    out.extend_from_slice(&h.seq.to_le_bytes());
    out.extend_from_slice(&h.len.to_le_bytes());
    out.extend_from_slice(&h.sum.to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4-byte field"))
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8-byte field"))
}

/// Outcome of parsing the front of a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed<T> {
    /// Not enough bytes yet.
    Incomplete,
    /// A whole message: header and the total bytes it occupies.
    Message(T, usize),
    /// The bytes cannot be a message.
    Malformed,
}

/// Parses one request from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parsed<ReqHeader> {
    if buf.len() < REQ_HDR {
        return Parsed::Incomplete;
    }
    let op = match buf[0] {
        OP_GET => Op::Get,
        OP_PUT => Op::Put,
        _ => return Parsed::Malformed,
    };
    let sectors = buf[1];
    if !(1..=8).contains(&sectors) {
        return Parsed::Malformed;
    }
    let h = ReqHeader {
        op,
        sectors,
        key: u32_at(buf, 2),
        seq: u32_at(buf, 6),
        sum: u64_at(buf, 10),
    };
    let total = REQ_HDR + h.payload_len();
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    Parsed::Message(h, total)
}

/// Parses one reply from the front of `buf`. Bodies are bounded by the
/// largest value (8 sectors).
pub fn parse_reply(buf: &[u8]) -> Parsed<ReplyHeader> {
    if buf.len() < REPLY_HDR {
        return Parsed::Incomplete;
    }
    let h = ReplyHeader {
        status: buf[0],
        seq: u32_at(buf, 1),
        len: u32_at(buf, 5),
        sum: u64_at(buf, 9),
    };
    if h.len as usize > 8 * SECTOR {
        return Parsed::Malformed;
    }
    let total = REPLY_HDR + h.len as usize;
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    Parsed::Message(h, total)
}

/// The checksum both the client and the server component compute: the
/// byte sum of the payload.
pub fn byte_sum(data: &[u8]) -> u64 {
    data.iter().map(|&b| u64::from(b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_and_wait_for_their_payload() {
        let h = ReqHeader {
            op: Op::Put,
            sectors: 2,
            key: 77,
            seq: 9,
            sum: 1234,
        };
        let payload = vec![5u8; 2 * SECTOR];
        let frame = encode_request(&h, &payload);
        assert_eq!(parse_request(&frame), Parsed::Message(h, frame.len()));
        assert_eq!(parse_request(&frame[..frame.len() - 1]), Parsed::Incomplete);
        let mut bad = frame.clone();
        bad[1] = 9;
        assert_eq!(parse_request(&bad), Parsed::Malformed);
    }

    #[test]
    fn replies_round_trip() {
        let h = ReplyHeader {
            status: status::OK,
            seq: 3,
            len: SECTOR as u32,
            sum: 0,
        };
        let frame = encode_reply(&h, &[1u8; SECTOR]);
        assert_eq!(parse_reply(&frame), Parsed::Message(h, frame.len()));
        assert_eq!(parse_reply(&frame[..REPLY_HDR]), Parsed::Incomplete);
    }
}
