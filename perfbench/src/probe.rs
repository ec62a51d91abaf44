//! The one adapter over counters that exist only inside a layer.
//!
//! Everything else the benchmark reports is counted at its own boundary
//! agents ([`crate::boundary`]). What cannot be seen from outside — the
//! TCP endpoints' segment digests, and the layers' own tallies used to
//! cross-check the boundary counts — is read here from the layers'
//! positional `stats` lists, in this one place.

use paramecium::netstack::tcp::{STAT_DIGEST, STAT_RETRANSMITS};
use paramecium::obj::{ObjRef, Value};

use crate::topo::Topology;
use crate::Error;

/// Position of `dropped` in a simlink end's `netdev stats`.
const LINK_DROPPED: usize = 2;
/// Position of `reordered` in a simlink end's `netdev stats`.
const LINK_REORDERED: usize = 4;

/// Counters read from inside the layers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Internal {
    /// Segment digests of client A, client B and the server.
    pub tcp_digests: [u64; 3],
    /// Retransmission timer firings of client A, client B and the server.
    pub tcp_retransmits: [u64; 3],
    /// Frames each link dropped (both directions).
    pub link_dropped: [u64; 2],
    /// Frames each link held back behind later traffic.
    pub link_reordered: [u64; 2],
    /// VM steps of the checksum component's latest run.
    pub component_steps: u64,
}

fn stats(obj: &ObjRef, iface: &str) -> Result<Vec<i64>, Error> {
    obj.invoke(iface, "stats", &[])?
        .as_list()?
        .iter()
        .map(|v| Ok(v.as_int()?))
        .collect()
}

/// Reads the internal counters of `topo`.
pub fn read(topo: &Topology) -> Result<Internal, Error> {
    let mut out = Internal::default();
    for (i, tcp) in topo.raw.tcp.iter().enumerate() {
        let s = stats(tcp, "tcp")?;
        out.tcp_digests[i] = s[STAT_DIGEST] as u64;
        out.tcp_retransmits[i] = s[STAT_RETRANSMITS] as u64;
    }
    for (i, end) in topo.raw.link_ends.iter().enumerate() {
        // Each end reports the direction it transmits into.
        let s = stats(end, "netdev")?;
        out.link_dropped[i / 2] += s[LINK_DROPPED] as u64;
        out.link_reordered[i / 2] += s[LINK_REORDERED] as u64;
    }
    out.component_steps = topo
        .raw
        .component
        .invoke("component", "steps", &[])
        .and_then(|v: Value| v.as_int())? as u64;
    Ok(out)
}
