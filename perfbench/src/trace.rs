//! Span recording at layer boundaries, from outside the program.
//!
//! In a traced run every boundary the request path crosses is wrapped
//! in an [`agent`]: an `InterposerBuilder` object exporting the wrapped
//! layer's interfaces, whose every method opens a span, forwards the
//! call and closes the span. The round loop opens spans for the parts
//! that are not objects (`app.handler`, `app.client`, `chaos`).
//!
//! A span holds its layer, host start/end in nanoseconds, machine
//! cycles at start/end (read from `Machine::now()`, so the agents charge
//! the modelled machine nothing), its parent and the request it serves.
//! Spans go into a preallocated buffer; whenever the buffer is full and
//! no span is open, it is folded into per-layer totals and reused. The
//! first buffer of the timed phase is kept and written out at the end.
//!
//! The recorder is thread-local: the whole simulation runs on one OS
//! thread, and tests running in parallel threads stay independent.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use paramecium::machine::Machine;
use paramecium::obj::{InterposerBuilder, ObjRef};
use parking_lot::Mutex;

use crate::boundary::{self, Counts, Role};

/// The layers of the request path, named after the repository's modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The benchmark's server loop (accept, poll, parse, reply).
    AppHandler,
    /// The benchmark's clients (send, parse, check replies).
    AppClient,
    /// `netstack::tcp`, client hosts.
    TcpClient,
    /// `netstack::tcp`, server.
    TcpServer,
    /// `netstack::arp`.
    Arp,
    /// `netstack::simlink`.
    Simlink,
    /// `netstack::route`.
    Route,
    /// `netstack::filter`.
    Filter,
    /// `core::proxy` cross-domain calls.
    Proxy,
    /// The downloaded `sfi` checksum component.
    Sfi,
    /// `store::cache`.
    Cache,
    /// `store::journal`.
    Journal,
    /// `store::retry`.
    Retry,
    /// `store::driver`.
    Driver,
    /// The chaos controller's poll.
    Chaos,
    /// The benchmark's own frame decoding at the link boundary.
    Observe,
}

/// Number of layers.
pub const LAYERS: usize = 16;

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::AppHandler,
        Layer::AppClient,
        Layer::TcpClient,
        Layer::TcpServer,
        Layer::Arp,
        Layer::Simlink,
        Layer::Route,
        Layer::Filter,
        Layer::Proxy,
        Layer::Sfi,
        Layer::Cache,
        Layer::Journal,
        Layer::Retry,
        Layer::Driver,
        Layer::Chaos,
        Layer::Observe,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::AppHandler => "app.handler",
            Layer::AppClient => "app.client",
            Layer::TcpClient => "netstack.tcp.client",
            Layer::TcpServer => "netstack.tcp.server",
            Layer::Arp => "netstack.arp",
            Layer::Simlink => "netstack.simlink",
            Layer::Route => "netstack.route",
            Layer::Filter => "netstack.filter",
            Layer::Proxy => "core.proxy",
            Layer::Sfi => "sfi.component",
            Layer::Cache => "store.cache",
            Layer::Journal => "store.journal",
            Layer::Retry => "store.retry",
            Layer::Driver => "store.driver",
            Layer::Chaos => "chaos",
            Layer::Observe => "trace.observe",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer whose boundary was crossed.
    pub layer: Layer,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request being served (0 when the work serves no single request).
    pub req: u32,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds at close.
    pub end_ns: u64,
    /// Machine cycles at open.
    pub start_cyc: u64,
    /// Machine cycles at close.
    pub end_cyc: u64,
}

/// Calls and self time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Host nanoseconds not covered by child spans.
    pub self_ns: u64,
    /// Machine cycles not covered by child spans.
    pub self_cyc: u64,
}

/// Self time of every span, `(ns, cycles)`: its duration minus the part
/// of its interval its children cover. Children must follow their parent
/// and appear in start order, as recording produces them.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns, s.end_cyc - s.start_cyc))
        .collect();
    // Per parent: how far its interval is already covered by children.
    let mut covered: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.start_cyc)).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let parent = &spans[p];
        let lo = s.start_ns.max(covered[p].0);
        let hi = s.end_ns.min(parent.end_ns);
        if hi > lo {
            out[p].0 -= hi - lo;
            covered[p].0 = hi;
        }
        let lo = s.start_cyc.max(covered[p].1);
        let hi = s.end_cyc.min(parent.end_cyc);
        if hi > lo {
            out[p].1 -= hi - lo;
            covered[p].1 = hi;
        }
    }
    out
}

/// Adds `spans` into per-layer totals; returns the summed duration of
/// the root spans `(ns, cycles)`.
pub fn fold(spans: &[Span], totals: &mut [LayerTotals; LAYERS]) -> (u64, u64) {
    let mut roots = (0, 0);
    for (s, (ns, cyc)) in spans.iter().zip(self_times(spans)) {
        let t = &mut totals[s.layer.index()];
        t.calls += 1;
        t.self_ns += ns;
        t.self_cyc += cyc;
        if s.parent == NO_PARENT {
            roots.0 += s.end_ns - s.start_ns;
            roots.1 += s.end_cyc - s.start_cyc;
        }
    }
    roots
}

/// The per-layer table's closing check: the rows' self times must
/// partition the time the root spans cover, so that the rows plus
/// `unattributed` (the total minus the roots) equal the total exactly.
/// Returns `unattributed` as `(ns, cycles)`.
pub fn check_rows_add_up(
    totals: &[LayerTotals; LAYERS],
    roots: (u64, u64),
    total: (u64, u64),
) -> Result<(u64, u64), String> {
    let rows_ns: u64 = totals.iter().map(|t| t.self_ns).sum();
    let rows_cyc: u64 = totals.iter().map(|t| t.self_cyc).sum();
    if rows_ns != roots.0 || rows_cyc != roots.1 {
        return Err(format!(
            "self times do not partition the root spans: rows {rows_ns} ns / {rows_cyc} cycles, \
             roots {} ns / {} cycles",
            roots.0, roots.1
        ));
    }
    if roots.0 > total.0 || roots.1 > total.1 {
        return Err(format!(
            "spans cover more than the measured total: roots {} ns / {} cycles, total {} ns / {} cycles",
            roots.0, roots.1, total.0, total.1
        ));
    }
    let unattributed = (total.0 - roots.0, total.1 - roots.1);
    debug_assert_eq!(rows_ns + unattributed.0, total.0);
    Ok(unattributed)
}

/// Spans per buffer.
const CHUNK: usize = 1 << 16;

struct Recorder {
    machine: Arc<Mutex<Machine>>,
    epoch: Instant,
    armed: bool,
    req: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    totals: [LayerTotals; LAYERS],
    roots: (u64, u64),
    recorded: u64,
    sample: Vec<Span>,
    counts: Counts,
    baseline: Counts,
    observers: boundary::Observers,
}

impl Recorder {
    fn clock(&self) -> (u64, u64) {
        let cyc = self.machine.lock().now();
        (self.epoch.elapsed().as_nanos() as u64, cyc)
    }

    fn open(&mut self, layer: Layer) -> u32 {
        let (ns, cyc) = self.clock();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
            start_ns: ns,
            end_ns: ns,
            start_cyc: cyc,
            end_cyc: cyc,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        let (ns, cyc) = self.clock();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let s = &mut self.spans[idx as usize];
        s.end_ns = ns;
        s.end_cyc = cyc;
        if self.stack.is_empty() && self.spans.len() >= CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let r = fold(&self.spans, &mut self.totals);
        self.roots.0 += r.0;
        self.roots.1 += r.1;
        self.recorded += self.spans.len() as u64;
        if self.sample.is_empty() {
            self.sample = self.spans.clone();
        }
        self.spans.clear();
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts counting at the boundaries on this thread (spans stay off
/// until [`arm`]). Called before the traced topology is built.
pub fn install(machine: Arc<Mutex<Machine>>) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            machine,
            epoch: Instant::now(),
            armed: false,
            req: 0,
            spans: Vec::with_capacity(CHUNK),
            stack: Vec::new(),
            totals: [LayerTotals::default(); LAYERS],
            roots: (0, 0),
            recorded: 0,
            sample: Vec::new(),
            counts: Counts::default(),
            baseline: Counts::default(),
            observers: boundary::Observers::default(),
        })
    });
}

/// Starts recording spans; counts seen so far become the baseline the
/// timed phase's counts are measured from.
pub fn arm() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            assert!(rec.stack.is_empty(), "arm between spans");
            rec.armed = true;
            rec.baseline = rec.counts.clone();
        }
    });
}

/// Stops recording spans; boundary counts continue until [`finish`].
pub fn disarm() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            assert!(rec.stack.is_empty(), "disarm between spans");
            rec.armed = false;
        }
    });
}

/// What a traced run recorded.
pub struct Recording {
    /// Per-layer calls and self time over the armed period.
    pub totals: [LayerTotals; LAYERS],
    /// Summed root-span duration `(ns, cycles)`.
    pub roots: (u64, u64),
    /// Spans recorded.
    pub spans: u64,
    /// The first buffer of spans, for writing out.
    pub sample: Vec<Span>,
    /// Boundary counts over the armed period.
    pub counts: Counts,
    /// Boundary counts since [`install`] (set-up included).
    pub counts_total: Counts,
}

/// Stops recording and removes the recorder. `None` if none was
/// installed on this thread.
pub fn finish() -> Option<Recording> {
    REC.with(|r| {
        let mut rec = r.borrow_mut().take()?;
        assert!(rec.stack.is_empty(), "finish between spans");
        rec.flush();
        Some(Recording {
            totals: rec.totals,
            roots: rec.roots,
            spans: rec.recorded,
            sample: rec.sample,
            counts: rec.counts.minus(&rec.baseline),
            counts_total: rec.counts,
        })
    })
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard(Option<u32>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.close(idx);
                }
            });
        }
    }
}

/// Opens a span of `layer` (a no-op unless a recorder is armed).
pub fn enter(layer: Layer) -> SpanGuard {
    REC.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) if rec.armed => SpanGuard(Some(rec.open(layer))),
        _ => SpanGuard(None),
    })
}

/// Tags spans opened from now on with request `req` (0: none).
pub fn set_request(req: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.req = req;
        }
    });
}

/// Runs `f` on the boundary counters and observer state, if a recorder
/// is installed.
pub(crate) fn with_counts(f: impl FnOnce(&mut Counts, &mut boundary::Observers)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(&mut rec.counts, &mut rec.observers);
        }
    });
}

/// Wraps `target` in a tracing agent for `layer`: every method of every
/// interface the target exports opens a span, forwards, closes the span
/// and lets `role` count what crossed the boundary.
pub fn agent(target: ObjRef, layer: Layer, role: Role) -> ObjRef {
    let role = Arc::new(role);
    let mut builder =
        InterposerBuilder::new(target.clone()).class(format!("trace<{}>", layer.name()));
    for desc in target.descriptors() {
        for sig in desc.methods {
            let t = target.clone();
            let role = role.clone();
            let (iface, method) = (desc.interface.clone(), sig.name.clone());
            builder = builder.override_method(&desc.interface, &sig.name, move |_, args| {
                let span = enter(layer);
                let out = t.invoke(&iface, &method, args);
                drop(span);
                boundary::observe(&role, &method, args, &out);
                out
            });
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, ns: (u64, u64), cyc: (u64, u64)) -> Span {
        Span {
            layer,
            parent,
            req: 0,
            start_ns: ns.0,
            end_ns: ns.1,
            start_cyc: cyc.0,
            end_cyc: cyc.1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // handler [0,100) ⊃ proxy [10,60) ⊃ cache [20,30), cache [35,45);
        // handler ⊃ tcp [70,90).
        let spans = [
            span(Layer::AppHandler, NO_PARENT, (0, 100), (0, 1000)),
            span(Layer::Proxy, 0, (10, 60), (100, 900)),
            span(Layer::Cache, 1, (20, 30), (200, 300)),
            span(Layer::Cache, 1, (35, 45), (300, 300)),
            span(Layer::TcpServer, 0, (70, 90), (900, 900)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], (100 - 50 - 20, 1000 - 800));
        assert_eq!(st[1], (50 - 10 - 10, 800 - 100));
        assert_eq!(st[2], (10, 100));
        assert_eq!(st[3], (10, 0));
        assert_eq!(st[4], (20, 0));
        let mut totals = [LayerTotals::default(); LAYERS];
        let roots = fold(&spans, &mut totals);
        assert_eq!(roots, (100, 1000));
        assert_eq!(totals[Layer::Cache.index()].calls, 2);
        assert_eq!(totals[Layer::Cache.index()].self_ns, 20);
        // Rows partition the root spans; the residual is the total's rest.
        assert_eq!(
            check_rows_add_up(&totals, roots, (130, 1100)),
            Ok((30, 100))
        );
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [
            span(Layer::AppHandler, NO_PARENT, (0, 100), (0, 0)),
            span(Layer::Proxy, 0, (10, 50), (0, 0)),
            span(Layer::Proxy, 0, (40, 120), (0, 0)),
        ];
        // Covered: [10,100) — the second child is clipped to the parent
        // and its overlap with the first counts once.
        assert_eq!(self_times(&spans)[0], (10, 0));
    }

    #[test]
    fn rows_that_do_not_add_up_are_rejected() {
        let mut totals = [LayerTotals::default(); LAYERS];
        totals[0].self_ns = 60;
        assert!(check_rows_add_up(&totals, (50, 0), (100, 0)).is_err());
        totals[0].self_ns = 50;
        assert!(check_rows_add_up(&totals, (50, 0), (40, 0)).is_err());
        assert_eq!(check_rows_add_up(&totals, (50, 0), (80, 0)), Ok((30, 0)));
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        install(machine.clone());
        {
            let _unarmed = enter(Layer::Chaos);
        }
        arm();
        {
            let _h = enter(Layer::AppHandler);
            set_request(7);
            let _p = enter(Layer::Proxy);
            machine.lock().charge(40);
        }
        set_request(0);
        let rec = finish().expect("installed");
        assert!(finish().is_none());
        assert_eq!(rec.spans, 2);
        assert_eq!(rec.totals[Layer::Chaos.index()].calls, 0);
        assert_eq!(rec.totals[Layer::Proxy.index()].self_cyc, 40);
        assert_eq!(rec.totals[Layer::AppHandler.index()].self_cyc, 0);
        assert_eq!(rec.sample[1].parent, 0);
        assert_eq!(rec.sample[1].req, 7);
        assert_eq!(rec.roots.1, 40);
    }
}
