//! Spans the benchmark records around its own calls into each layer's
//! public functions. Nothing inside the program is instrumented: a span
//! covers one call, timed from the caller's side.
//!
//! Spans are keyed by `(device, seq)`, where `seq` is the device's ordinal
//! of that kind of operation. An ad request's fleet span, its reference
//! replay spans and its bid's exchange spans therefore share one key (the
//! bid's `seq` in the exchange log is the device's ad-request ordinal).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer a span was recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Fleet round trips, client side: `core::fabric` + `core::server`.
    FleetCheckIn,
    FleetRequest,
    FleetClose,
    /// `BidSink::drain` and `BidExchange::pump_pending` on the fleet path.
    SinkDrain,
    ExchangePump,
    /// One operation of the in-process reference replay (parent of the
    /// codec, edge and sink spans below).
    RefOp,
    ProtocolEncode,
    EdgeCheckIn,
    EdgeRequest,
    EdgeClose,
    ProtocolDecode,
    SinkSubmit,
    /// One bid of the reference exchange: `BidRequest::decode_slice`,
    /// `AdNetwork::matching`, and `BidExchange::pump_pending` on that bid.
    BidDecode,
    AdnetMatch,
    AdnetSettle,
    /// `EdgeDevice::checkpoint` / `EdgeDevice::restore_from_checkpoint`.
    CheckpointEncode,
    CheckpointRestore,
    /// `ExchangeObservations::from_log` and Algorithm 1 per device.
    AttackIngest,
    AttackInfer,
}

impl Layer {
    pub const ALL: [Layer; 19] = [
        Layer::FleetCheckIn,
        Layer::FleetRequest,
        Layer::FleetClose,
        Layer::SinkDrain,
        Layer::ExchangePump,
        Layer::RefOp,
        Layer::ProtocolEncode,
        Layer::EdgeCheckIn,
        Layer::EdgeRequest,
        Layer::EdgeClose,
        Layer::ProtocolDecode,
        Layer::SinkSubmit,
        Layer::BidDecode,
        Layer::AdnetMatch,
        Layer::AdnetSettle,
        Layer::CheckpointEncode,
        Layer::CheckpointRestore,
        Layer::AttackIngest,
        Layer::AttackInfer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::FleetCheckIn => "fleet.check_in",
            Layer::FleetRequest => "fleet.request_location",
            Layer::FleetClose => "fleet.finalize_window",
            Layer::SinkDrain => "openrtb.drain",
            Layer::ExchangePump => "adnet.pump_pending",
            Layer::RefOp => "reference.op",
            Layer::ProtocolEncode => "protocol.encode",
            Layer::EdgeCheckIn => "edge.check_in",
            Layer::EdgeRequest => "edge.request_location",
            Layer::EdgeClose => "edge.finalize_window",
            Layer::ProtocolDecode => "protocol.decode",
            Layer::SinkSubmit => "openrtb.submit",
            Layer::BidDecode => "openrtb.decode",
            Layer::AdnetMatch => "adnet.matching",
            Layer::AdnetSettle => "adnet.settle",
            Layer::CheckpointEncode => "recovery.checkpoint",
            Layer::CheckpointRestore => "recovery.restore",
            Layer::AttackIngest => "attack.ingest",
            Layer::AttackInfer => "attack.infer",
        }
    }

    /// The span this one nests in, if any.
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::ProtocolEncode
            | Layer::EdgeCheckIn
            | Layer::EdgeRequest
            | Layer::EdgeClose
            | Layer::ProtocolDecode
            | Layer::SinkSubmit => Some(Layer::RefOp),
            _ => None,
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub device: u32,
    pub seq: u32,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// An in-memory span buffer; `None` when the run is untraced.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a span that started at `start` and ends now.
    pub fn close(&mut self, layer: Layer, device: u32, seq: u32, start: Instant) {
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            device,
            seq,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    pub fn absorb(&mut self, other: Vec<Span>) {
        self.spans.extend(other);
    }

    /// Durations of one layer's spans, in ns.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Per layer: calls, total time, and self time (total minus the time
    /// its child spans cover), all in ns.
    pub fn self_times(&self) -> Vec<(Layer, usize, u64, u64)> {
        Layer::ALL
            .iter()
            .map(|&layer| {
                let (calls, total) = self
                    .spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .fold((0, 0), |(c, t), s| (c + 1, t + s.dur_ns));
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|s| s.layer.parent() == Some(layer))
                    .map(|s| s.dur_ns)
                    .sum();
                (layer, calls, total, total.saturating_sub(children))
            })
            .collect()
    }

    /// Writes the spans of every `stride`-th device (all of them when
    /// `stride` is 1), in start order, as tab-separated text. Sampling by
    /// device keeps each written request's spans complete across layers.
    pub fn write(&self, path: &Path, stride: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let stride = stride.max(1);
        let mut sorted: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| s.device % stride == 0)
            .copied()
            .collect();
        sorted.sort_by_key(|s| s.start_ns);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# devices with id % {stride} == 0; the per-layer metrics use every span"
        )?;
        writeln!(out, "layer\tparent\tdevice\tseq\tstart_ns\tdur_ns")?;
        for s in &sorted {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.layer.parent().map_or("-", Layer::name),
                s.device,
                s.seq,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}
