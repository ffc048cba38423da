//! The correctness oracle: the same per-user operations replayed in-process
//! through one `EdgeDevice` with per-user streams, a fresh `BidSink` and a
//! fresh `BidExchange`, pumped at the same synchronization points as the
//! fleet. Its exchange-log digest is what every fleet epoch's must equal.
//!
//! In a traced run the replay also records a span around each call into a
//! layer's public function.

use std::time::Instant;

use privlocad::protocol::EdgeResponse;
use privlocad::{EdgeDevice, SystemConfig};
use privlocad_adnet::BidExchange;
use privlocad_mobility::UserId;
use privlocad_openrtb::{BidRequest, BidSink, DeviceId, Geo};

use crate::drive::{advance, kind, Ordinals};
use crate::inputs::{Market, Script};
use crate::spans::{Layer, Spans};

/// One synchronization-point-delimited phase: users in `order` each send
/// their whole `script` list, then the sink is pumped.
pub struct Phase<'a> {
    pub script: &'a Script,
    pub order: &'a [u32],
}

/// What the reference replay settled.
pub struct Reference {
    pub exchange: BidExchange,
    pub edge: EdgeDevice,
    pub submitted: u64,
    /// Campaigns matched, summed over every bid (traced runs only).
    pub matched: u64,
}

const EDGE_LAYERS: [Layer; 3] = [Layer::EdgeCheckIn, Layer::EdgeRequest, Layer::EdgeClose];

/// Runs `f`, recording a span around it when traced.
fn timed<T>(
    spans: &mut Option<&mut Spans>,
    layer: Layer,
    device: u32,
    seq: u32,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(spans) => {
            let started = Instant::now();
            let out = f();
            spans.close(layer, device, seq, started);
            out
        }
        None => f(),
    }
}

/// Replays `phases` in order on one device.
pub fn replay(
    config: SystemConfig,
    master: u64,
    users: usize,
    phases: &[Phase<'_>],
    market: &Market,
    mut spans: Option<&mut Spans>,
) -> Result<Reference, String> {
    let mut edge = EdgeDevice::with_per_user_streams(config, master);
    let sink = BidSink::new();
    let mut exchange = market.exchange();
    let mut ordinals: Ordinals = vec![[0; 3]; users];
    let mut responses = Vec::with_capacity(1);
    let mut matched = 0u64;
    for phase in phases {
        for &u in phase.order {
            let user = UserId::new(u);
            let mut seq = ordinals[u as usize];
            for op in &phase.script[u as usize] {
                let k = kind(op);
                let started = spans.is_some().then(Instant::now);
                let request = op.request(user);
                let frame = timed(&mut spans, Layer::ProtocolEncode, u, seq[k], || {
                    request.encode()
                });
                std::hint::black_box(frame);
                responses.clear();
                timed(&mut spans, EDGE_LAYERS[k], u, seq[k], || {
                    edge.serve_batch(std::slice::from_ref(&request), &mut responses)
                });
                let bytes = responses[0].encode();
                let response = timed(&mut spans, Layer::ProtocolDecode, u, seq[k], || {
                    EdgeResponse::decode(&bytes)
                })
                .map_err(|e| format!("reference response does not decode: {e}"))?;
                if let EdgeResponse::ReportedLocation { location } = response {
                    timed(&mut spans, Layer::SinkSubmit, u, seq[k], || {
                        sink.submit(DeviceId::new(u64::from(u)), Geo::from_point(location))
                    });
                }
                if let (Some(spans), Some(started)) = (spans.as_mut(), started) {
                    spans.close(Layer::RefOp, u, seq[k], started);
                }
                seq[k] += 1;
            }
        }
        advance(&mut ordinals, phase.script);
        let pending = sink.drain();
        match spans.as_mut() {
            None => {
                exchange.pump_pending(&pending).map_err(|e| e.to_string())?;
            }
            Some(spans) => {
                for bid in &pending {
                    let (device, seq) = (bid.device.raw() as u32, bid.seq as u32);
                    let started = Instant::now();
                    let (request, _) =
                        BidRequest::decode_slice(&bid.frame).map_err(|e| e.to_string())?;
                    spans.close(Layer::BidDecode, device, seq, started);
                    let started = Instant::now();
                    matched += exchange
                        .network()
                        .matching(request.device.geo.point())
                        .len() as u64;
                    spans.close(Layer::AdnetMatch, device, seq, started);
                    let started = Instant::now();
                    exchange
                        .pump_pending(std::slice::from_ref(bid))
                        .map_err(|e| e.to_string())?;
                    spans.close(Layer::AdnetSettle, device, seq, started);
                }
            }
        }
    }
    Ok(Reference {
        exchange,
        edge,
        submitted: sink.submitted(),
        matched,
    })
}
