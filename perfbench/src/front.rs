//! The fleet seam: the one place the benchmark talks to a fleet front.
//!
//! Every workload drives [`FabricRouter`], the front with the sequencing and
//! dedup layers. [`ShardRouter`] is kept only so the self-test can check that
//! both fronts settle the same exchange log; when the two routers merge, this
//! file is what changes.

use std::sync::Arc;

use privlocad::{
    ChannelFaultPlan, EdgeDevice, FabricOptions, FabricRouter, FabricStats, FaultPlan,
    ServedLocation, ServerOptions, ShardRouter, StateFootprint, SystemConfig,
};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::BidSink;
use privlocad_telemetry::Telemetry;

use crate::inputs::Op;
use crate::SHARDS;

/// Which front a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontKind {
    Fabric,
    Shard,
}

/// How a fleet is spawned.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub kind: FrontKind,
    pub master: u64,
    pub link: ChannelFaultPlan,
    pub kill_plans: Vec<FaultPlan>,
}

/// A running fleet with its shared bid sink and telemetry hub.
#[derive(Debug)]
pub struct Fleet {
    front: Front,
    pub sink: Arc<BidSink>,
    pub hub: Telemetry,
}

#[derive(Debug)]
enum Front {
    Fabric(Box<FabricRouter>),
    Shard(ShardRouter),
}

/// What one operation returned, as the device sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served {
    Ack,
    Released(Point),
    /// Answered from the fabric's stale cache: counted as a failure.
    Degraded,
    Closed(u32),
}

/// What a fleet leaves behind once it has shut down.
#[derive(Debug, Clone, Copy, Default)]
pub struct Joined {
    pub footprint: StateFootprint,
    pub fabric: FabricStats,
}

impl Fleet {
    pub fn spawn(config: SystemConfig, spec: &FleetSpec) -> Fleet {
        let sink = Arc::new(BidSink::new());
        let hub = Telemetry::new();
        let server = ServerOptions {
            telemetry: hub.clone(),
            bid_sink: Some(Arc::clone(&sink)),
            ..ServerOptions::default()
        };
        let front = match spec.kind {
            FrontKind::Fabric => Front::Fabric(Box::new(FabricRouter::spawn(
                config,
                spec.master,
                FabricOptions {
                    shards: SHARDS,
                    fault_plan: spec.link.clone(),
                    kill_plans: spec.kill_plans.clone(),
                    server,
                    ..FabricOptions::default()
                },
            ))),
            FrontKind::Shard => {
                let options = (0..SHARDS)
                    .map(|s| ServerOptions {
                        fault_plan: spec.kill_plans.get(s).cloned().unwrap_or_default(),
                        ..server.clone()
                    })
                    .collect();
                Front::Shard(ShardRouter::spawn_with(config, spec.master, options))
            }
        };
        Fleet { front, sink, hub }
    }

    /// Sends one operation and waits for its answer.
    pub fn serve(&self, user: UserId, op: Op) -> Result<Served, String> {
        match &self.front {
            Front::Fabric(fabric) => match op {
                Op::CheckIn {
                    location,
                    timestamp,
                } => fabric
                    .check_in(user, location, timestamp)
                    .map(|()| Served::Ack),
                Op::Request { location } => {
                    fabric.request_location(user, location).map(|s| match s {
                        ServedLocation::Fresh(p) => Served::Released(p),
                        ServedLocation::Degraded(_) => Served::Degraded,
                    })
                }
                Op::Close => fabric.finalize_window(user).map(Served::Closed),
            }
            .map_err(|e| e.to_string()),
            Front::Shard(router) => match op {
                Op::CheckIn {
                    location,
                    timestamp,
                } => router
                    .check_in(user, location, timestamp)
                    .map(|()| Served::Ack),
                Op::Request { location } => router
                    .request_location(user, location)
                    .map(Served::Released),
                Op::Close => router.finalize_window(user).map(Served::Closed),
            }
            .map_err(|e| e.to_string()),
        }
    }

    /// Stops every shard and sums the final devices' footprints.
    pub fn finish(self) -> Result<Joined, String> {
        let (devices, fabric): (Vec<EdgeDevice>, FabricStats) = match self.front {
            Front::Fabric(fabric) => {
                fabric.shutdown().map_err(|e| e.to_string())?;
                let stats = fabric.stats();
                (fabric.join().map_err(|e| e.to_string())?, stats)
            }
            Front::Shard(router) => {
                router.shutdown().map_err(|e| e.to_string())?;
                (
                    router.join().map_err(|e| e.to_string())?,
                    FabricStats::default(),
                )
            }
        };
        let mut footprint = StateFootprint::default();
        for device in &devices {
            let fp = device.footprint();
            footprint.users += fp.users;
            footprint.user_bytes += fp.user_bytes;
            footprint.shared_bytes += fp.shared_bytes;
            footprint.distinct_candidate_sets += fp.distinct_candidate_sets;
            footprint.candidate_set_refs += fp.candidate_set_refs;
            footprint.distinct_posterior_tables += fp.distinct_posterior_tables;
        }
        Ok(Joined { footprint, fabric })
    }
}
