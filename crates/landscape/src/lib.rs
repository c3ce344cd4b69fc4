//! # autoglobe-landscape — the managed hardware/software landscape
//!
//! This crate models the world the AutoGlobe controller administers
//! (paper Sections 1, 2 and 5.1):
//!
//! * **Servers** ([`ServerSpec`]) — pooled, virtualized hardware with the
//!   attributes the server-selection controller consumes (Table 3):
//!   performance index, CPU count/clock/cache, memory, swap, temp space.
//! * **Services** ([`ServiceSpec`]) — databases, central instances and
//!   application servers, with the declarative capabilities and constraints
//!   of Tables 5 and 6: min/max instances, exclusivity, minimum performance
//!   index, and the set of allowed actions.
//! * **Instances** ([`Instance`]) — running copies of a service, each bound
//!   to a server through a *service IP address* ([`VirtualIp`]); rebinding
//!   that IP is what makes services location-independent (Section 2).
//! * **Actions** ([`Action`]) — the controller's output vocabulary
//!   (Table 2): start, stop, scale-in/out/up/down, move, priority changes.
//! * **The allocation table** ([`Landscape`]) — which instance runs where,
//!   with transactional application of actions and constraint checking
//!   ([`constraints`]).
//! * **Shard maps** ([`shard`]) — explicit deterministic partitions of the
//!   landscape for the sharded control plane: every server hashes to one
//!   shard, services hash on their own id.
//! * **Synthetic landscapes** ([`synth`]) — seeded, tiered generator for
//!   landscapes 100×–1000× the paper's: paper-shaped subsystems at
//!   arbitrary server counts with millions of aggregate users.
//! * **The declarative XML description language** ([`xml`]) — landscapes,
//!   service constraints and fuzzy rule bases are described in XML, parsed
//!   by a from-scratch minimal XML parser (the paper uses a proprietary
//!   XML language based on early GGF drafts; ours is isomorphic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod allocation;
pub mod constraints;
pub mod error;
pub mod ids;
pub mod server;
pub mod service;
pub mod shard;
pub mod synth;
pub mod xml;

pub use action::{Action, ActionKind};
pub use allocation::{ApplyOutcome, Instance, Landscape, VirtualIp};
pub use constraints::{check_action, ConstraintViolation};
pub use error::LandscapeError;
pub use ids::{InstanceId, ServerId, ServiceId};
pub use server::ServerSpec;
pub use service::{ServiceKind, ServiceSpec};
pub use shard::{DeltaSubject, SampleRing, ShardDelta, ShardId, ShardMap, WatchSnapshot};
pub use synth::{SynthConfig, SynthLandscape, SynthWorkload};
