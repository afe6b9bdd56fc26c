//! Deterministic per-home workload derivation.
//!
//! Every home's traffic is a pure function of `(FleetConfig, home
//! index)`: which device-types join, when each join wave starts, which
//! device roams away mid-setup, which neighbour's roamer arrives, and
//! which devices later leave. No global state flows between homes, so
//! homes can be simulated in any order, on any number of threads, and
//! produce identical results.
//!
//! [`HomeWorkload`] is a reusable buffer: a pooled fleet worker keeps
//! one per thread and rebuilds it in place for each home it claims, so the per-home frame buffers (and the interleave order
//! scratch) are allocated once per worker instead of once per home.

use std::time::Duration;

use sentinel_devicesim::{interleave_order, DeviceModel, SetupTrace, Testbed};
use sentinel_netproto::{MacAddr, Timestamp};

use crate::FleetConfig;

/// Keyed FNV-1a mix, the same construction the testbed uses to make
/// collection campaigns reproducible.
fn mix(seed: u64, home: u64, slot: u64, tag: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in [seed, home, slot, tag] {
        for byte in value.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

const TAG_PROFILE: u64 = 0x50_52_4f_46; // "PROF"
const TAG_JITTER: u64 = 0x4a_49_54_54; // "JITT"
const TAG_ROAM: u64 = 0x52_4f_41_4d; // "ROAM"
const TAG_LEAVE: u64 = 0x4c_45_41_56; // "LEAV"

/// One home's fully derived simulation input, backed by reusable
/// buffers (see the module docs).
#[derive(Debug, Default)]
pub struct HomeWorkload {
    /// Frame slots; only the first `active` belong to the current home.
    /// Kept at high-water length so the per-slot byte buffers survive
    /// [`HomeWorkload::rebuild`] and are re-encoded in place.
    frames: Vec<(Timestamp, Vec<u8>)>,
    /// Frames of the current home.
    active: usize,
    /// MAC of the local device that roams away mid-setup, if any.
    pub roam_out: Option<MacAddr>,
    /// MAC of the neighbour's device that arrives mid-setup, if any.
    pub roam_in: Option<MacAddr>,
    /// Devices that leave (rule removal) one tick after onboarding,
    /// **sorted by MAC** so the settle loop can binary-search instead
    /// of scanning (membership is all that matters: leave order is
    /// decided by onboarding order, not by this list).
    pub leavers: Vec<MacAddr>,
    /// Derivation scratch: the home's setup traces and per-trace start
    /// offsets.
    traces: Vec<SetupTrace>,
    offsets: Vec<Duration>,
    /// Interleave order scratch: [`interleave_order`]'s keys, so the
    /// frames are [`sentinel_devicesim::interleave_at`]'s stream.
    order: Vec<(Timestamp, usize, usize)>,
}

impl HomeWorkload {
    /// Timestamp-ordered wire frames the home gateway ingests.
    pub fn frames(&self) -> &[(Timestamp, Vec<u8>)] {
        &self.frames[..self.active]
    }

    /// Derives `home`'s complete workload into this buffer, replacing
    /// whatever home it previously held. Equivalent to (and pinned
    /// against) building a fresh workload with [`build_home_workload`];
    /// only the allocations are reused.
    pub(crate) fn rebuild(&mut self, config: &FleetConfig, devices: &[DeviceModel], home: usize) {
        let testbed = Testbed::new(config.seed);
        self.traces.clear();
        self.offsets.clear();
        self.leavers.clear();
        self.roam_out = None;
        self.roam_in = None;

        let out_slot = is_roam_origin(config, home).then(|| roam_slot(config, home));
        for slot in 0..config.devices_per_home {
            let mut trace = slot_trace(config, devices, &testbed, home, slot);
            if out_slot == Some(slot) && trace.packets.len() >= 2 {
                // This device walks out mid-setup: only the prefix of its
                // traffic reaches this gateway.
                trace.packets.truncate(roam_split(&trace));
                self.roam_out = Some(trace.mac);
            } else if config.leave_every > 0
                && mix(config.seed, home as u64, slot as u64, TAG_LEAVE)
                    .is_multiple_of(config.leave_every as u64)
            {
                self.leavers.push(trace.mac);
            }
            self.offsets.push(join_offset(config, home, slot));
            self.traces.push(trace);
        }

        // Re-derive the neighbour's roamer and append its remaining setup
        // traffic as a late arrival.
        if config.roaming_enabled() {
            let neighbour = (home + config.homes - 1) % config.homes;
            if is_roam_origin(config, neighbour) && roam_destination(config, neighbour) == home {
                let slot = roam_slot(config, neighbour);
                let full = slot_trace(config, devices, &testbed, neighbour, slot);
                if full.packets.len() >= 2 {
                    let mut suffix = full;
                    let split = roam_split(&suffix);
                    suffix.packets.drain(..split);
                    self.roam_in = Some(suffix.mac);
                    self.offsets.push(roam_arrival(config, home));
                    self.traces.push(suffix);
                }
            }
        }

        // Interleave by index: walk `interleave_at`'s merge order and
        // encode each packet straight into its reused frame slot. Frame
        // bytes are timestamp-independent, so no packet is ever cloned
        // or re-stamped.
        interleave_order(&self.traces, |i| self.offsets[i], &mut self.order);
        self.active = self.order.len();
        if self.frames.len() < self.active {
            self.frames
                .resize_with(self.active, || (Timestamp::ZERO, Vec::new()));
        }
        for (slot, &(timestamp, trace_index, packet_index)) in self.order.iter().enumerate() {
            let (stamp, buf) = &mut self.frames[slot];
            *stamp = timestamp;
            self.traces[trace_index].packets[packet_index].encode_into(buf);
        }
        self.leavers.sort_unstable();
    }
}

/// Whether `home` contributes a roaming device (to `home + 1`).
pub(crate) fn is_roam_origin(config: &FleetConfig, home: usize) -> bool {
    config.roaming_enabled() && home.is_multiple_of(config.roam_every)
}

/// The home a roamer leaving `home` arrives at.
pub(crate) fn roam_destination(config: &FleetConfig, home: usize) -> usize {
    (home + 1) % config.homes
}

/// The device slot of `home` that roams away, when `home` is an origin.
fn roam_slot(config: &FleetConfig, home: usize) -> usize {
    (mix(config.seed, home as u64, 0, TAG_ROAM) % config.devices_per_home.max(1) as u64) as usize
}

/// The full setup trace of `(home, slot)` — reproducible from the seed
/// alone, so a roam destination can re-derive its neighbour's roamer
/// without any cross-home state.
fn slot_trace(
    config: &FleetConfig,
    devices: &[DeviceModel],
    testbed: &Testbed,
    home: usize,
    slot: usize,
) -> SetupTrace {
    let profile =
        mix(config.seed, home as u64, slot as u64, TAG_PROFILE) % devices.len().max(1) as u64;
    let run = (home * config.devices_per_home + slot) as u64;
    testbed.setup_run(&devices[profile as usize].profile, run)
}

/// Start offset of `slot` inside its home's onboarding storm: joins
/// arrive in waves, staggered inside each wave, with a small keyed
/// jitter so homes are not phase-locked.
fn join_offset(config: &FleetConfig, home: usize, slot: usize) -> Duration {
    let waves = config.waves.max(1);
    let wave = (slot % waves) as u32;
    let rank = (slot / waves) as u32;
    let jitter_us = mix(config.seed, home as u64, slot as u64, TAG_JITTER) % 20_000;
    config.wave_stagger * wave + config.join_stagger * rank + Duration::from_micros(jitter_us)
}

/// When a roamer's remaining traffic shows up at its destination: after
/// the destination's own storm has launched every wave.
fn roam_arrival(config: &FleetConfig, home: usize) -> Duration {
    let jitter_us = mix(config.seed, home as u64, 1, TAG_ROAM) % 20_000;
    config.wave_stagger * (config.waves.max(1) as u32 + 1) + Duration::from_micros(jitter_us)
}

/// Splits a roamer's trace: the first `prefix_len` packets play at the
/// origin, the rest at the destination.
fn roam_split(trace: &SetupTrace) -> usize {
    (trace.packets.len() / 2).max(1)
}

/// Builds the complete workload of one home into a fresh buffer (what a
/// pooled worker rebuilds in place).
pub fn build_home_workload(
    config: &FleetConfig,
    devices: &[DeviceModel],
    home: usize,
) -> HomeWorkload {
    let mut workload = HomeWorkload::default();
    workload.rebuild(config, devices, home);
    workload
}
