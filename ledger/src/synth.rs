//! Workload synthesis: a pure function of `--seed`, run entirely before
//! the clock starts. The library under test only ever sees the wire
//! frames (and fingerprints) built here.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use sentinel_devicesim::{catalog, interleave_at, DeviceModel, SetupTrace, Testbed};
use sentinel_fleet::workload::build_home_workload;
use sentinel_fleet::FleetConfig;
use sentinel_netproto::{MacAddr, Timestamp};

use crate::Failed;

/// One timestamped wire frame, the unit `StreamRuntime` ingests.
pub type Frame = (Timestamp, Vec<u8>);

/// How long after its last setup packet each device sends the one
/// keep-alive that lets the idle-gap detector (10 s) close its session.
const KEEP_ALIVE_AFTER: Duration = Duration::from_secs(12);

/// A synthesized device and the ground truth of what it is.
pub struct Device {
    /// Index into `catalog()` — also the label the classifiers use.
    pub type_index: usize,
    pub trace: SetupTrace,
}

/// `count` setup runs, round-robin over `types` (catalog indices), each
/// ending in a keep-alive frame. Lab MACs are vendor OUI + 24 random
/// bits and may collide across thousands of runs; a colliding run is
/// redrawn (another factory reset), so MACs are unique by construction
/// and the uniqueness check below can never fail a seed.
pub fn devices(seed: u64, count: usize, types: &[usize]) -> Vec<Device> {
    let catalog = catalog();
    let testbed = Testbed::new(seed ^ 0x5041);
    let mut seen = HashSet::with_capacity(count);
    (0..count)
        .map(|i| {
            let type_index = types[i % types.len()];
            let profile = &catalog[type_index].profile;
            let base_run = 10_000 + (i / types.len()) as u64;
            let mut trace = (0u64..)
                .map(|redraw| testbed.setup_run(profile, base_run + redraw * 1_000_000))
                .find(|trace| seen.insert(trace.mac))
                .expect("24 random MAC bits cannot all be taken");
            let mut keep_alive = trace.packets[0].clone();
            keep_alive.timestamp = trace
                .packets
                .last()
                .expect("a setup run sends packets")
                .timestamp
                + KEEP_ALIVE_AFTER;
            trace.packets.push(keep_alive);
            Device { type_index, trace }
        })
        .collect()
}

/// Every catalog index: the round-robin of the onboarding workloads.
pub fn all_types() -> Vec<usize> {
    (0..catalog().len()).collect()
}

/// Catalog indices of the device-types Table III shows are confusable.
pub fn confusable_types() -> Vec<usize> {
    let catalog = catalog();
    sentinel_devicesim::confusable_groups()
        .into_iter()
        .flatten()
        .map(|name| {
            catalog
                .iter()
                .position(|d| d.info.identifier == name)
                .expect("confusable groups name catalog devices")
        })
        .collect()
}

/// An interleaved capture: frames in timestamp order, and for each
/// frame the index of the device that sent it.
pub struct Capture {
    pub frames: Vec<Frame>,
    pub device_of: Vec<u32>,
    /// Device index by MAC.
    pub index_of: HashMap<MacAddr, u32>,
}

/// Starts device `i` at `i × stagger` and merges all traces into one
/// timestamp-ordered stream of encoded frames.
pub fn capture(devices: &[Device], stagger: Duration) -> Result<Capture, Failed> {
    let index_of: HashMap<MacAddr, u32> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.trace.mac, i as u32))
        .collect();
    if index_of.len() != devices.len() {
        return Err(Failed::new("synth.macs_unique", "two devices share a MAC"));
    }
    let traces: Vec<SetupTrace> = devices.iter().map(|d| d.trace.clone()).collect();
    let packets = interleave_at(&traces, |i| stagger * i as u32);
    let mut frames = Vec::with_capacity(packets.len());
    let mut device_of = Vec::with_capacity(packets.len());
    for packet in &packets {
        let device = index_of.get(&packet.src_mac()).ok_or_else(|| {
            Failed::new(
                "synth.frames_carry_device_mac",
                "a frame has a foreign source",
            )
        })?;
        device_of.push(*device);
        frames.push((packet.timestamp, packet.encode()));
    }
    Ok(Capture {
        frames,
        device_of,
        index_of,
    })
}

/// One home of the fleet: its frames (built by the library's own
/// `build_home_workload`, copied out so the timed pass never calls
/// `rebuild`/`encode`), cut into fleet ticks.
pub struct Home {
    pub frames: Vec<Frame>,
    /// End index (exclusive) of each tick's frames, ascending; the last
    /// entry is `frames.len()`.
    pub tick_ends: Vec<usize>,
    /// Per frame, the home-local index of the sending device.
    pub device_of: Vec<u32>,
    pub devices: usize,
}

/// Every home's pre-built input for `config`.
pub fn homes(config: &FleetConfig, devices: &[DeviceModel]) -> Vec<Home> {
    (0..config.homes)
        .map(|home| {
            let frames = build_home_workload(config, devices, home).frames().to_vec();
            // The same tick walk `run_fleet`'s ingest performs.
            let mut tick_ends = Vec::new();
            let mut cursor = 0usize;
            let mut tick_end = config.tick;
            while cursor < frames.len() {
                let limit = Timestamp::ZERO + tick_end;
                while cursor < frames.len() && frames[cursor].0 < limit {
                    cursor += 1;
                }
                tick_ends.push(cursor);
                tick_end += config.tick;
            }
            let mut macs: Vec<&[u8]> = Vec::new();
            let device_of = frames
                .iter()
                .map(|(_, frame)| {
                    let mac = &frame[6..12];
                    let known = macs.iter().position(|m| *m == mac);
                    known.unwrap_or_else(|| {
                        macs.push(mac);
                        macs.len() - 1
                    }) as u32
                })
                .collect();
            let devices = macs.len();
            Home {
                frames,
                tick_ends,
                device_of,
                devices,
            }
        })
        .collect()
}

/// Ground truth of the fleet: the catalog type behind every MAC.
///
/// `sentinel-fleet` keeps its per-slot derivation private, so this
/// mirrors it (keyed FNV-1a over `(seed, home, slot, "PROF")`, run
/// index `home × devices_per_home + slot`). The caller checks that the
/// map covers every MAC the homes' frames carry, so a change to the
/// private derivation fails an oracle instead of skewing a metric.
pub fn fleet_truth(config: &FleetConfig, devices: &[DeviceModel]) -> HashMap<MacAddr, usize> {
    const TAG_PROFILE: u64 = 0x50_52_4f_46;
    let mix = |home: u64, slot: u64| {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for value in [config.seed, home, slot, TAG_PROFILE] {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    };
    let testbed = Testbed::new(config.seed);
    let mut truth = HashMap::new();
    for home in 0..config.homes {
        for slot in 0..config.devices_per_home {
            let type_index = (mix(home as u64, slot as u64) % devices.len() as u64) as usize;
            let run = (home * config.devices_per_home + slot) as u64;
            let mac = testbed.setup_run(&devices[type_index].profile, run).mac;
            truth.insert(mac, type_index);
        }
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_frame_bytes() {
        let stagger = Duration::from_millis(20);
        let a = capture(&devices(7, 60, &all_types()), stagger).unwrap();
        let b = capture(&devices(7, 60, &all_types()), stagger).unwrap();
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.device_of, b.device_of);
    }

    #[test]
    fn another_seed_gives_other_macs() {
        let macs = |seed| -> HashSet<MacAddr> {
            devices(seed, 60, &all_types())
                .iter()
                .map(|d| d.trace.mac)
                .collect()
        };
        let (a, b) = (macs(7), macs(8));
        assert_eq!(a.len(), 60, "MACs are unique within a seed");
        assert!(a.intersection(&b).count() < 3, "seeds draw their own MACs");
    }

    #[test]
    fn every_device_ends_in_a_keep_alive_past_the_idle_gap() {
        for device in devices(3, 27, &all_types()) {
            let packets = &device.trace.packets;
            let gap = packets[packets.len() - 1].timestamp - packets[packets.len() - 2].timestamp;
            assert_eq!(gap, KEEP_ALIVE_AFTER);
            assert!(packets.iter().all(|p| p.src_mac() == device.trace.mac));
        }
    }

    #[test]
    fn capture_is_time_ordered_and_attributes_each_frame() {
        let devices = devices(5, 40, &all_types());
        let capture = capture(&devices, Duration::from_micros(1500)).unwrap();
        assert!(capture.frames.windows(2).all(|w| w[0].0 <= w[1].0));
        for ((_, frame), &device) in capture.frames.iter().zip(&capture.device_of) {
            assert_eq!(&frame[6..12], devices[device as usize].trace.mac.octets());
        }
    }

    #[test]
    fn confusable_types_are_the_ten_family_members() {
        let types = confusable_types();
        assert_eq!(types.len(), 10);
        assert_eq!(types.iter().collect::<HashSet<_>>().len(), 10);
    }

    #[test]
    fn fleet_homes_are_seeded_ticked_and_covered_by_truth() {
        let catalog = catalog();
        let config = |seed| FleetConfig {
            homes: 6,
            seed,
            threads: 1,
            ..FleetConfig::default()
        };
        let a = homes(&config(1), &catalog);
        let b = homes(&config(1), &catalog);
        let c = homes(&config(2), &catalog);
        assert!(a.iter().zip(&b).all(|(x, y)| x.frames == y.frames));
        assert!(a.iter().zip(&c).any(|(x, y)| x.frames != y.frames));
        let truth = fleet_truth(&config(1), &catalog);
        for home in &a {
            assert_eq!(home.tick_ends.last(), Some(&home.frames.len()));
            assert!(home.tick_ends.windows(2).all(|w| w[0] <= w[1]));
            assert!(home.devices >= config(1).devices_per_home - 1);
            for (_, frame) in &home.frames {
                let mac = MacAddr::new(frame[6..12].try_into().unwrap());
                assert!(truth.contains_key(&mac), "truth misses {mac}");
            }
        }
    }
}
