//! Fleet-level tuning knobs.

use std::time::Duration;

use sentinel_stream::StreamConfig;

/// Configuration of one fleet simulation run.
///
/// Every field feeds the deterministic workload derivation: two runs
/// with equal configs (and the same trained service) produce bit-equal
/// [`crate::FleetReport`]s at any `threads` setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of home networks, each with its own topology, switch and
    /// Sentinel gateway.
    pub homes: usize,
    /// Devices joining each home during the simulation.
    pub devices_per_home: usize,
    /// Onboarding storm shape: joins arrive in this many waves…
    pub waves: usize,
    /// …spaced this far apart…
    pub wave_stagger: Duration,
    /// …with devices inside one wave staggered by this much.
    pub join_stagger: Duration,
    /// Tick length of the fleet clock, in whole microseconds (the
    /// capture clock's resolution; below one, including zero, reads as
    /// one). Each gateway ingests the frames whose capture timestamp
    /// falls inside the tick; joins, leaves and roams land on tick
    /// boundaries. Purely a scheduling granularity: per-device decisions
    /// are tick-size independent (the streaming runtime's batch-size
    /// invariance), only *when* leaves are applied quantizes to ticks.
    pub tick: Duration,
    /// Every `roam_every`-th home contributes one device that roams to
    /// the next home mid-setup (`0` disables roaming). Ignored when the
    /// fleet has fewer than two homes or no devices per home: a home
    /// with no device has none to send away.
    pub roam_every: usize,
    /// Every `leave_every`-th onboarded device leaves its home one tick
    /// after onboarding, removing its enforcement rule (`0` disables
    /// leaves).
    pub leave_every: usize,
    /// Base seed of the whole fleet derivation.
    pub seed: u64,
    /// Fleet-level worker threads (`0` = auto via `SENTINEL_THREADS`).
    /// Parallelism is *across* homes — a gateway itself ingests
    /// serially — and fleet results are independent of this setting.
    pub threads: usize,
    /// Session-table capacity of each home gateway.
    pub max_sessions_per_home: usize,
    /// Not consulted by [`crate::run_fleet`]: a gateway assesses each
    /// tick's completed setups itself. Kept because the
    /// frozen benchmark reads it as the chunk size of its own composed
    /// fleet pass.
    pub assess_batch_rows: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            homes: 100,
            devices_per_home: 4,
            waves: 2,
            wave_stagger: Duration::from_millis(400),
            join_stagger: Duration::from_millis(35),
            tick: Duration::from_millis(250),
            roam_every: 3,
            leave_every: 4,
            seed: 42,
            threads: 0,
            max_sessions_per_home: 16,
            assess_batch_rows: 512,
        }
    }
}

impl FleetConfig {
    /// The per-home gateway configuration derived from the fleet knobs.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            max_sessions: self.max_sessions_per_home.max(1),
            ..StreamConfig::default()
        }
    }

    /// Whether roaming is active under this config.
    pub(crate) fn roaming_enabled(&self) -> bool {
        self.roam_every > 0 && self.homes >= 2 && self.devices_per_home > 0
    }
}
