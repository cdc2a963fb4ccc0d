//! The benchmark's clocks, chosen for shared virtual machines.
//!
//! A VM's hypervisor runs other guests on the same cores and takes CPU
//! time from this one ("steal"). Wall-clock figures then grow with how
//! busy the other guests are, not with what the program does: over 12
//! runs on a 2-vCPU VM whose steal ranged from 0.3 % to 19.8 % of CPU
//! time, the wall-clock serial median rose by 43 % and the training
//! wall time by 45 % with it, while the process's CPU time for the same
//! work moved by 15 % and 6 %. So work done on the caller's behalf is
//! timed in process CPU time (every thread of the process, which the
//! kernel charges without the stolen time). That holds for the batch
//! too: its wall-clock rate depends on how many of the host's cores
//! the other guests leave free at the moment, so it is gated per CPU
//! second. See README.md, "Clocks".

use crate::stats::{median, sorted};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process (all its threads) has used, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`;
/// the run prints the share stolen while it measured.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Wall and process CPU time of one stretch of work, in seconds.
#[derive(Clone, Copy, Default)]
pub struct Lap {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Median wall time and median process CPU time of repeated laps.
pub fn median_lap(laps: &[Lap]) -> Lap {
    let med = |f: fn(&Lap) -> f64| median(&sorted(laps.iter().map(f).collect()));
    Lap {
        wall_s: med(|l| l.wall_s),
        cpu_s: med(|l| l.cpu_s),
    }
}

pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn lap(&self) -> Lap {
        Lap {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu,
        }
    }
}
