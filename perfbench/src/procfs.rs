//! Process counters read from `/proc/self`.

use std::fs;

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// User plus system CPU time of the whole process, in milliseconds
/// (`/proc/self/stat` counts in USER_HZ = 100 ticks per second).
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |at: usize| -> f64 { fields.get(at).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (ticks(11) + ticks(12)) * 10.0
}

/// Voluntary context switches summed over the process's live threads.
pub fn voluntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| {
            let status = fs::read_to_string(task.ok()?.path().join("status")).ok()?;
            status.lines().find_map(|line| {
                line.strip_prefix("voluntary_ctxt_switches:")?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_this_process() {
        assert!(status_kb("VmRSS") > 0);
        assert!(status_kb("VmHWM") >= status_kb("VmRSS") / 2);
        assert_eq!(status_kb("NoSuchField"), 0);
        let started = cpu_ms();
        let spin = (0..200_000_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_ms() > started, "a busy loop costs CPU ticks");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(voluntary_switches() > 0);
    }
}
