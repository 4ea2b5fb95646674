//! Seeded violations, one block per rule of the determinism contract, each
//! commented with the lint that must reject it. `check.sh` fails if any of
//! them stays silent.

// print-in-lib: what the five sim-path library crates deny at their roots.
#![deny(clippy::print_stdout, clippy::print_stderr)]

// wall-clock, wall-sleep, env-read (disallowed_methods; naming SystemTime is
// disallowed_types): paths resolve, so an alias does not hide the call. print-in-lib (print_stdout, print_stderr).
pub fn wall_clock_sleep_env_print() -> Option<String> {
    use std::time::Instant as Clock;
    let _ = Clock::now();
    let _ = std::time::SystemTime::now();
    let _ = std::time::UNIX_EPOCH.elapsed();
    let _ = std::time::SystemTime::UNIX_EPOCH.elapsed();
    std::thread::sleep(std::time::Duration::ZERO);
    println!("row");
    eprintln!("note");
    std::env::var("SEED").ok()
}

// hashmap-iter, sink-unordered, shard-local-state (disallowed_types, and
// disallowed_methods for the channel constructor).
pub fn unordered_and_shared() -> usize {
    let map: std::collections::HashMap<u32, usize> = Default::default();
    let lock = std::sync::Mutex::new(map.into_values().sum::<usize>());
    let flag = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    let _ = tx.send(flag.into_inner());
    rx.recv().unwrap_or(0) + lock.into_inner().unwrap_or(0)
}

static mut COUNTER: u64 = 0;

// static-mut (unsafe_code): touching a `static mut` needs `unsafe`.
pub fn static_mut() -> u64 {
    unsafe {
        COUNTER += 1;
        COUNTER
    }
}

// panic-in-io (unwrap_used, expect_used, panic): node/src/runtime.rs and
// cluster.rs open with the same inner attribute.
pub mod runtime {
    #![deny(clippy::expect_used, clippy::panic)]

    pub fn panic_in_io(frame: Option<u8>) -> u8 {
        if frame.unwrap() != frame.expect("present") {
            panic!("diverged");
        }
        0
    }
}

// wire-cast (cast_possible_truncation) on a decode function.
#[deny(clippy::cast_possible_truncation)]
pub fn decode_len(raw: u64) -> u32 {
    raw as u32
}

// The escape hatch: a bare allow (allow_attributes) without a reason
// (allow_attributes_without_reason), and a stale exception
// (unfulfilled_lint_expectations).
#[allow(dead_code)]
fn bare_allow() {}

#[expect(clippy::print_stdout, reason = "stale on purpose: nothing here prints")]
pub fn stale_expect() {}

// orphan-oracle (dead_code): a test-only reference no test calls.
#[cfg(test)]
mod oracle {
    pub fn reference() -> u32 {
        0
    }
}
