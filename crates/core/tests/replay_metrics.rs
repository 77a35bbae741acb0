//! The replay counters on the process-wide registry: configurations priced
//! against the cycle-count machines actually replayed.
//!
//! A test binary of its own, so no other test's replays land between the
//! two reads of a counter.

use cachetime::{replay_many, BehavioralSim, SystemConfig};
use cachetime_trace::Trace;
use cachetime_types::{CycleTime, MemRef, Pid, WordAddr};

fn at_ns(ns: u32) -> SystemConfig {
    SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(ns).unwrap())
        .build()
        .unwrap()
}

#[test]
fn replaying_40_and_44_ns_prices_two_configs_on_one_machine() {
    let refs = (0..64)
        .map(|i| MemRef::load(WordAddr::new(i * 97 % 4096), Pid(1)))
        .collect();
    let trace = Trace::new("t", refs, 0);
    let axis = [at_ns(40), at_ns(44)];
    let events = BehavioralSim::new(&axis[0].organization()).record(&trace);

    let obs = cachetime_obs::global();
    let configs = obs.counter("cachetime_replay_configs_total", &[]);
    let machines = obs.counter("cachetime_replay_machines_total", &[]);
    let (configs_before, machines_before) = (configs.get(), machines.get());
    let results = replay_many(&events, &axis).unwrap();
    assert_eq!(configs.get() - configs_before, 2);
    assert_eq!(machines.get() - machines_before, 1);

    // The shared replay still answers each config at its own clock.
    assert_eq!(results[0].cycle_time.ns(), 40);
    assert_eq!(results[1].cycle_time.ns(), 44);
    assert_eq!(results[0].cycles, results[1].cycles);
}
