//! Property tests for the observability primitives: counters only ever go
//! up, and the event ring never exceeds its bound — even under concurrent
//! writers.

use std::sync::Arc;
use std::thread;

use obs::Registry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Interleaved increments from several threads never make a counter
    /// read go backwards, and the final value is exactly the sum of all
    /// increments (no lost updates).
    #[test]
    fn prop_counters_are_monotonic_under_concurrency(
        per_thread in proptest::collection::vec(1u64..200, 2..6)
    ) {
        let reg = Arc::new(Registry::new());
        let expected: u64 = per_thread.iter().sum();
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .map(|n| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let c = reg.counter("p", "test", "shared");
                    let mut last = c.get();
                    for _ in 0..n {
                        c.inc();
                        let now = c.get();
                        // Monotonic: a read after an increment is strictly
                        // greater than the read before it.
                        assert!(now > last, "counter went backwards: {last} -> {now}");
                        last = now;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(reg.counter_value("p", "test", "shared"), expected);
    }

    /// However many events are recorded by however many threads, the ring
    /// holds at most `capacity` events, drop accounting is exact, and the
    /// surviving events carry strictly increasing timestamps.
    #[test]
    fn prop_event_ring_respects_bound(
        capacity in 1usize..64,
        per_thread in proptest::collection::vec(0u64..100, 1..5)
    ) {
        let reg = Arc::new(Registry::with_event_capacity(capacity));
        let total: u64 = per_thread.iter().sum();
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .enumerate()
            .map(|(t, n)| {
                let reg = reg.clone();
                thread::spawn(move || {
                    let process = format!("writer{t}");
                    for i in 0..n {
                        reg.event(&process, "test", "tick", vec![("i", i.into())]);
                        assert!(reg.events_len() <= capacity, "ring exceeded bound");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let kept = reg.events_len() as u64;
        prop_assert!(kept <= capacity as u64);
        prop_assert_eq!(kept + reg.events_dropped(), total);
        let evs = reg.events_snapshot();
        prop_assert!(evs.windows(2).all(|w| w[0].ts < w[1].ts));
    }
}
