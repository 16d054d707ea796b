//! The traced run measures the same program as the untraced one.
//!
//! Run with `cargo test --release` from this package: the flow workload
//! is slow in a debug build.

use cc_perfbench::run::{run_traced, run_untraced, Settings};
use cc_perfbench::workload::{Stream, Workload};

/// Over the timing wrapper, every response, the prefix fingerprint,
/// `rounds_per_req` and the per-phase ledger rounds are bitwise those of
/// a bare `Clique` (`run_traced` compares both engines call by call and
/// fails on any difference), and every answer passes the oracles.
#[test]
fn traced_run_is_transparent_and_correct() {
    for workload in Workload::ALL {
        let settings = Settings {
            workload,
            seed: 3,
            seconds: 0.01,
        };
        let traced = run_traced(&settings);
        assert!(traced.correct(), "{}: {:?}", workload.name(), traced.errors);
        let bare = run_untraced(&settings).expect("peak RSS is readable");
        assert!(bare.correct(), "{}: {:?}", workload.name(), bare.errors);
        assert_eq!(
            traced.rounds_per_req.to_bits(),
            bare.rounds_per_req.to_bits(),
            "{}",
            workload.name()
        );
        assert_eq!(
            traced.prefix_fingerprint,
            bare.prefix_fingerprint,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn inputs_depend_only_on_the_seed() {
    for workload in Workload::ALL {
        let calls = |seed| {
            let mut stream = Stream::new(workload, seed);
            (0..40)
                .map(|_| format!("{:?}", stream.next_call()))
                .collect::<Vec<_>>()
        };
        assert_eq!(calls(5), calls(5), "{}", workload.name());
        assert_ne!(calls(5), calls(6), "{}", workload.name());
    }
}
