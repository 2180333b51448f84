//! Negative-path coverage for the tenancy layer, alongside
//! `chaos_negative.rs`: every workload-spec rejection string is violated
//! on purpose and pinned, so a refactor of the validator cannot silently
//! turn it into a no-op.

use pic_simnet::tenancy::{preset, DriverMix, WorkloadSpec};
use pic_simnet::ClusterSpec;
use proptest::prelude::*;

const KNOWN: [&str; 3] = ["kmeans", "linsolve", "smoothing"];

fn ok_spec() -> WorkloadSpec {
    WorkloadSpec {
        jobs: 4,
        arrival_per_s: 0.05,
        mix: vec![("kmeans".to_string(), 1.0)],
        drivers: DriverMix::Mixed,
        scales: vec![8],
        seed: 1,
    }
}

fn cluster() -> ClusterSpec {
    ClusterSpec::medium()
}

#[test]
fn valid_spec_passes() {
    ok_spec().validate(&KNOWN, &cluster()).unwrap();
}

#[test]
fn zero_jobs_rejected() {
    let spec = WorkloadSpec {
        jobs: 0,
        ..ok_spec()
    };
    assert_eq!(
        spec.validate(&KNOWN, &cluster()).unwrap_err(),
        "workload must have at least one job"
    );
}

#[test]
fn unknown_app_in_mix_names_the_valid_set() {
    let spec = WorkloadSpec {
        mix: vec![("kmeans".to_string(), 1.0), ("pagerank".to_string(), 1.0)],
        ..ok_spec()
    };
    let err = spec.validate(&KNOWN, &cluster()).unwrap_err();
    assert!(err.contains("unknown app 'pagerank' in mix"), "{err}");
    for a in KNOWN {
        assert!(err.contains(a), "error must name {a}: {err}");
    }
}

#[test]
fn non_positive_arrival_rate_rejected() {
    for rate in [0.0, -1.0, f64::NAN] {
        let spec = WorkloadSpec {
            arrival_per_s: rate,
            ..ok_spec()
        };
        let err = spec.validate(&KNOWN, &cluster()).unwrap_err();
        assert!(
            err.starts_with("arrival rate must be positive (got "),
            "{err}"
        );
    }
    let spec = WorkloadSpec {
        arrival_per_s: 0.0,
        ..ok_spec()
    };
    assert_eq!(
        spec.validate(&KNOWN, &cluster()).unwrap_err(),
        "arrival rate must be positive (got 0)"
    );
}

/// A rate that is itself non-finite, or so small that a stream of
/// `jobs` gaps overflows `f64`, would reach the event queue's
/// finite-time assert; it must stop here, naming the value.
#[test]
fn arrival_rate_that_puts_an_arrival_at_a_non_finite_time_rejected() {
    for (rate, shown) in [
        (f64::INFINITY, "inf"),
        (1e-320, "1e-320"),
        (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
    ] {
        let spec = WorkloadSpec {
            arrival_per_s: rate,
            ..ok_spec()
        };
        assert_eq!(
            spec.validate(&KNOWN, &cluster()).unwrap_err(),
            format!(
                "arrival rate must be finite and keep all 4 arrivals at finite times (got {shown})"
            )
        );
    }
}

#[test]
fn scale_over_topology_capacity_rejected() {
    let c = cluster();
    let spec = WorkloadSpec {
        scales: vec![8, c.nodes + 1],
        ..ok_spec()
    };
    assert_eq!(
        spec.validate(&KNOWN, &c).unwrap_err(),
        format!(
            "job scale {} exceeds topology capacity ({} nodes)",
            c.nodes + 1,
            c.nodes
        )
    );
}

#[test]
fn zero_scale_rejected() {
    let spec = WorkloadSpec {
        scales: vec![0],
        ..ok_spec()
    };
    assert_eq!(
        spec.validate(&KNOWN, &cluster()).unwrap_err(),
        "job scale must be > 0 nodes"
    );
}

#[test]
fn empty_mix_and_empty_scales_rejected() {
    let spec = WorkloadSpec {
        mix: Vec::new(),
        ..ok_spec()
    };
    assert_eq!(
        spec.validate(&KNOWN, &cluster()).unwrap_err(),
        "mix must name at least one app"
    );
    let spec = WorkloadSpec {
        scales: Vec::new(),
        ..ok_spec()
    };
    assert_eq!(
        spec.validate(&KNOWN, &cluster()).unwrap_err(),
        "scales must name at least one node count"
    );
}

#[test]
fn non_positive_or_non_finite_mix_weight_rejected() {
    for w in [0.0, -2.0, f64::NAN, f64::INFINITY] {
        let spec = WorkloadSpec {
            mix: vec![("kmeans".to_string(), w)],
            ..ok_spec()
        };
        let err = spec.validate(&KNOWN, &cluster()).unwrap_err();
        assert!(
            err.starts_with("mix weight for 'kmeans' must be positive"),
            "{err}"
        );
    }
}

/// An app named twice would silently skew the mix, and weights that
/// overflow when summed would make every arrival the first app.
#[test]
fn repeated_app_and_overflowing_total_weight_rejected() {
    for (mix, expected) in [
        (
            &[("kmeans", 1.0), ("linsolve", 1.0), ("kmeans", 1.0)][..],
            "mix lists app 'kmeans' twice",
        ),
        (
            &[("kmeans", 1e308), ("linsolve", 1e308)],
            "mix weights must sum to a finite total (got inf)",
        ),
    ] {
        let mix = mix.iter().map(|&(a, w)| (a.to_string(), w)).collect();
        let spec = WorkloadSpec { mix, ..ok_spec() };
        assert_eq!(spec.validate(&KNOWN, &cluster()).unwrap_err(), expected);
    }
}

#[test]
fn unknown_preset_and_driver_mix_name_the_valid_sets() {
    let err = preset("huge").unwrap_err();
    assert!(err.contains("unknown preset 'huge'"), "{err}");
    for p in pic_simnet::tenancy::PRESETS {
        assert!(err.contains(p), "error must name {p}: {err}");
    }
    let err = DriverMix::parse("both").unwrap_err();
    assert!(err.contains("unknown driver mix 'both'"), "{err}");
    for d in ["mixed", "ic", "pic"] {
        assert!(err.contains(d), "error must name {d}: {err}");
    }
}

/// A third any `f64` bit pattern, a third the edges a flag parser lets
/// through (NaN, ±inf, subnormals, the extremes), a third a plausible
/// positive value, so both sides of `validate` are exercised.
fn wild_f64() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-320,
        f64::MIN_POSITIVE,
        1e-306,
        0.0,
        f64::MAX,
    ];
    (0u32..3, any::<u64>(), 0..EDGES.len(), 1e-3f64..1e3).prop_map(|(sel, bits, edge, tame)| {
        match sel {
            0 => f64::from_bits(bits),
            1 => EDGES[edge],
            _ => tame,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The stream's external inputs never panic: the two name parsers and
    /// `validate` return for anything, and a spec `validate` accepts
    /// generates `jobs` arrivals at finite, non-decreasing times (what the
    /// event queue asserts on).
    #[test]
    fn external_inputs_never_panic_and_accepted_specs_arrive_at_finite_times(
        jobs in 0usize..48,
        arrival_per_s in wild_f64(),
        mix in proptest::collection::vec((0usize..4, wild_f64()), 0..3),
        scales in proptest::collection::vec(0usize..80, 0..3),
        seed in any::<u64>(),
        name in ".{0,8}",
    ) {
        let apps = ["kmeans", "linsolve", "smoothing", "pagerank"];
        let spec = WorkloadSpec {
            jobs,
            arrival_per_s,
            mix: mix.into_iter().map(|(a, w)| (apps[a].to_string(), w)).collect(),
            drivers: DriverMix::parse(&name).unwrap_or(DriverMix::Mixed),
            scales,
            seed,
        };
        let _ = preset(&name);
        if spec.validate(&KNOWN, &cluster()).is_ok() {
            let arrivals = spec.arrivals();
            prop_assert_eq!(arrivals.len(), jobs);
            let mut last = 0.0;
            for a in &arrivals {
                prop_assert!(a.arrival_s.is_finite() && a.arrival_s >= last, "{:?}", a);
                last = a.arrival_s;
            }
        }
    }
}
