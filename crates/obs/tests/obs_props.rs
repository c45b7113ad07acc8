//! Property tests of the observability primitives.
//!
//! Histogram properties: quantiles are monotone in `q`, every reported
//! quantile is the upper bound of a bucket containing at least one
//! recorded value's bucket (bounded relative error: ≤ 1/16 above the
//! true value at that rank), and merging two histograms is exactly the
//! histogram of the concatenated record streams — the fixed-bucket
//! layout makes merge lossless by construction.
//!
//! Ring property: after any push sequence, a `SpanRing` holds exactly
//! the last `capacity` records in push order.
//!
//! Registry property: rendering is a pure function of the recorded
//! values — two registries fed the same operations render identical
//! Prometheus text, regardless of registration interleaving.

use distvliw_obs::metrics::{Histogram, Registry, HISTOGRAM_BUCKETS};
use distvliw_obs::trace::{SpanRecord, SpanRing};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Values spanning the interesting ranges: exact small values, typical
/// latencies, and huge outliers.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    pvec(prop_oneof![0u64..16, 1u64..100_000, any::<u64>(),], 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_are_monotone_and_bound_true_rank(values in arb_values()) {
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        prop_assert_eq!(hist.count(), values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut prev = 0u64;
        for step in 0..=20u32 {
            let q = f64::from(step) / 20.0;
            let got = hist.quantile(q);
            prop_assert!(got >= prev, "quantile must be monotone in q");
            prev = got;
            if !sorted.is_empty() {
                // The reported value is a bucket upper bound at the
                // target rank: never below the true ranked value, and
                // within the bucket's relative width (1/16) above it
                // (exact below 16).
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len()) - 1;
                let truth = sorted[rank];
                prop_assert!(got >= truth);
                prop_assert!(got <= truth.saturating_add(truth / 16),
                    "q={} got={} truth={}", q, got, truth);
            }
        }
    }

    #[test]
    fn merge_equals_concatenated_records(a in arb_values(), b in arb_values()) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hc = Histogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge_from(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.sum(), hc.sum());
        prop_assert_eq!(ha.nonzero_buckets(), hc.nonzero_buckets());
        for step in 0..=10u32 {
            let q = f64::from(step) / 10.0;
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    #[test]
    fn ring_keeps_exactly_the_last_capacity_records(
        capacity in 1usize..12,
        count in 0usize..40,
    ) {
        let ring = SpanRing::with_capacity(capacity);
        for i in 0..count {
            ring.push(SpanRecord {
                id: i as u64,
                parent: 0,
                trace: 0,
                name: "p",
                start_us: i as u64,
                dur_ns: 0,
                fields: Vec::new(),
            });
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.id).collect();
        let want: Vec<u64> = (count.saturating_sub(capacity)..count)
            .map(|i| i as u64)
            .collect();
        prop_assert_eq!(ids, want);
    }

    #[test]
    fn render_is_deterministic_in_registration_order(
        counts in pvec(0u64..50, 3),
        latencies in pvec(1u64..10_000, 0..20),
    ) {
        let render = |reverse: bool| {
            let reg = Registry::new();
            let names: Vec<(&str, u64)> = vec![
                ("pt_a_total", counts[0]),
                ("pt_b_total", counts[1]),
                ("pt_c_total", counts[2]),
            ];
            let order: Vec<usize> = if reverse { vec![2, 1, 0] } else { vec![0, 1, 2] };
            for &i in &order {
                let (name, n) = names[i];
                // SAFETY of 'static: these literals are 'static strs.
                let c = reg.counter(match name {
                    "pt_a_total" => "pt_a_total",
                    "pt_b_total" => "pt_b_total",
                    _ => "pt_c_total",
                }, "prop test counter");
                c.add(n);
            }
            let h = reg.histogram("pt_lat_us", "prop test histogram");
            for &v in &latencies {
                h.record(v);
            }
            reg.render_prometheus()
        };
        prop_assert_eq!(render(false), render(true));
    }
}

#[test]
fn bucket_count_covers_u64() {
    let hist = Histogram::new();
    hist.record(u64::MAX);
    hist.record(0);
    assert_eq!(hist.count(), 2);
    assert!(hist.nonzero_buckets().len() <= HISTOGRAM_BUCKETS);
    assert_eq!(hist.quantile(0.0), 0);
    assert_eq!(hist.quantile(1.0), u64::MAX);
}
