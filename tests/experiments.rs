//! Reduced-scale regression tests guarding the *shape* of every
//! experiment in EXPERIMENTS.md, runnable in CI without the full
//! paper-scale benches.

use mmcs_bench::ablation::{run_batching_ablation, run_dissemination};
use mmcs_bench::capacity::{run_point, CapacityConfig, Media};
use mmcs_bench::fig3::{run, Fig3Config};
use mmcs_util::rate::Bandwidth;
use mmcs_util::time::SimDuration;

/// Fig 3 shape: broker beats reflector clearly; everything delivered.
#[test]
fn fig3_shape_holds_at_reduced_scale() {
    let config = Fig3Config::reduced();
    let result = run(&config);
    assert!(result.narada.received >= config.packets as f64 * 0.98);
    assert!(
        result.jmf.avg_delay_ms > result.narada.avg_delay_ms * 1.5,
        "jmf {:.1} vs narada {:.1}",
        result.jmf.avg_delay_ms,
        result.narada.avg_delay_ms
    );
    // Jitter magnitudes are comparable (the paper reports 13.4 vs 15.6).
    assert!(result.narada.avg_jitter_ms < 60.0);
    assert!(result.jmf.avg_jitter_ms < 60.0);
    // Delay/jitter series are plot-ready per-packet curves.
    assert!(result.narada.delay_series.len() >= 250);
    assert!(result.jmf.jitter_series.len() >= 250);
}

/// Fig 3 determinism: same seed, same curves.
#[test]
fn fig3_reduced_is_reproducible() {
    let config = Fig3Config::reduced();
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.narada.delay_series, b.narada.delay_series);
    assert_eq!(a.jmf.delay_series, b.jmf.delay_series);
}

/// Capacity shape (audio, scaled 1:10): good below the knee, bad above.
#[test]
fn audio_capacity_knee_scaled() {
    // Scale: 10x CPU cost, 1/10 clients — the knee lands around 110-120.
    let mut below = CapacityConfig::new(Media::Audio, 100);
    below.broker_cost.per_send = below.broker_cost.per_send * 10;
    below.duration = SimDuration::from_secs(5);
    let mut above = CapacityConfig::new(Media::Audio, 140);
    above.broker_cost.per_send = above.broker_cost.per_send * 10;
    above.duration = SimDuration::from_secs(5);
    let good = run_point(&below);
    let bad = run_point(&above);
    assert!(good.good, "100 scaled clients should be good: {good:?}");
    assert!(
        !bad.good || bad.avg_delay_ms > good.avg_delay_ms * 3.0,
        "140 scaled clients should degrade: {bad:?} vs {good:?}"
    );
}

/// Capacity shape (video, scaled 1:10): NIC-bound knee between 40 and 60.
#[test]
fn video_capacity_knee_scaled() {
    let mut below = CapacityConfig::new(Media::Video, 40);
    below.broker_nic = Bandwidth::from_mbps(31);
    below.duration = SimDuration::from_secs(5);
    let mut above = CapacityConfig::new(Media::Video, 60);
    above.broker_nic = Bandwidth::from_mbps(31);
    above.duration = SimDuration::from_secs(5);
    let good = run_point(&below);
    let bad = run_point(&above);
    assert!(good.good, "{good:?}");
    assert!(!bad.good, "{bad:?}");
}

/// Ablation A1 shape: batching off costs delay.
#[test]
fn batching_matters_at_reduced_scale() {
    let mut config = Fig3Config::reduced();
    config.packets = 250;
    let (batched, unbatched) = run_batching_ablation(&config);
    assert!(unbatched.avg_delay_ms > batched.avg_delay_ms * 1.5);
}

/// Ablation A2 shape: more brokers, less delay under load. The numbers
/// are pinned bit for bit: the star routes every packet one hop from
/// the hub, and every subscription reaches the peers before media
/// starts, so a change to how brokers pass interest on must not move
/// them.
#[test]
fn dissemination_scales_at_reduced_scale() {
    let mut config = Fig3Config::reduced();
    config.packets = 250;
    config.relay_nic = Bandwidth::from_mbps(26);
    let one = run_dissemination(&config, 1);
    let two = run_dissemination(&config, 2);
    let four = run_dissemination(&config, 4);
    assert!(two.avg_delay_ms < one.avg_delay_ms);
    assert!(four.avg_delay_ms < one.avg_delay_ms);
    // (brokers, avg_delay_ms bits, loss bits): 139.644…, 25.014…, 15.019… ms, no loss.
    let pinned = [(1, 0x4061_749e_c83d_d80f_u64, 0u64), (2, 0x4039_03c8_3516_14f1, 0), (4, 0x402e_09d4_f757_7eb0, 0)];
    for (point, (brokers, delay, loss)) in [&one, &two, &four].into_iter().zip(pinned) {
        assert_eq!(point.brokers, brokers);
        assert_eq!(point.avg_delay_ms.to_bits(), delay, "B = {brokers}: {} ms", point.avg_delay_ms);
        assert_eq!(point.loss.to_bits(), loss, "B = {brokers}: loss {}", point.loss);
    }
}
