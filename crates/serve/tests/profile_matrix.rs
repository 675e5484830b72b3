//! The sweeps profile every (ABI, shape) cell on one pool with one
//! program cache. Each ABI's table must equal what `profile_shapes`
//! gives for that ABI alone, with and without fault twins.

use cheri_isa::Abi;
use cheri_workloads::Scale;
use morello_serve::{profile_shapes, run_service_sweep, ShapeProfile, SweepConfig, SHAPE_KEYS};
use morello_sim::suite::select;
use morello_sim::Platform;

fn json(rows: &[ShapeProfile]) -> String {
    serde_json::to_string(rows).expect("serialise")
}

#[test]
fn sweep_profiles_equal_one_profile_shapes_call_per_abi() {
    let platform = Platform::morello().with_scale(Scale::Test);
    let shapes = select(&SHAPE_KEYS);
    for fault_rate_ppm in [0, 5_000] {
        let cfg = SweepConfig {
            quick: true,
            jobs: 2,
            fault_rate_ppm,
            ..SweepConfig::default()
        };
        // The load sweep prices fault twins under this seed when a
        // corruption rate is set.
        let fault_seed = (fault_rate_ppm > 0).then_some(cfg.seed ^ 0xFA17);
        let report = run_service_sweep(&cfg);
        let abis: Vec<Abi> = report.abis.iter().map(|a| a.abi).collect();
        assert_eq!(abis, Abi::ALL);
        for row in &report.abis {
            let alone = profile_shapes(platform, &shapes, row.abi, 1, fault_seed);
            assert_eq!(
                json(&row.profiles),
                json(&alone),
                "{} with fault seed {fault_seed:?}",
                row.abi
            );
            let twins = row.profiles.iter().filter(|p| p.fault.is_some()).count();
            let live = row.profiles.iter().filter(|p| !p.degraded).count();
            assert_eq!(twins, if fault_seed.is_some() { live } else { 0 });
        }
    }
}
