//! Reception fingerprints committed in `BENCH_sim.json`, reproduced with
//! the shipped `simbench` binary. `run_protocol_sim*` sits on top of the
//! shared network builder; these rows are what prove a harness refactor
//! left it the same program: same worlds, same schedules, same RNG
//! draws, same receptions at the same ticks.

use std::process::Command;

#[test]
fn bench_sim_json_fingerprints_reproduce() {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--smoke", "--hier", "500", "--congestion", "--threads", "1"])
        .output()
        .expect("spawn simbench");
    assert!(
        out.status.success(),
        "simbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout must be UTF-8");
    for pin in [
        // hier_sweep, 500 routers / 10^4 aggregate members.
        "hier_fingerprint routers=500 members=10000 deliveries=566800 events=140466 \
         state=657 ctrl=92536 fingerprint=0x6489c996e6b797fa",
        // congestion_sweep, unlimited then 8, 4, 2, 1 bytes per tick.
        "congestion_fingerprint rate=0 deliveries=400 dropd=0 dropc=0 fingerprint=0x47f2ffbb64b24917",
        "congestion_fingerprint rate=8 deliveries=400 dropd=0 dropc=0 fingerprint=0x5893be1b8ec2ecef",
        "congestion_fingerprint rate=4 deliveries=400 dropd=0 dropc=0 fingerprint=0xe7271613f020e544",
        "congestion_fingerprint rate=2 deliveries=400 dropd=0 dropc=0 fingerprint=0x9a49dcc40169e6cc",
        "congestion_fingerprint rate=1 deliveries=293 dropd=105 dropc=0 fingerprint=0x0dc8526955e93fcf",
    ] {
        assert!(
            stdout.lines().any(|l| l == pin),
            "simbench no longer prints the committed row\n  {pin}\ngot:\n{stdout}"
        );
    }
}
