//! Process-level TCP end-to-end: the real `copernicus` binary running
//! the paper's deployment shape — one `serve` process, separate `work`
//! processes dialing in over authenticated links. Covers what the
//! in-process loopback suite cannot: OS process boundaries, a worker
//! pool killed with SIGKILL mid-project, and a bad passphrase turned
//! away at the door.

use copernicus::core::prelude::*;
use copernicus::msm::Weighting;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A small but not instant project: twelve 40 000-step commands in two
/// generations (≈ 0.1 s of MD each, optimised), far more than a pool
/// finishes in the 50 ms before it is killed, short enough for CI.
fn villin_config() -> MsmProjectConfig {
    MsmProjectConfig {
        n_starts: 2,
        sims_per_start: 3,
        segment_ns: 500.0,
        record_interval: 400,
        checkpoint_steps: 0,
        temperature: 0.55,
        n_clusters: 12,
        lag_frames: 1,
        weighting: Weighting::Adaptive,
        even_until_generation: 0,
        respawn_fraction: 0.3,
        generations: 2,
        folded_rmsd: 3.5,
        kinetics_horizon_ns: 500.0,
        stop_folded_pop_stderr: None,
        seed: 17,
        cores_per_sim: 1,
        mode: AdaptiveMode::Generational,
        ..MsmProjectConfig::default()
    }
}

fn copernicus(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_copernicus"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn copernicus binary")
}

/// Wait for a child with a hard deadline; on timeout, kill it and fail
/// the test rather than hanging CI.
fn wait_with_deadline(
    child: &mut Child,
    what: &str,
    deadline: Duration,
) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not exit within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Read a child's stderr up to the first line containing `needle`.
fn await_line(stderr: &mut impl BufRead, who: &str, needle: &str) -> String {
    loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("read child stderr");
        assert!(n > 0, "{who} exited before printing `{needle}`");
        if line.contains(needle) {
            return line;
        }
    }
}

/// Drain a child's stderr on a thread so the pipe never backs up.
fn drain<R: Read + Send + 'static>(r: R) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = BufReader::new(r).read_to_string(&mut buf);
        buf
    })
}

#[test]
fn two_process_run_rejects_bad_key_and_absorbs_a_killed_worker_pool() {
    let dir = std::env::temp_dir().join(format!("copernicus-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let config_path = dir.join("project.json");
    std::fs::write(&config_path, villin_config().to_value().to_string()).expect("write config");
    let config_arg = config_path.to_str().expect("utf-8 temp path");

    // The server process: ephemeral port, so parse the bound address
    // from its announcement line.
    let mut serve = copernicus(&[
        "serve",
        config_arg,
        "--bind",
        "127.0.0.1:0",
        "--key",
        "villin e2e",
    ]);
    let mut serve_err = BufReader::new(serve.stderr.take().expect("serve stderr"));
    let addr = await_line(&mut serve_err, "serve", "listening on ")
        .split_whitespace()
        .nth(2)
        .expect("address token")
        .to_string();
    let serve_err = drain(serve_err);

    // A client with the wrong passphrase is refused at the handshake:
    // hard exit, no retry storm, and the server is unharmed.
    let mut impostor = copernicus(&[
        "work",
        "--connect",
        &addr,
        "--key",
        "wrong",
        "--workers",
        "1",
    ]);
    let impostor_err = drain(impostor.stderr.take().expect("impostor stderr"));
    let status = wait_with_deadline(
        &mut impostor,
        "impostor work process",
        Duration::from_secs(30),
    );
    assert_eq!(status.code(), Some(1), "bad key must exit 1");
    let impostor_log = impostor_err.join().expect("impostor log");
    assert!(
        impostor_log.contains("cannot connect"),
        "impostor should report the refusal: {impostor_log}"
    );

    // A real pool connects and is handed the first commands…
    let mut victim = copernicus(&[
        "work",
        "--connect",
        &addr,
        "--key",
        "villin e2e",
        "--workers",
        "2",
    ]);
    let mut victim_err = BufReader::new(victim.stderr.take().expect("victim stderr"));
    await_line(&mut victim_err, "victim pool", "workers connected");
    let victim_err = drain(victim_err);

    // …and is killed outright a moment later (SIGKILL: no shutdown
    // handshake, sockets just die). Twelve commands cannot finish in
    // that moment, so the two the pool held are lost with it and the
    // project is stranded without workers: the pool that joins next
    // finds the server still serving, and the server must absorb the
    // loss and finish the project on the survivor. Ordered by events,
    // not by guessing how long a command takes.
    std::thread::sleep(Duration::from_millis(50));
    victim.kill().expect("kill victim pool");
    let _ = victim.wait();
    let _ = victim_err.join();
    let mut finisher = copernicus(&[
        "work",
        "--connect",
        &addr,
        "--key",
        "villin e2e",
        "--workers",
        "2",
    ]);
    let finisher_err = drain(finisher.stderr.take().expect("finisher stderr"));

    let status = wait_with_deadline(&mut serve, "serve process", Duration::from_secs(120));
    let server_log = serve_err.join().expect("server log");
    assert!(
        status.success(),
        "serve must exit cleanly; stderr:\n{server_log}"
    );
    let status = wait_with_deadline(
        &mut finisher,
        "finisher work process",
        Duration::from_secs(30),
    );
    let finisher_log = finisher_err.join().expect("finisher log");
    assert!(
        status.success(),
        "finisher must exit cleanly; stderr:\n{finisher_log}"
    );
    assert!(
        finisher_log.contains("project finished"),
        "finisher should see the shutdown: {finisher_log}"
    );

    // The server's stdout is the project result: a real MSM report that
    // could only exist if every command (including any re-queued from
    // the killed pool) completed.
    let mut stdout = String::new();
    serve
        .stdout
        .take()
        .expect("serve stdout")
        .read_to_string(&mut stdout)
        .expect("read serve stdout");
    let report = serde_json::from_str(&stdout)
        .map_err(|e| e.to_string())
        .and_then(|doc| MsmProjectReport::from_value(&doc))
        .unwrap_or_else(|e| panic!("serve stdout must be an MsmProjectReport ({e}):\n{stdout}"));
    assert_eq!(report.generations.len(), 2);
    assert!(report.min_rmsd_to_native.is_finite());
    // 2 generations × 6 lineages, exactly once each despite the kill.
    assert!(
        server_log.contains("done: 12 commands"),
        "server must complete all 12 commands exactly once: {server_log}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
