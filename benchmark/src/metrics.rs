//! The metric and workload dictionary: every name the benchmark prints.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step. Names are fixed — later performance and
//! simplicity claims in this repo are stated against them.

/// The eight workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 8] = [
    "table1_paper",
    "dense_ddr",
    "hotspot_mesh",
    "idle_ff",
    "bursty_ff_ddr",
    "functional_rw",
    "traced_fig5",
    "serve_closed",
];

/// End-to-end metrics `(name, unit, better)`, printed by every workload
/// with `--trace 0`. Host time is wall-clock of this process; simulated
/// time is HMC clock cycles.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("sim_req_per_s", "1/s", "higher"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("sim_mean_latency_cycles", "cycles", "lower"),
];

/// Per-layer metrics `(name, unit, better)`, printed by every workload
/// with `--trace 1`; a layer is a crate. A metric that does not apply to
/// a workload (no NoC on a crossbar run, no server in a library run)
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("workloads.next_op_ns_per_req", "ns", "lower"),
    ("host.try_issue_ns_per_req", "ns", "lower"),
    ("host.drain_ns_per_req", "ns", "lower"),
    ("host.issue_accept_ratio", "ratio", "higher"),
    ("host.send_stalls", "count", "lower"),
    ("host.tag_stalls", "count", "lower"),
    ("core.clock_ns_per_cycle", "ns", "lower"),
    ("core.clock_ns_per_req", "ns", "lower"),
    ("core.clock_share", "%", "lower"),
    ("core.clock_batch_ns_per_burst", "ns", "lower"),
    ("core.send_ns_per_req", "ns", "lower"),
    ("core.recv_ns_per_rsp", "ns", "lower"),
    ("core.ff_speedup", "x", "higher"),
    ("core.mesh_over_xbar_wall_ratio", "x", "lower"),
    ("core.row_hits", "count", "higher"),
    ("core.row_misses", "count", "lower"),
    ("core.precharges", "count", "lower"),
    ("core.noc_hops", "count", "lower"),
    ("core.noc_stalls", "count", "lower"),
    ("core.noc_arb_losses", "count", "lower"),
    ("core.token_stalls", "count", "lower"),
    ("core.sim_new_ms", "ms", "lower"),
    ("core.shard_t2_over_t1", "x", "lower"),
    ("core.ddr_issue_ns_per_access", "ns", "lower"),
    ("types.packet_build_ns_per_req", "ns", "lower"),
    ("types.crc_verify_ns_per_pkt", "ns", "lower"),
    ("types.addr_decode_ns_per_req", "ns", "lower"),
    ("types.wire_encode_ns_per_op", "ns", "lower"),
    ("types.wire_decode_ns_per_op", "ns", "lower"),
    ("mem.access_ns_per_req", "ns", "lower"),
    ("mem.resident_mb", "MiB", "lower"),
    ("mem.functional_over_timing_only_ratio", "x", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.record_ns_per_event", "ns", "lower"),
    ("trace.share", "%", "lower"),
    ("trace.on_over_off_ratio", "x", "lower"),
    ("trace.bank_conflicts", "count", "lower"),
    ("trace.xbar_rqst_stalls", "count", "lower"),
    ("serve.open_session_ms", "ms", "lower"),
    ("serve.submit_rtt_us_p50", "us", "lower"),
    ("serve.poll_rtt_us_p50", "us", "lower"),
    ("serve.polls_per_batch", "count", "lower"),
    ("serve.empty_poll_share", "%", "lower"),
    ("serve.busy_retries", "count", "lower"),
    ("serve.backoff_ms", "ms", "lower"),
    ("serve.batch_rtt_ms_p50", "ms", "lower"),
    ("serve.batch_rtt_ms_p95", "ms", "lower"),
    ("serve.batch_rtt_ms_p99", "ms", "lower"),
    ("serve.manager_handle_ns_per_op", "ns", "lower"),
    ("serve.session_pump_ns_per_op", "ns", "lower"),
    ("serve.inproc_run_ns_per_op", "ns", "lower"),
    ("table1.bank_speedup_err_pct", "%", "lower"),
    ("table1.link_speedup_err_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.rep_spread_pct", "%", "lower"),
    ("bench.timer_pair_ns", "ns", "lower"),
    ("bench.span_coverage_pct", "%", "higher"),
];
