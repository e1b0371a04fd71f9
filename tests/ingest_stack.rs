//! Cross-layer guarantees for ingested workloads: a fixture ELF runs
//! through the LF analytical model, the HF lane kernel (bit-identical
//! to the reference walk), the on-disk trace format, and the full
//! LF→HF exploration — and every stage is a pure function of the ELF
//! bytes.

use archdse::eval::{AnalyticalLf, IngestedWorkload, SimulatorHf};
use archdse::Explorer;
use dse_ingest::trace_file::{encode_trace, TraceReader, TraceWriter};
use dse_ingest::{ingest_elf, ExecConfig, Ingested};
use dse_mfrl::LowFidelity;
use dse_sim::{BatchSimulator, CoreConfig, ExpandedTrace, ReferenceSimulator, SimResult};
use dse_space::{DesignPoint, DesignSpace};

fn fixture(stem: &str) -> Vec<u8> {
    let path = format!("{}/crates/ingest/tests/fixtures/{stem}.elf", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn ingest(stem: &str) -> Ingested {
    ingest_elf(stem, &fixture(stem), ExecConfig::default()).expect("fixture must ingest")
}

fn probe_points(space: &DesignSpace) -> Vec<DesignPoint> {
    (0..8).map(|i| space.decode((i * 40_009 + 17) % space.size())).collect()
}

#[test]
fn ingested_profile_drives_the_lf_model() {
    let space = DesignSpace::boom();
    let ingested = ingest("loop_sum");
    let lf = AnalyticalLf::for_profiles(&space, std::slice::from_ref(&ingested.profile));
    for point in probe_points(&space) {
        let cpi = lf.cpi(&space, &point);
        assert!(cpi.is_finite() && cpi > 0.0, "LF CPI {cpi} at {point:?}");
    }
    // The model is a pure function of the profile: a second ingestion
    // of the same bytes prices every probe identically.
    let again = ingest("loop_sum");
    assert_eq!(ingested.profile, again.profile);
    let lf2 = AnalyticalLf::for_profiles(&space, std::slice::from_ref(&again.profile));
    for point in probe_points(&space) {
        assert_eq!(lf.cpi(&space, &point).to_bits(), lf2.cpi(&space, &point).to_bits());
    }
}

#[test]
fn lane_kernel_matches_the_reference_on_the_ingested_trace() {
    let space = DesignSpace::boom();
    let ingested = ingest("stride_c");
    let configs: Vec<CoreConfig> =
        probe_points(&space).iter().map(|p| CoreConfig::from_point(&space, p)).collect();

    let reference: Vec<SimResult> =
        configs.iter().map(|c| ReferenceSimulator::new(c.clone()).run(&ingested.trace)).collect();
    let expanded = ExpandedTrace::expand(&ingested.trace);
    let lanes = BatchSimulator::new().run_pack(&configs, &expanded);
    assert_eq!(lanes, reference, "the lane kernel must match the oracle counter for counter");
    assert!(lanes.iter().all(|r| r.instructions == ingested.trace.len() as u64));
}

#[test]
fn trace_file_round_trips_into_the_batch_kernel_via_from_stream() {
    let space = DesignSpace::boom();
    let ingested = ingest("loop_sum");

    // Persist with the streaming writer, re-expand with the streaming
    // reader — no intermediate Vec<Instr> — and simulate from that.
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    for instr in ingested.trace.iter() {
        writer.write(instr).unwrap();
    }
    let bytes = writer.finish().unwrap();
    let streamed = ExpandedTrace::from_stream(TraceReader::new(&bytes[..]).unwrap())
        .expect("a just-written trace file must stream back");
    assert_eq!(streamed.len(), ingested.trace.len());

    let configs: Vec<CoreConfig> =
        probe_points(&space).iter().map(|p| CoreConfig::from_point(&space, p)).collect();
    let from_memory =
        BatchSimulator::new().run_pack(&configs, &ExpandedTrace::expand(&ingested.trace));
    let from_disk = BatchSimulator::new().run_pack(&configs, &streamed);
    assert_eq!(from_memory, from_disk, "the disk round trip must not perturb simulation");
}

#[test]
fn same_elf_twice_yields_byte_identical_trace_files() {
    for stem in ["loop_sum", "stride_c"] {
        let a = encode_trace(&ingest(stem).trace).unwrap();
        let b = encode_trace(&ingest(stem).trace).unwrap();
        assert_eq!(a, b, "{stem}: trace file bytes must be deterministic");
    }
}

#[test]
fn two_tier_exploration_of_an_ingested_workload_is_deterministic() {
    let run = || {
        let ingested = ingest("loop_sum");
        let workload = IngestedWorkload::new(
            ingested.name.clone(),
            ingested.profile.clone(),
            ingested.trace.clone(),
        );
        let report = Explorer::for_workload(workload)
            .area_limit_mm2(6.0)
            .seed(11)
            .lf_episodes(12)
            .hf_budget(2)
            .run();
        (report.best_point.clone(), report.best_cpi, report.ledger.summary())
    };
    let (point_a, cpi_a, summary_a) = run();
    let (point_b, cpi_b, summary_b) = run();
    assert_eq!(point_a, point_b);
    assert_eq!(cpi_a.to_bits(), cpi_b.to_bits());
    assert_eq!(summary_a, summary_b, "ledger accounting must be reproducible");
    assert!(summary_a.high.evaluations > 0, "HF must actually replay the trace: {summary_a:?}");
}

#[test]
fn ingested_hf_replays_through_the_shared_evaluator() {
    let space = DesignSpace::boom();
    let ingested = ingest("stride_c");
    let mut hf = SimulatorHf::for_traces(vec![ingested.trace.clone()]);
    let points = probe_points(&space);
    let first = hf.cpi_batch(&space, &points);
    // The memo answers a replay without re-simulating.
    let evaluations = hf.evaluations();
    let second = hf.cpi_batch(&space, &points);
    assert_eq!(first, second);
    assert_eq!(hf.evaluations(), evaluations, "replays must come from the memo");
}
