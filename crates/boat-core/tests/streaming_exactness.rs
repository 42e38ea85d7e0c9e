//! Differential oracle for the streaming write path: at any quiesce point
//! the daemon-maintained model must be **byte-identical**
//! (`Tree::to_bytes`) to a synchronous replay of the same chunk sequence
//! through `BoatModel::{insert,delete}` — same idiom as
//! `parallel_exactness` / `subsample_exactness`. Covers single-producer
//! mid-stream quiesce points, concurrent producers (replayed in WAL
//! order), and crash recovery over a torn durable prefix. At every quiesce
//! point, and on every model the daemon hands back, the maintained cleanup
//! state must pass `check_invariants`.

use boat_core::stream::{ProvenanceSink, StalenessBound, StreamConfig, StreamingBoat};
use boat_core::{replay_wal_into, Boat, BoatConfig, BoatModel};
use boat_data::wal::{read_segment, replay_segments, WalConfig, WalKind, WalOp};
use boat_data::{MemoryDataset, Record};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::Registry;
use boat_tree::Gini;
use std::path::PathBuf;

fn config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_200,
        bootstrap_reps: 10,
        bootstrap_sample_size: 500,
        in_memory_threshold: 400,
        spill_budget: 64,
        seed,
        ..BoatConfig::default()
    }
}

fn mem(schema: &std::sync::Arc<boat_data::Schema>, records: Vec<Record>) -> MemoryDataset {
    MemoryDataset::new(schema.clone(), records)
}

fn fit(seed: u64, schema: &std::sync::Arc<boat_data::Schema>, base: &[Record]) -> BoatModel<Gini> {
    let algo = Boat::new(config(seed));
    let (model, _) = algo.fit_model(&mem(schema, base.to_vec())).unwrap();
    model
}

fn stream_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boat-stream-ex-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One logical chunk of the workload script, so the daemon run and the
/// synchronous replay consume the identical sequence.
enum Op {
    Insert(Vec<Record>),
    Delete(Vec<Record>),
}

/// Single producer, mid-stream quiesce after every chunk: each quiesce
/// tree must equal a synchronous replay of the prefix.
#[test]
fn quiesce_points_match_synchronous_replay() {
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(91);
    let schema = gen.schema();
    let all = gen.generate_vec(9_000);
    let base = &all[..4_000];

    // Insert two chunks, delete the second, insert another — exercising
    // both absorb paths through the WAL.
    let script = [
        Op::Insert(all[4_000..6_000].to_vec()),
        Op::Insert(all[6_000..7_500].to_vec()),
        Op::Delete(all[6_000..7_500].to_vec()),
        Op::Insert(all[7_500..9_000].to_vec()),
    ];

    let dir = stream_dir("quiesce");
    let streaming = StreamingBoat::spawn(
        fit(9_100, &schema, base),
        StreamConfig {
            staleness: StalenessBound {
                // Bigger than any one chunk (a single over-budget chunk is
                // the one unavoidable violation) but small enough that
                // back-to-back chunks force mid-stream maintains.
                max_records: 2_500,
                max_age: None,
            },
            wal: WalConfig {
                dir: Some(dir.clone()),
                ..WalConfig::default()
            },
            ..StreamConfig::default()
        },
    )
    .unwrap();

    let mut sync_model = fit(9_100, &schema, base);
    for (i, op) in script.iter().enumerate() {
        match op {
            Op::Insert(r) => {
                streaming.insert(r.clone()).unwrap();
                sync_model.insert(&mem(&schema, r.clone())).unwrap();
            }
            Op::Delete(r) => {
                streaming.delete(r.clone()).unwrap();
                sync_model.delete(&mem(&schema, r.clone())).unwrap();
            }
        }
        let report = streaming.quiesce().unwrap();
        assert_eq!(report.stats.first_error, None);
        assert_eq!(report.stats.bound_violations, 0);
        assert_eq!(
            report.tree_bytes,
            sync_model.tree().unwrap().to_bytes(),
            "quiesce point {i}: daemon tree != synchronous replay"
        );
        sync_model.check_invariants();
    }
    let (mut model, stats) = streaming.finish().unwrap();
    model.check_invariants();
    assert_eq!(stats.ops_absorbed, script.len() as u64);
    assert!(stats.maintains >= script.len() as u64, "one per quiesce");
    std::fs::remove_dir_all(dir).ok();
}

/// Concurrent producers: the WAL fixes one global chunk order; replaying
/// the kept segments synchronously must reproduce the daemon's final tree
/// byte-for-byte.
#[test]
fn concurrent_producers_match_wal_order_replay() {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(92);
    let schema = gen.schema();
    let all = gen.generate_vec(10_000);
    let base = &all[..4_000];

    let dir = stream_dir("concurrent");
    let streaming = StreamingBoat::spawn(
        fit(9_200, &schema, base),
        StreamConfig {
            staleness: StalenessBound {
                max_records: 1_000,
                max_age: None,
            },
            wal: WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            ..StreamConfig::default()
        },
    )
    .unwrap();

    // 3 producers, each streaming its own slice in chunks; one also
    // deletes its previously-inserted chunks (per-producer FIFO through
    // the WAL keeps every delete valid at absorb time).
    std::thread::scope(|s| {
        for p in 0..3usize {
            let writer = streaming.writer();
            let slice = &all[4_000 + p * 2_000..4_000 + (p + 1) * 2_000];
            s.spawn(move || {
                for chunk in slice.chunks(250) {
                    writer.insert(chunk.to_vec()).unwrap();
                    if p == 2 {
                        writer.delete(chunk.to_vec()).unwrap();
                    }
                }
            });
        }
    });
    let report = streaming.quiesce().unwrap();
    assert_eq!(report.stats.first_error, None);
    assert_eq!(report.stats.ops_absorbed, 8 * 3 + 8);
    let segments = streaming.wal_segments();
    let (mut model, stats) = streaming.finish().unwrap();
    model.check_invariants();
    assert_eq!(stats.bound_violations, 0);

    // Synchronous replay in the recorded WAL order.
    let ops = replay_segments(&segments, &schema, &Registry::new()).unwrap();
    assert_eq!(ops.len(), 32);
    let mut sync_model = fit(9_200, &schema, base);
    for op in ops {
        let chunk = mem(&schema, op.records);
        match op.kind {
            WalKind::Insert => sync_model.insert(&chunk).unwrap(),
            WalKind::Delete => sync_model.delete(&chunk).unwrap(),
        };
    }
    assert_eq!(
        report.tree_bytes,
        sync_model.tree().unwrap().to_bytes(),
        "daemon tree != WAL-order synchronous replay"
    );
    sync_model.check_invariants();
    for p in segments {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Crash recovery: tear the last segment mid-frame (truncated tail and a
/// torn checksum), replay into a fresh model, and assert byte-identity
/// with a clean synchronous run over the durable prefix.
#[test]
fn crash_recovery_is_exact_over_the_durable_prefix() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(93);
    let schema = gen.schema();
    let all = gen.generate_vec(8_000);
    let base = &all[..4_000];

    let dir = stream_dir("crash");
    let streaming = StreamingBoat::spawn(
        fit(9_300, &schema, base),
        StreamConfig {
            wal: WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            ..StreamConfig::default()
        },
    )
    .unwrap();
    for chunk in all[4_000..].chunks(500) {
        streaming.insert(chunk.to_vec()).unwrap();
    }
    streaming.delete(all[4_000..4_500].to_vec()).unwrap();
    // The appender opens its first segment asynchronously; quiesce first.
    streaming.quiesce().unwrap();
    let segments = streaming.wal_segments();
    streaming.finish().unwrap().0.check_invariants();
    assert_eq!(segments.len(), 1);
    let clean = std::fs::read(&segments[0]).unwrap();

    // Two crash shapes: a truncation 3 bytes into the last frame's
    // payload, and a checksum torn by flipping the file's last byte.
    let torn_variants: Vec<Vec<u8>> = vec![
        {
            let record_width = schema.record_width();
            let last_frame = 13 + 500 * record_width; // delete frame: overhead + payload
            clean[..clean.len() - last_frame + 8].to_vec()
        },
        {
            let mut v = clean.clone();
            let last = v.len() - 1;
            v[last] ^= 0xFF;
            v
        },
    ];
    for (variant, bytes) in torn_variants.into_iter().enumerate() {
        let torn_path = dir.join(format!("torn-{variant}.wal"));
        std::fs::write(&torn_path, &bytes).unwrap();
        let reg = Registry::new();
        let replay = read_segment(&torn_path, &schema, &reg).unwrap();
        assert!(replay.torn, "variant {variant} must report a torn tail");
        assert_eq!(
            replay.ops.len(),
            8,
            "variant {variant}: durable prefix is the 8 insert chunks"
        );

        // Recover: fresh fit + WAL replay of the torn segment.
        let mut recovered = fit(9_300, &schema, base);
        replay_wal_into(&mut recovered, std::slice::from_ref(&torn_path)).unwrap();

        // Oracle: clean synchronous run over the durable prefix only.
        let mut sync_model = fit(9_300, &schema, base);
        for op in read_segment(&torn_path, &schema, &reg).unwrap().ops {
            let chunk = mem(&schema, op.records);
            match op.kind {
                WalKind::Insert => sync_model.insert(&chunk).unwrap(),
                WalKind::Delete => sync_model.delete(&chunk).unwrap(),
            };
        }
        assert_eq!(
            recovered.tree().unwrap().to_bytes(),
            sync_model.tree().unwrap().to_bytes(),
            "variant {variant}: recovered model != clean run over durable prefix"
        );
        recovered.check_invariants();
        sync_model.check_invariants();
        std::fs::remove_file(&torn_path).ok();
    }
    for p in segments {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Test-double provenance sink: records every absorbed op's content
/// digest and derives a toy fingerprint by hashing them in order — enough
/// to prove the daemon forwards each op exactly once, in absorb order,
/// and surfaces the sink's fingerprint in `QuiesceReport`.
#[derive(Clone)]
struct CountingSink {
    state: std::sync::Arc<std::sync::Mutex<(u64, boat_proof::Sha256)>>,
}

impl CountingSink {
    fn new() -> Self {
        CountingSink {
            state: std::sync::Arc::new(std::sync::Mutex::new((0, boat_proof::Sha256::new()))),
        }
    }

    fn ops_seen(&self) -> u64 {
        self.state.lock().unwrap().0
    }
}

impl ProvenanceSink for CountingSink {
    fn absorb_op(&mut self, op: &WalOp) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        state.1.update(op.content_digest.as_bytes());
    }

    fn fingerprint(&self) -> Option<boat_proof::Hash256> {
        let state = self.state.lock().unwrap();
        (state.0 > 0).then(|| state.1.clone().finalize())
    }
}

/// The daemon forwards every durable op's content digest to the
/// provenance sink in WAL order, and the quiesce report carries the
/// sink's fingerprint — which must be recomputable from an offline WAL
/// replay of the same segments.
#[test]
fn provenance_sink_sees_every_op_in_wal_order() {
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(95);
    let schema = gen.schema();
    let all = gen.generate_vec(7_000);
    let base = &all[..4_000];

    let dir = stream_dir("sink");
    let sink = CountingSink::new();
    let streaming = StreamingBoat::spawn(
        fit(9_500, &schema, base),
        StreamConfig {
            staleness: StalenessBound {
                max_records: 1_500,
                max_age: None,
            },
            wal: WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            provenance: Some(Box::new(sink.clone())),
            ..StreamConfig::default()
        },
    )
    .unwrap();
    for chunk in all[4_000..].chunks(500) {
        streaming.insert(chunk.to_vec()).unwrap();
    }
    streaming.delete(all[4_000..4_500].to_vec()).unwrap();
    let report = streaming.quiesce().unwrap();
    assert_eq!(report.stats.first_error, None);
    assert_eq!(sink.ops_seen(), 7);
    assert_eq!(report.fingerprint, sink.fingerprint());
    let segments = streaming.wal_segments();
    streaming.finish().unwrap().0.check_invariants();

    // Oracle: the same fingerprint falls out of an offline replay of the
    // durable segments' content digests, in order.
    let ops = replay_segments(&segments, &schema, &Registry::new()).unwrap();
    assert_eq!(ops.len(), 7);
    let mut oracle = boat_proof::Sha256::new();
    for op in &ops {
        oracle.update(op.content_digest.as_bytes());
    }
    assert_eq!(report.fingerprint, Some(oracle.finalize()));
    for p in segments {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A provenance sink that panics on the first op it sees.
struct PanickingSink;

impl ProvenanceSink for PanickingSink {
    fn absorb_op(&mut self, _op: &WalOp) {
        panic!("sink failure injected by the test");
    }

    fn fingerprint(&self) -> Option<boat_proof::Hash256> {
        None
    }
}

/// A daemon that panics mid-stream surfaces as a typed error from
/// `finish` (and from `quiesce`), never as a panic in the caller.
#[test]
fn panicked_daemon_is_a_typed_error() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(96);
    let schema = gen.schema();
    let all = gen.generate_vec(4_500);

    let dir = stream_dir("panic");
    let streaming = StreamingBoat::spawn(
        fit(9_600, &schema, &all[..4_000]),
        StreamConfig {
            wal: WalConfig {
                dir: Some(dir.clone()),
                ..WalConfig::default()
            },
            provenance: Some(Box::new(PanickingSink)),
            ..StreamConfig::default()
        },
    )
    .unwrap();
    streaming.insert(all[4_000..].to_vec()).unwrap();
    assert!(streaming.quiesce().is_err(), "quiesce after a daemon panic");
    assert!(streaming.finish().is_err(), "finish after a daemon panic");
    std::fs::remove_dir_all(dir).ok();
}

/// The deadline trigger maintains without any further appends: staleness
/// age is bounded even when the stream goes quiet.
#[test]
fn deadline_trigger_fires_on_quiet_stream() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(94);
    let schema = gen.schema();
    let all = gen.generate_vec(5_000);
    let base = &all[..4_000];

    let dir = stream_dir("deadline");
    let streaming = StreamingBoat::spawn(
        fit(9_400, &schema, base),
        StreamConfig {
            staleness: StalenessBound {
                max_records: 1_000_000, // only the clock can trigger
                max_age: Some(std::time::Duration::from_millis(200)),
            },
            wal: WalConfig {
                dir: Some(dir.clone()),
                ..WalConfig::default()
            },
            ..StreamConfig::default()
        },
    )
    .unwrap();
    streaming.insert(all[4_000..].to_vec()).unwrap();
    // No quiesce, no more traffic: the deadline must fire on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let metrics = streaming.metrics().clone();
    loop {
        let fires = metrics
            .snapshot()
            .counter("boat.stream.trigger_fires.deadline");
        if fires >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "deadline trigger never fired on a quiet stream"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (mut model, stats) = streaming.finish().unwrap();
    model.check_invariants();
    assert_eq!(stats.bound_violations, 0);
    assert!(stats.maintains >= 1);
    std::fs::remove_dir_all(dir).ok();
}
