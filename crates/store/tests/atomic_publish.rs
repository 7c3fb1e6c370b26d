//! One atomic publish, three call sites. Two `chronus set`, two `chronus
//! init-model` over one CSV repository, a campaign and an adaptation refit
//! committing to one store: each rewrites a whole file while someone else
//! may be rewriting or reading it. Every such site goes through
//! `chronus::integrations::storage::publish` (a temp name of its own per
//! write, then a rename), so under two writers and a reader
//!
//! * no write fails because another is in flight,
//! * the reader only ever meets one writer's whole file or the other's,
//! * no temp file outlives its write.
//!
//! On one shared temp name the second writer truncates the file the first
//! is about to rename, keeps writing into the one it has already renamed
//! live, or finds its temp renamed away. This crate hosts the test because
//! it is the one that sees all three sites.

use chronus::domain::{ModelMetadata, PluginState, Settings};
use chronus::integrations::csv_repo::CsvRepository;
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::{LocalStorage, Repository};
use eco_store::{DiskBackend, StoreBackend};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

type Step<'a> = Box<dyn FnMut() -> Result<(), String> + Send + 'a>;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-publish-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the two `writers` `rounds` times each against one `read` loop that
/// starts with them and stops when both are done; `published_in` is the
/// directory the temp files would be left in.
fn two_writers_and_a_reader(
    site: &str,
    published_in: &Path,
    rounds: usize,
    writers: [Step<'_>; 2],
    mut read: Step<'_>,
) {
    let writing = AtomicUsize::new(2);
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut reads, mut torn) = (0u64, Vec::new());
            start.wait();
            while writing.load(Ordering::SeqCst) > 0 {
                torn.extend(read().err());
                reads += 1;
            }
            (reads, torn)
        });
        let writers = writers.map(|mut write| {
            let (start, writing) = (&start, &writing);
            scope.spawn(move || {
                start.wait();
                // counted, not unwrapped: a writer that panicked would
                // leave the reader waiting for it forever
                let failed: Vec<String> = (0..rounds).filter_map(|_| write().err()).collect();
                writing.fetch_sub(1, Ordering::SeqCst);
                failed
            })
        });
        for writer in writers {
            let failed = writer.join().unwrap();
            assert!(failed.is_empty(), "{site}: {} of {rounds} writes failed, first: {}", failed.len(), failed[0]);
        }
        let (reads, torn) = reader.join().unwrap();
        assert!(torn.is_empty(), "{site}: {} of {reads} reads met a torn file, first: {}", torn.len(), torn[0]);
        assert!(reads > 0, "{site}: the reader never ran");
    });
    let left: Vec<String> = std::fs::read_dir(published_in)
        .unwrap()
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(left.is_empty(), "{site}: temp files outlived their write: {left:?}");
}

/// `chronus set …` against `chronus load-model`: `EtcStorage::save_settings`.
#[test]
fn settings_json() {
    let root = scratch("settings");
    let active = Settings { state: PluginState::Active, ..Settings::default() };
    let off = Settings { state: PluginState::Deactivated, database: "x".repeat(4096), ..Settings::default() };
    let reader = EtcStorage::new(&root);
    reader.save_settings(&active).unwrap();
    // each writer is its own process's view of the file, as two CLI runs are
    let writer = |value: &Settings| -> Step<'static> {
        let (mine, value) = (EtcStorage::new(&root), value.clone());
        Box::new(move || mine.save_settings(&value).map_err(|e| e.to_string()))
    };
    let read: Step<'_> = Box::new(|| match reader.load_settings() {
        Ok(seen) if seen == active || seen == off => Ok(()),
        Ok(seen) => Err(format!("read neither saved value: {:?}", seen.state)),
        Err(e) => Err(format!("a save in flight surfaced as a read error: {e}")),
    });
    let published_in = reader.settings_path().parent().unwrap().to_path_buf();
    two_writers_and_a_reader("save_settings", &published_in, 2000, [writer(&off), writer(&active)], read);
}

/// Two `chronus init-model` over one CSV repository: `csv_repo::write_csv`.
#[test]
fn csv_repository_table() {
    let dir = scratch("csv");
    let model = |blob: char| ModelMetadata {
        id: -1,
        model_type: "brute-force".into(),
        system_id: 1,
        binary_hash: 7,
        blob_path: blob.to_string().repeat(256),
        created_at_ms: 0,
        train_rows: 192,
        fit_r2: 1.0,
    };
    let mut seed = CsvRepository::open(&dir).unwrap();
    for _ in 0..32 {
        seed.save_model(&model('s')).unwrap();
    }
    let writer = |blob: char| -> Step<'static> {
        let (mut mine, row) = (CsvRepository::open(&dir).unwrap(), model(blob));
        Box::new(move || mine.save_model(&row).map(|_| ()).map_err(|e| e.to_string()))
    };
    // every version either writer publishes is the 32 seeded rows plus
    // only its own, each row whole
    let read: Step<'_> = Box::new(|| {
        let models = CsvRepository::open(&dir).and_then(|seen| seen.models()).map_err(|e| e.to_string())?;
        let whole = models.iter().all(|m| m.blob_path.len() == 256 && m.train_rows == 192);
        let mut authors: Vec<char> =
            models[32.min(models.len())..].iter().filter_map(|m| m.blob_path.chars().next()).collect();
        authors.dedup();
        match (models.len() >= 32 && whole, authors.len()) {
            (true, 0 | 1) => Ok(()),
            _ => Err(format!("{} rows, whole: {whole}, written by {authors:?}", models.len())),
        }
    });
    two_writers_and_a_reader("write_csv", &dir, 400, [writer('a'), writer('b')], read);
}

/// A campaign and a refit committing to one store: `DiskBackend::write_atomic`.
#[test]
fn store_backend_write_atomic() {
    let root = scratch("backend");
    let writer = |byte: u8| -> Step<'static> {
        let (mine, bytes) = (DiskBackend::open(&root).unwrap(), vec![byte; 64 * 1024]);
        Box::new(move || mine.write_atomic("blobs/model", &bytes).map_err(|e| e.to_string()))
    };
    writer(b'a')().unwrap();
    let backend = DiskBackend::open(&root).unwrap();
    let read: Step<'_> = Box::new(|| match backend.read("blobs/model") {
        Ok(Some(seen)) if seen.len() == 64 * 1024 && seen.iter().all(|b| *b == seen[0]) => Ok(()),
        Ok(seen) => Err(format!("a mix, or a part: {:?} bytes", seen.map(|s| s.len()))),
        Err(e) => Err(e.to_string()),
    });
    two_writers_and_a_reader("write_atomic", &root.join("blobs"), 300, [writer(b'a'), writer(b'b')], read);
    assert_eq!(backend.list("blobs").unwrap(), ["model"]);
}
