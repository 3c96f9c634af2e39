//! The seeded synthetic corpus every workload reads, and its file.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use tagdist::dataset::{binfmt, write_binary, Dataset, DatasetBuilder, RawPopularity};

use crate::measure::{median, timed};

/// Distinct tag names the corpus draws from.
const VOCABULARY: u64 = 120_000;

/// Synthesizes `videos` videos over `countries` countries from `seed`:
/// 1–7 tags drawn from a 120k vocabulary (one name in 997 escape-heavy),
/// and the §2 defect mix — 10 % missing and 10 % corrupt popularity
/// vectors, the rest random intensities, some all-zero. The same seed
/// gives the same dataset.
pub fn synthesize(seed: u64, videos: usize, countries: usize) -> Dataset {
    let mut builder = DatasetBuilder::new(countries);
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let vocabulary: Vec<String> = (0..VOCABULARY)
        .map(|id| {
            if id % 997 == 0 {
                format!("genre,\\{id}\tlive")
            } else {
                format!("tag-{id}")
            }
        })
        .collect();
    let mut refs: Vec<&str> = Vec::with_capacity(7);
    for i in 0..videos {
        refs.clear();
        let tag_count = 1 + (next() % 7) as usize;
        for _ in 0..tag_count {
            refs.push(&vocabulary[(next() % VOCABULARY) as usize]);
        }
        let popularity = match next() % 10 {
            0 => RawPopularity::Missing,
            1 => RawPopularity::Corrupt(vec![63, 1, 2]),
            _ => {
                let raw: Vec<u8> = (0..countries).map(|_| (next() % 62) as u8).collect();
                RawPopularity::decode(raw, countries)
            }
        };
        builder.push_video_titled(
            &format!("v{i:07}"),
            &format!("Video {i}"),
            next() % 5_000_000,
            &refs,
            popularity,
        );
    }
    builder.build()
}

/// Writes `dataset` to `path` as a `bin v1` file.
pub fn write(dataset: &Dataset, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    write_binary(dataset, &mut out).map_err(|e| format!("cannot encode corpus: {e}"))?;
    out.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// FNV-1a digest of the file at `path`.
pub fn digest(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(binfmt::fnv1a(&bytes))
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn corpus_path(&self) -> PathBuf {
        self.0.join("corpus.bin")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// The corpus after set-up: where it lives, its digest, and the median
/// set-up time.
#[derive(Debug)]
pub struct Setup {
    pub digest: u64,
    pub setup_s: f64,
}

/// Sets up `reps` times: synthesizes the corpus, writes it to `path`,
/// then runs `boot` (the workload's own set-up, e.g. a server boot,
/// returning its seconds). Every repetition must write the same bytes.
pub fn set_up(
    seed: u64,
    videos: usize,
    countries: usize,
    path: &Path,
    reps: usize,
    mut boot: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(reps);
    let mut first_digest = None;
    for rep in 0..reps {
        let (written, span) = timed(|| write(&synthesize(seed, videos, countries), path));
        written?;
        let boot_s = boot(rep)?;
        times.push(span.seconds + boot_s);
        let d = digest(path)?;
        if *first_digest.get_or_insert(d) != d {
            return Err(format!("seed {seed} wrote two different corpora"));
        }
    }
    Ok(Setup {
        digest: first_digest.unwrap_or_default(),
        setup_s: median(&times),
    })
}
