//! Route renderers — the single source of every answer body.
//!
//! The CLI's offline `stats`/`tag`/`country`/`ingest --cold` commands
//! and the HTTP server's `/stats`, `/tag/*`, `/country/*`, `/report`
//! routes all call *these* functions, so the bytes a socket carries
//! are definitionally the bytes the offline report prints. The CI
//! serve-oracle lane `cmp`s the two anyway — contracts are nicer when
//! enforced.
//!
//! Renderers take snapshot *parts* (`CleanDataset`, `Reconstruction`,
//! `TagViewTable`), not an [`EpochSnapshot`], so the offline path can
//! cold-build the parts and the server can borrow them from a pinned
//! epoch — the equality of those two states is the rebuild oracle.
//!
//! Text bodies print views as humans read them. The one exception is
//! [`ingest_report_body`], the byte oracle for pipeline state: it
//! writes every tag × country cell as the hex digits of its
//! [`f64::to_bits`], so equal report bytes mean bit-equal aggregates.
//!
//! [`EpochSnapshot`]: tagdist::reconstruct::EpochSnapshot

use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;

use tagdist::dataset::{
    binfmt, decode_any, filter, filter_columnar, sniff, CleanDataset, DatasetFormat, DatasetStats,
    Mmap,
};
use tagdist::geo::{world, GeoDist, TrafficModel};
use tagdist::reconstruct::{Reconstruction, TagViewTable};
use tagdist::tags::{GeoTagIndex, Predictor, TagProfile};
use tagdist::{render_distribution, render_views};

/// Canonical `GeoTagIndex` shape: top-8 per ranking, 10k-view floor,
/// 3-carrier minimum — the `tagdist country` parameters, frozen here
/// so every caller builds the identical index.
pub const INDEX_TOP_K: usize = 8;
/// See [`INDEX_TOP_K`].
pub const INDEX_MIN_VIEWS: f64 = 10_000.0;
/// See [`INDEX_TOP_K`].
pub const INDEX_MIN_VIDEOS: usize = 3;

/// A query that reached valid machinery but no data. The `Display`
/// text is the user-facing message — the CLI prints it verbatim, the
/// server sends it as a 404 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The tag was never interned.
    UnknownTag(String),
    /// The tag exists but every carrier was filtered out.
    TagNotRetained(String),
    /// No such ISO code in the reference world.
    UnknownCountry(String),
    /// No retained video has this key.
    UnknownVideo(String),
    /// A predict query with an empty tag list.
    NoTags,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTag(name) => {
                write!(f, "tag {name:?} does not occur in the dataset")
            }
            QueryError::TagNotRetained(name) => {
                write!(f, "tag {name:?} has no retained videos")
            }
            QueryError::UnknownCountry(code) => write!(f, "unknown country code {code:?}"),
            QueryError::UnknownVideo(key) => {
                write!(f, "video key {key:?} is not in the filtered dataset")
            }
            QueryError::NoTags => write!(f, "predict needs at least one tag"),
        }
    }
}

/// Loads and filters a dataset along the cheapest path its format
/// allows: a binary file is memory-mapped and filtered straight off
/// the borrowed sections (no record materialization, payload bytes
/// never copied to the heap); a TSV file parses into records first.
/// Both paths produce the identical [`CleanDataset`].
///
/// # Errors
///
/// Returns a user-facing message when the file cannot be opened or
/// parsed.
pub fn load_clean(path: &str) -> Result<CleanDataset, String> {
    let map = Mmap::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    clean_from_bytes(&map, path)
}

/// [`load_clean`]'s sniff, decode and filter over bytes already in
/// hand (a map or a read copy); `path` only names the source in error
/// messages.
///
/// # Errors
///
/// Returns a user-facing message when the bytes cannot be parsed.
pub(crate) fn clean_from_bytes(bytes: &[u8], path: &str) -> Result<CleanDataset, String> {
    if sniff(bytes) == Some(DatasetFormat::Binary) {
        let view =
            binfmt::decode_borrowed(bytes).map_err(|e| format!("cannot parse {path}: {e}"))?;
        return Ok(filter_columnar(&view));
    }
    let dataset = decode_any(bytes).map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok(filter(&dataset))
}

/// Builds the canonical signature-tag index (see [`INDEX_TOP_K`]).
pub fn build_geo_index(table: &TagViewTable, traffic: &GeoDist) -> GeoTagIndex {
    GeoTagIndex::build(
        table,
        traffic,
        INDEX_TOP_K,
        INDEX_MIN_VIEWS,
        INDEX_MIN_VIDEOS,
    )
}

/// The `tagdist stats` body: §2 filtering report + corpus statistics.
pub fn stats_body(clean: &CleanDataset) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "{}", clean.report());
    let _ = writeln!(text, "{}", DatasetStats::compute(clean));
    text
}

/// The `tagdist tag NAME` body: one tag's geographic profile
/// (Figs. 2–3) over the given snapshot parts.
///
/// # Errors
///
/// [`QueryError::UnknownTag`] / [`QueryError::TagNotRetained`].
pub fn tag_body(
    clean: &CleanDataset,
    table: &TagViewTable,
    traffic: &GeoDist,
    name: &str,
) -> Result<String, QueryError> {
    let tag_id = clean
        .tags()
        .id(name)
        .ok_or_else(|| QueryError::UnknownTag(name.to_owned()))?;
    let profile = TagProfile::build(tag_id, clean, table, traffic)
        .ok_or_else(|| QueryError::TagNotRetained(name.to_owned()))?;
    let mut text = String::new();
    let _ = writeln!(text, "{profile}");
    let _ = write!(text, "{}", render_distribution(&profile.dist, 10));
    Ok(text)
}

/// The `tagdist country CODE` body: one country's most-viewed and
/// signature (highest-lift) tags.
///
/// # Errors
///
/// [`QueryError::UnknownCountry`].
pub fn country_body(
    clean: &CleanDataset,
    index: &GeoTagIndex,
    traffic: &TrafficModel,
    code: &str,
) -> Result<String, QueryError> {
    let country = world()
        .by_code(code)
        .ok_or_else(|| QueryError::UnknownCountry(code.to_owned()))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} ({}) — traffic share {:.1}%",
        country.name,
        country.code,
        100.0 * traffic.share(country.id)
    );
    let _ = writeln!(text, "most viewed tags:");
    for s in index.top_by_views(country.id) {
        let _ = writeln!(
            text,
            "  {:<24} {:>14.0} views",
            clean.tags().name(s.tag),
            s.views
        );
    }
    let _ = writeln!(text, "signature tags (highest lift):");
    for s in index.top_by_lift(country.id) {
        let _ = writeln!(
            text,
            "  {:<24} lift {:>6.1}x ({:.0} views here)",
            clean.tags().name(s.tag),
            s.lift,
            s.views
        );
    }
    Ok(text)
}

/// The per-video reconstruction body (`tagdist video KEY`,
/// `/video/KEY`): the §3 inversion of one video's popularity map.
///
/// # Errors
///
/// [`QueryError::UnknownVideo`] when `pos` has no reconstruction row
/// (out of range).
pub fn video_body(
    clean: &CleanDataset,
    recon: &Reconstruction,
    pos: usize,
) -> Result<String, QueryError> {
    let (video, views) = match (clean.get(pos), recon.views(pos)) {
        (Some(video), Some(views)) => (video, views),
        _ => return Err(QueryError::UnknownVideo(format!("#{pos}"))),
    };
    let names: Vec<&str> = video.tags.iter().map(|&t| clean.tags().name(t)).collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} — {} views, {} tags: {names:?}",
        video.key,
        video.total_views,
        names.len()
    );
    let _ = writeln!(text, "reconstructed views by country:");
    let _ = write!(text, "{}", render_views(views, 10));
    Ok(text)
}

/// The E6-style cache-prediction body (`tagdist predict`,
/// `/predict/TAG[/TAG…]`): the audience distribution predicted from a
/// tag set alone — what a proactive cache would use for a *new* video
/// that has tags but no view history yet.
///
/// # Errors
///
/// [`QueryError::NoTags`] on an empty tag list,
/// [`QueryError::UnknownTag`] on the first tag the corpus has never
/// seen.
pub fn predict_body(
    clean: &CleanDataset,
    table: &TagViewTable,
    traffic: &GeoDist,
    names: &[&str],
) -> Result<String, QueryError> {
    if names.is_empty() {
        return Err(QueryError::NoTags);
    }
    let mut ids = Vec::with_capacity(names.len());
    for name in names {
        ids.push(
            clean
                .tags()
                .id(name)
                .ok_or_else(|| QueryError::UnknownTag((*name).to_owned()))?,
        );
    }
    let predictor = Predictor::new(table, traffic);
    let dist = predictor.predict(&ids, None);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "predicted audience for {} tags: {names:?}",
        names.len()
    );
    let _ = write!(text, "{}", render_distribution(&dist, 10));
    Ok(text)
}

/// `HEX_PAIRS[b]` is byte `b` as two lowercase hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
        b += 1;
    }
    pairs
};

/// One report cell: `views.to_bits()` as 16 lowercase hex digits.
fn hex_bits(views: f64) -> [u8; 16] {
    let mut cell = [0; 16];
    for (pair, byte) in cell.chunks_exact_mut(2).zip(views.to_bits().to_be_bytes()) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
    }
    cell
}

/// Renders a pipeline state — streamed epoch snapshot or cold rebuild
/// alike — as a deterministic text report. After five summary lines
/// and a `row format:` line naming the encoding, every populated tag
/// is one row:
///
/// ```text
/// 0\t41b4b4f9cbde69cc 417c273e277a60eb … 416ca0898e62f196
/// ```
///
/// the tag's index, a tab, then each country's aggregated views as the
/// 16 lowercase hex digits of [`f64::to_bits`], in country order. A
/// cell decodes with `f64::from_bits(u64::from_str_radix(cell, 16)?)`
/// (`41b4b4f9cbde69cc` is 347404747.86880183 views). The encoding is
/// exact, so byte-equal reports mean bit-equal state (`0.0` and `-0.0`
/// render differently). This is the artifact the CI incremental-oracle
/// lane `cmp`s, and the `/report` route's body.
///
/// Every cell has the same width, so the text is sized once up front
/// and written in one serial pass with no reallocation.
pub fn ingest_report_body(clean: &CleanDataset, table: &TagViewTable) -> String {
    let mut head = String::new();
    let _ = writeln!(head, "{}", clean.report());
    let _ = writeln!(head, "unique tags: {}", clean.tags().len());
    let _ = writeln!(head, "total views: {}", clean.total_views());
    let _ = writeln!(head, "countries: {}", clean.country_count());
    let _ = writeln!(head, "populated tags: {}", table.populated_tags());
    let _ = writeln!(
        head,
        "row format: tag index, tab, then per country the f64::to_bits of its views \
         as 16 lowercase hex digits, space-separated"
    );
    // `{tag}\t`, then 16 digits per cell, a space between cells and
    // `\n` after the row.
    let rows_len: usize = table
        .iter()
        .map(|(tag, row)| {
            let digits = tag.index().checked_ilog10().map_or(1, |d| d as usize + 1);
            digits + 1 + 16 * row.len() + row.len().saturating_sub(1) + 1
        })
        .sum();
    let mut text = Vec::with_capacity(head.len() + rows_len);
    text.extend_from_slice(head.as_bytes());
    for (tag, row) in table.iter() {
        let _ = write!(text, "{}\t", tag.index());
        for (c, &views) in row.iter().enumerate() {
            if c > 0 {
                text.push(b' ');
            }
            text.extend_from_slice(&hex_bits(views));
        }
        text.push(b'\n');
    }
    // The head is a `String` and every row byte is ASCII, so this
    // never takes the lossy branch (which would copy).
    String::from_utf8(text).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist::dataset::{DatasetBuilder, RawPopularity};

    /// A corpus over the *reference* world (so `country_body` and
    /// `TrafficModel::reference` line up), with predictable content.
    fn parts() -> (CleanDataset, Reconstruction, TagViewTable, TrafficModel) {
        let traffic = TrafficModel::reference(world());
        let cc = world().len();
        let mut b = DatasetBuilder::new(cc);
        for i in 0..200usize {
            let raw: Vec<u8> = (0..cc).map(|c| ((i * 13 + c * 7) % 62) as u8).collect();
            let tags: Vec<String> = (0..1 + i % 3)
                .map(|t| format!("t{}", (i + t) % 11))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video(
                &format!("v{i}"),
                1_000 + (i * i) as u64,
                &tag_refs,
                RawPopularity::decode(raw, cc),
            );
        }
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, traffic.distribution()).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        (clean, recon, table, traffic)
    }

    #[test]
    fn stats_body_matches_the_report_displays() {
        let (clean, _, _, _) = parts();
        let body = stats_body(&clean);
        assert!(body.starts_with(&clean.report().to_string()));
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn tag_body_round_trips_known_tags_and_rejects_unknown() {
        let (clean, _, table, traffic) = parts();
        let body = tag_body(&clean, &table, traffic.distribution(), "t0").unwrap();
        assert!(body.starts_with("t0: "));
        assert!(body.contains('%'));
        assert_eq!(
            tag_body(&clean, &table, traffic.distribution(), "nope"),
            Err(QueryError::UnknownTag("nope".into()))
        );
        assert_eq!(
            tag_body(&clean, &table, traffic.distribution(), "nope")
                .unwrap_err()
                .to_string(),
            "tag \"nope\" does not occur in the dataset"
        );
    }

    #[test]
    fn country_body_lists_both_rankings() {
        let (clean, _, table, traffic) = parts();
        let index = build_geo_index(&table, traffic.distribution());
        let body = country_body(&clean, &index, &traffic, "BR").unwrap();
        assert!(body.contains("(BR) — traffic share"));
        assert!(body.contains("most viewed tags:"));
        assert!(body.contains("signature tags (highest lift):"));
        assert_eq!(
            country_body(&clean, &index, &traffic, "XX"),
            Err(QueryError::UnknownCountry("XX".into()))
        );
    }

    #[test]
    fn video_body_renders_the_reconstruction_row() {
        let (clean, recon, _, _) = parts();
        let pos = clean.position_of(clean.key_of(0)).unwrap();
        assert_eq!(pos, 0);
        let body = video_body(&clean, &recon, pos).unwrap();
        assert!(body.contains("reconstructed views by country:"));
        assert!(body.starts_with(clean.key_of(0)));
        assert!(video_body(&clean, &recon, clean.len()).is_err());
        assert_eq!(clean.position_of("missing"), None);
    }

    #[test]
    fn predict_body_blends_known_tags() {
        let (clean, _, table, traffic) = parts();
        let body = predict_body(&clean, &table, traffic.distribution(), &["t0", "t1"]).unwrap();
        assert!(body.starts_with("predicted audience for 2 tags:"));
        assert_eq!(
            predict_body(&clean, &table, traffic.distribution(), &[]),
            Err(QueryError::NoTags)
        );
        assert_eq!(
            predict_body(&clean, &table, traffic.distribution(), &["t0", "nope"]),
            Err(QueryError::UnknownTag("nope".into()))
        );
    }

    #[test]
    fn ingest_report_body_parses_back_to_the_table_bit_for_bit() {
        let (clean, _, table, _) = parts();
        let body = ingest_report_body(&clean, &table);
        assert_eq!(body.len(), body.capacity(), "sized once, exactly");
        let mut lines = body.lines();
        let head: Vec<&str> = lines
            .by_ref()
            .take_while(|l| !l.starts_with("row format:"))
            .collect();
        assert!(head.iter().any(|l| l.starts_with("unique tags: ")));
        let populated: usize = head
            .iter()
            .find_map(|l| l.strip_prefix("populated tags: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(populated, table.populated_tags());
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), populated);
        for (line, (tag, want)) in rows.iter().zip(table.iter()) {
            let (index, cells) = line.split_once('\t').unwrap();
            assert_eq!(index.parse::<usize>().unwrap(), tag.index());
            let got: Vec<u64> = cells
                .split(' ')
                .map(|cell| {
                    assert_eq!(cell.len(), 16, "{cell:?}");
                    u64::from_str_radix(cell, 16).unwrap()
                })
                .collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row of tag {index}");
        }
    }

    #[test]
    fn report_cells_round_trip_every_bit() {
        let cells = [
            0.0,
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MAX,
            1e16,
            1e-5,
            0.1 + 0.2, // 0.30000000000000004: 17 significant digits
        ];
        for v in cells {
            let hex = hex_bits(v);
            let text = std::str::from_utf8(&hex).unwrap();
            assert_eq!(text, format!("{:016x}", v.to_bits()));
            let back = f64::from_bits(u64::from_str_radix(text, 16).unwrap());
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        assert_ne!(hex_bits(0.0), hex_bits(-0.0));
        assert_eq!(&hex_bits(0.0), b"0000000000000000");
        assert_eq!(&hex_bits(-0.0), b"8000000000000000");
    }
}
