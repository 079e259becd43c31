//! The content-addressed analysis cache.
//!
//! Four persistent tables, each keyed by a stable content identifier
//! ([`cr_core::stable_hash`] or a deterministic config descriptor), so a
//! warm rerun skips the work behind every entry it finds:
//!
//! * **filter verdicts** by `machine:sha256(filter code bytes)`
//!   ([`cr_core::seh::filter_key`]): filter code shared by several
//!   modules is symbolically executed once per corpus lifetime;
//! * **module analyses** ([`SehSummary`]) by image content hash
//!   ([`cr_core::seh::image_content_hash`]): no analysis, no solver;
//! * **static scans** ([`ScanSummary`]) by ELF content hash
//!   ([`cr_scan::elf_content_hash`]): no CFG walk or dataflow;
//! * **arena summaries** ([`cr_arena::ArenaSummary`]) by the strategy's
//!   config descriptor (strategy, seed, rounds, filter module): no
//!   probe simulation.
//!
//! Each is one generic [`Table`] of a [`Record`] type, which names its
//! table, the `kind` tag of its lines and its payload field; the serde
//! shim's derives encode and decode the payload. Hits and misses are
//! counted per thread, inside a [`tally_lookups`] scope, never in the
//! shared cache: a run's counts are the lookups its own attempts made.
//!
//! With `--cache DIR` the cache persists as [`CACHE_FILE`], one
//! `{"kind":K,"key":KEY,FIELD:PAYLOAD}` entry per line: the filter,
//! module, scan and arena tables in that order, each sorted by key, so
//! the file is byte-stable. Without a directory it lives in memory only.
//!
//! ## Corruption handling
//!
//! Each persisted line is framed as `CRC32HEX ' ' JSON` (CRC-32/IEEE
//! over the JSON bytes). A line failing the frame, CRC or JSON check at
//! load is **quarantined** — appended verbatim to [`QUARANTINE_FILE`] —
//! and simply misses on its next lookup: one torn write never costs a
//! whole warm cache. Unframed legacy lines (starting with `{`) still
//! load. Saving writes a temporary sibling and renames it into place, so
//! a campaign killed mid-save leaves the old cache or the new one, never
//! a torn hybrid.

use crate::json::Json;
use cr_arena::ArenaSummary;
use cr_core::seh::VerdictCache;
use cr_symex::FilterVerdict;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Name of the persisted cache file inside `--cache DIR`.
pub const CACHE_FILE: &str = "analysis-cache.jsonl";

/// Quarantine file: lines that failed validation at load, verbatim.
pub const QUARANTINE_FILE: &str = "cache.quarantine.jsonl";

/// A parsed module image held resident in memory, keyed by module name:
/// the Nth request for a module (in a server, or a spec that repeats
/// it) generates and parses nothing. Never persisted — images are cheap
/// to regenerate, and the [`SehSummary`] table already skips analysis.
#[derive(Debug)]
pub struct ImageArtifact {
    /// Content hash of the image bytes ([`cr_core::seh::image_content_hash`]).
    pub hash: String,
    /// The parsed image.
    pub image: cr_image::PeImage,
}

/// Cached summary of one module analysis (the campaign-visible subset
/// of [`cr_core::seh::ModuleSehAnalysis`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SehSummary {
    /// Module name.
    pub module: String,
    /// x64 container?
    pub is_x64: bool,
    /// Guarded locations before symbolic vetting (Table II "before").
    pub guarded_before: usize,
    /// Guarded locations after symbolic vetting (Table II "after").
    pub guarded_after: usize,
    /// Unique filters before vetting (Table III "before").
    pub filters_before: usize,
    /// Filters surviving vetting (Table III "after").
    pub filters_after: usize,
    /// Filters the executor could not decide.
    pub filters_undecided: usize,
}

/// Cached summary of one traceless static scan (the campaign-visible
/// subset of a [`cr_scan::ScanReport`]), keyed by the ELF content hash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanSummary {
    /// Module (server or corpus) name.
    pub module: String,
    /// Syscall sites discovered.
    pub sites: usize,
    /// Sites whose number resolved to a constant.
    pub constant: usize,
    /// Sites whose number is loaded from memory (reported, not guessed).
    pub memory: usize,
    /// Sites tagged init-only.
    pub init_only: usize,
    /// Sites reachable from a serving loop (serving or both).
    pub serving: usize,
    /// Sites on no statically reachable path.
    pub unreached: usize,
}

impl ScanSummary {
    /// Condense a full scan report into its cacheable row.
    pub fn from_report(report: &cr_scan::ScanReport) -> ScanSummary {
        let c = report.counts();
        ScanSummary {
            module: report.module.clone(),
            sites: c.sites,
            constant: c.constant,
            memory: c.memory,
            init_only: c.init_only,
            serving: c.serving + c.both,
            unreached: c.unreached,
        }
    }
}

/// Hit/miss counts of the lookups one [`tally_lookups`] scope made, for
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheCounts {
    /// Filter-verdict lookups served from the cache.
    pub filter_hits: u64,
    /// Filter-verdict lookups that fell through to symbolic execution.
    pub filter_misses: u64,
    /// Module lookups served from the cache.
    pub module_hits: u64,
    /// Module lookups that fell through to full analysis.
    pub module_misses: u64,
    /// Static-scan lookups served from the cache.
    pub scan_hits: u64,
    /// Static-scan lookups that fell through to a fresh CFG walk.
    pub scan_misses: u64,
    /// Arena-summary lookups served from the cache.
    pub arena_hits: u64,
    /// Arena-summary lookups that fell through to a fresh matrix run.
    pub arena_misses: u64,
    /// Parsed-image lookups served from the resident artifact table.
    pub image_hits: u64,
    /// Parsed-image lookups that fell through to generate + parse.
    pub image_misses: u64,
}

impl CacheCounts {
    /// Hit fraction over the four persistent tables; 0.0 when nothing
    /// was looked up. Image traffic is excluded: the resident artifact
    /// table lives in process memory only, so a fresh process always
    /// misses it however warm the on-disk cache is.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.filter_hits + self.module_hits + self.scan_hits + self.arena_hits;
        let misses = self.filter_misses + self.module_misses + self.scan_misses + self.arena_misses;
        hits as f64 / (hits + misses).max(1) as f64
    }

    fn count(&mut self, table: Lookup, hit: bool) {
        let [hits, misses] = match table {
            Lookup::Filter => [&mut self.filter_hits, &mut self.filter_misses],
            Lookup::Module => [&mut self.module_hits, &mut self.module_misses],
            Lookup::Scan => [&mut self.scan_hits, &mut self.scan_misses],
            Lookup::Arena => [&mut self.arena_hits, &mut self.arena_misses],
            Lookup::Image => [&mut self.image_hits, &mut self.image_misses],
        };
        *if hit { hits } else { misses } += 1;
    }
}

impl std::ops::AddAssign for CacheCounts {
    fn add_assign(&mut self, o: CacheCounts) {
        self.filter_hits += o.filter_hits;
        self.filter_misses += o.filter_misses;
        self.module_hits += o.module_hits;
        self.module_misses += o.module_misses;
        self.scan_hits += o.scan_hits;
        self.scan_misses += o.scan_misses;
        self.arena_hits += o.arena_hits;
        self.arena_misses += o.arena_misses;
        self.image_hits += o.image_hits;
        self.image_misses += o.image_misses;
    }
}

/// The table a lookup went to.
#[derive(Debug, Clone, Copy)]
enum Lookup {
    Filter,
    Module,
    Scan,
    Arena,
    Image,
}

thread_local! {
    /// The open [`tally_lookups`] scope of this thread.
    static TALLY: Cell<Option<CacheCounts>> = const { Cell::new(None) };
}

/// Run `f` and count the cache lookups it makes on this thread.
/// Lookups by other threads never show in the counts, so two requests
/// sharing one cache each see only their own hits and misses.
///
/// Scopes nest: when this one closes, also if `f` panics, its counts
/// fold into the enclosing scope.
pub fn tally_lookups<R>(f: impl FnOnce() -> R) -> (R, CacheCounts) {
    struct Close(Option<CacheCounts>);
    impl Drop for Close {
        fn drop(&mut self) {
            let inner = TALLY.with(Cell::take).unwrap_or_default();
            let outer = self.0.take().map(|mut outer| {
                outer += inner;
                outer
            });
            TALLY.with(|t| t.set(outer));
        }
    }
    let _close = Close(TALLY.with(|t| t.replace(Some(CacheCounts::default()))));
    let out = f();
    (out, TALLY.with(Cell::get).unwrap_or_default())
}

/// One keyed table, shared across worker threads. Lookups clone the
/// value out under a short lock and count in the caller's
/// [`tally_lookups`] scope.
#[derive(Debug)]
pub struct Table<V> {
    map: Mutex<HashMap<String, V>>,
    lookup: Lookup,
}

impl<V> Table<V> {
    fn new(lookup: Lookup) -> Table<V> {
        Table {
            map: Mutex::default(),
            lookup,
        }
    }
}

impl<V: Clone> Table<V> {
    fn get(&self, key: &str) -> Option<V> {
        let hit = self.map.lock().unwrap().get(key).cloned();
        TALLY.with(|t| {
            if let Some(mut counts) = t.get() {
                counts.count(self.lookup, hit.is_some());
                t.set(Some(counts));
            }
        });
        hit
    }

    fn put(&self, key: &str, value: V) {
        self.map.lock().unwrap().insert(key.to_string(), value);
    }
}

/// A value with its own persistent table in the [`AnalysisCache`].
pub trait Record: Clone + Serialize + Deserialize {
    /// The `kind` tag of this record's persisted lines.
    const KIND: &'static str;
    /// The field of a persisted line that holds the encoded value.
    const FIELD: &'static str;
    /// This record's table inside `cache`.
    fn table(cache: &AnalysisCache) -> &Table<Self>;
}

macro_rules! records {
    ($($ty:ty => $table:ident, $kind:literal, $field:literal;)*) => {$(
        impl Record for $ty {
            const KIND: &'static str = $kind;
            const FIELD: &'static str = $field;
            fn table(cache: &AnalysisCache) -> &Table<Self> {
                &cache.$table
            }
        }
    )*};
}

records! {
    FilterVerdict => filters, "filter", "verdict";
    SehSummary => modules, "module", "summary";
    ScanSummary => scans, "scan", "summary";
    ArenaSummary => arenas, "arena", "summary";
}

/// The campaign-wide analysis cache. One short-held `Mutex` per table:
/// lookups are rare next to the analyses they save.
pub struct AnalysisCache {
    filters: Table<FilterVerdict>,
    modules: Table<SehSummary>,
    scans: Table<ScanSummary>,
    arenas: Table<ArenaSummary>,
    /// Resident parsed images by module name (see [`ImageArtifact`]).
    images: Table<Arc<ImageArtifact>>,
    quarantined: u64,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache {
            filters: Table::new(Lookup::Filter),
            modules: Table::new(Lookup::Module),
            scans: Table::new(Lookup::Scan),
            arenas: Table::new(Lookup::Arena),
            images: Table::new(Lookup::Image),
            quarantined: 0,
        }
    }
}

impl AnalysisCache {
    /// Fresh, empty, memory-only cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Load the cache persisted under `dir`, or an empty cache when no
    /// file exists yet.
    ///
    /// Malformed lines (bad frame, CRC mismatch, unparseable JSON) do
    /// **not** fail the load: each is appended to [`QUARANTINE_FILE`],
    /// counted in [`AnalysisCache::quarantined`], and skipped, so the
    /// healthy remainder of the cache stays warm.
    ///
    /// # Errors
    ///
    /// Real I/O failure only (unreadable cache file, unwritable
    /// quarantine file).
    pub fn load(dir: &Path) -> io::Result<AnalysisCache> {
        let mut cache = AnalysisCache::new();
        let text = match std::fs::read_to_string(dir.join(CACHE_FILE)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(cache),
            Err(e) => return Err(e),
        };
        let (_, quarantine) = cache.merge_lines(&text);
        if !quarantine.is_empty() {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(QUARANTINE_FILE))?;
            for line in &quarantine {
                writeln!(f, "{line}")?;
            }
            cache.quarantined = quarantine.len() as u64;
        }
        Ok(cache)
    }

    /// Lines rejected (and quarantined) by the last [`AnalysisCache::load`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Persist all entries under `dir` (created if missing). Entries
    /// are written sorted by key, so equal caches produce equal files.
    /// The write is atomic: a temporary file is renamed into place.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or writing the file.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        self.save_with(dir, |_, _| {})
    }

    /// [`AnalysisCache::save`] with a per-record hook: `mutate` sees
    /// each framed line (`CRC32HEX ' ' JSON`) together with its index
    /// in the sorted save order, and may rewrite it in place. This is
    /// the fault-injection point for corrupt/torn record chaos — the
    /// index is the stable scope key a
    /// [`cr_chaos::FaultInjector`] decision is keyed on.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or writing the file.
    pub fn save_with(&self, dir: &Path, mutate: impl FnMut(usize, &mut String)) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let out = self.render(mutate);
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, out.as_bytes())?;
        std::fs::rename(&tmp, dir.join(CACHE_FILE))
    }

    /// Every persistent entry as the CRC-framed JSONL document
    /// [`AnalysisCache::save`] would write, so equal caches export equal
    /// bytes. This is the warm-cache replication payload: one node's
    /// export is another node's [`AnalysisCache::merge_jsonl`] input.
    /// Resident images are memory-only and excluded.
    pub fn export_jsonl(&self) -> String {
        self.render(|_, _| {})
    }

    /// Merge [`AnalysisCache::export_jsonl`] lines into this cache and
    /// return `(merged, rejected)` line counts. Entries are
    /// content-addressed, so a key collision replaces an equal value.
    /// Malformed lines are counted, never quarantined to disk (the
    /// sender's copy is authoritative).
    pub fn merge_jsonl(&self, text: &str) -> (u64, u64) {
        let (merged, rejected) = self.merge_lines(text);
        (merged, rejected.len() as u64)
    }

    /// Merge every non-blank line of `text`: `(merged, rejected lines)`.
    fn merge_lines<'t>(&self, text: &'t str) -> (u64, Vec<&'t str>) {
        let mut merged = 0;
        let mut rejected = Vec::new();
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            match unframe(line).and_then(|json| self.parse_entry(json)) {
                Ok(()) => merged += 1,
                Err(_) => rejected.push(line),
            }
        }
        (merged, rejected)
    }

    /// The framed lines of every persistent table, in save order.
    fn render(&self, mut mutate: impl FnMut(usize, &mut String)) -> String {
        let mut records = self.records::<FilterVerdict>();
        records.extend(self.records::<SehSummary>());
        records.extend(self.records::<ScanSummary>());
        records.extend(self.records::<ArenaSummary>());
        let mut out = String::new();
        for (index, record) in records.iter().enumerate() {
            let mut line = frame(record);
            mutate(index, &mut line);
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// One table's persisted records (unframed JSON), sorted by key.
    fn records<V: Record>(&self) -> Vec<String> {
        let map = V::table(self).map.lock().unwrap();
        let sorted: BTreeMap<_, _> = map.iter().collect();
        sorted
            .into_iter()
            .map(|(key, value)| {
                let (kind, field, key, value) = (V::KIND, V::FIELD, key.to_json(), value.to_json());
                format!("{{\"kind\":\"{kind}\",\"key\":{key},\"{field}\":{value}}}")
            })
            .collect()
    }

    /// Decode one unframed record into the table its `kind` names.
    fn parse_entry(&self, line: &str) -> Result<(), String> {
        let entry = Json::parse(line)?;
        match entry.get("kind").and_then(Json::as_str) {
            Some(FilterVerdict::KIND) => self.insert::<FilterVerdict>(&entry),
            Some(SehSummary::KIND) => self.insert::<SehSummary>(&entry),
            Some(ScanSummary::KIND) => self.insert::<ScanSummary>(&entry),
            Some(ArenaSummary::KIND) => self.insert::<ArenaSummary>(&entry),
            other => Err(format!("unknown entry kind {other:?}")),
        }
    }

    fn insert<V: Record>(&self, entry: &Json) -> Result<(), String> {
        let key: String = serde::read_field(entry, "key")?;
        let value: V = serde::read_field(entry, V::FIELD)?;
        V::table(self).put(&key, value);
        Ok(())
    }

    /// Look up a record by key, counting the hit or miss in this
    /// thread's [`tally_lookups`] scope.
    pub fn get<V: Record>(&self, key: &str) -> Option<V> {
        V::table(self).get(key)
    }

    /// Store a record under `key` (an existing entry is replaced).
    pub fn put<V: Record>(&self, key: &str, value: &V) {
        V::table(self).put(key, value.clone());
    }

    /// Number of cached records of type `V`.
    pub fn entries<V: Record>(&self) -> usize {
        V::table(self).map.lock().unwrap().len()
    }

    /// Look up a resident parsed image by module name.
    pub fn get_image(&self, module: &str) -> Option<Arc<ImageArtifact>> {
        self.images.get(module)
    }

    /// Store a parsed image under `module` and return the shared
    /// artifact handle (an existing entry for the module is replaced).
    pub fn put_image(
        &self,
        module: &str,
        hash: impl Into<String>,
        image: cr_image::PeImage,
    ) -> Arc<ImageArtifact> {
        let artifact = Arc::new(ImageArtifact {
            hash: hash.into(),
            image,
        });
        self.images.put(module, artifact.clone());
        artifact
    }
}

/// Adapter giving [`cr_core::seh::analyze_module_cached`] a view of a
/// shared [`AnalysisCache`] (the core trait wants `&mut self` for
/// `put`; the cache locks internally, so a shared reference suffices).
pub struct SharedVerdictCache<'a>(pub &'a AnalysisCache);

impl VerdictCache for SharedVerdictCache<'_> {
    fn get(&self, key: &str) -> Option<FilterVerdict> {
        self.0.get(key)
    }
    fn put(&mut self, key: &str, verdict: &FilterVerdict) {
        self.0.put(key, verdict);
    }
}

/// CRC-32/IEEE (the zlib polynomial), bitwise — entries are short and
/// saves are rare, so no table is warranted. Public because the serve
/// layer frames its wire protocol with the same checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frame one JSON record for persistence: `CRC32HEX ' ' JSON`.
fn frame(json: &str) -> String {
    format!("{:08x} {json}", crc32(json.as_bytes()))
}

/// Validate one persisted line and return its JSON payload. Bare
/// `{...}` lines (the pre-CRC format) pass through unchecked.
fn unframe(line: &str) -> Result<&str, String> {
    if line.starts_with('{') {
        return Ok(line); // legacy unframed record
    }
    let (tok, json) = line.split_once(' ').ok_or("missing CRC frame")?;
    if tok.len() != 8 || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bad CRC token {tok:?}"));
    }
    let want = u32::from_str_radix(tok, 16).map_err(|e| e.to_string())?;
    let got = crc32(json.as_bytes());
    if got != want {
        return Err(format!("CRC mismatch: frame {want:08x}, payload {got:08x}"));
    }
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_arena::ArenaPair;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cr-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Entry counts of the filter, module, scan and arena tables.
    fn counts(cache: &AnalysisCache) -> [usize; 4] {
        [
            cache.entries::<FilterVerdict>(),
            cache.entries::<SehSummary>(),
            cache.entries::<ScanSummary>(),
            cache.entries::<ArenaSummary>(),
        ]
    }

    fn sample_tables(cache: &AnalysisCache) {
        cache.put("x64:aaaa", &FilterVerdict::RejectsAccessViolation);
        cache.put(
            "x64:bbbb",
            &FilterVerdict::AcceptsAccessViolation {
                witness_code: 0xC0000005,
            },
        );
        cache.put("x86:cccc", &FilterVerdict::Unknown("call to helper"));
        cache.put(
            "deadbeef",
            &SehSummary {
                module: "user32".into(),
                is_x64: true,
                guarded_before: 10,
                guarded_after: 3,
                filters_before: 7,
                filters_after: 2,
                filters_undecided: 1,
            },
        );
        cache.put(
            "feedc0de",
            &ScanSummary {
                module: "vsftpd".into(),
                sites: 9,
                constant: 7,
                memory: 1,
                init_only: 3,
                serving: 4,
                unreached: 1,
            },
        );
        cache.put(
            "stealth:s2017:r3:vsftpd",
            &ArenaSummary {
                strategy: "stealth".into(),
                rounds: 3,
                probes: 660,
                dropped: 0,
                located_rounds: 3,
                pairs: vec![ArenaPair {
                    detector: "cusum".into(),
                    detected_rounds: 3,
                    time_to_detect_ms: 700,
                    false_positives: 0,
                    blocked_escalations: 0,
                }],
            },
        );
    }

    #[test]
    fn round_trips_through_jsonl() {
        let dir = scratch("rt");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();

        let back = AnalysisCache::load(&dir).unwrap();
        assert_eq!(counts(&back), [3, 1, 1, 1]);
        assert_eq!(back.quarantined(), 0);
        assert_eq!(
            back.get::<FilterVerdict>("x64:aaaa"),
            Some(FilterVerdict::RejectsAccessViolation)
        );
        assert_eq!(
            back.get::<FilterVerdict>("x64:bbbb"),
            Some(FilterVerdict::AcceptsAccessViolation {
                witness_code: 0xC0000005
            })
        );
        assert_eq!(
            back.get::<FilterVerdict>("x86:cccc"),
            Some(FilterVerdict::Unknown("call to helper"))
        );
        assert_eq!(back.get::<SehSummary>("deadbeef").unwrap().module, "user32");
        let scan = back.get::<ScanSummary>("feedc0de").unwrap();
        assert_eq!(
            (scan.module.as_str(), scan.sites, scan.serving),
            ("vsftpd", 9, 4)
        );
        let arena = back.get::<ArenaSummary>("stealth:s2017:r3:vsftpd").unwrap();
        assert_eq!(
            (arena.strategy.as_str(), arena.probes, arena.located_rounds),
            ("stealth", 660, 3)
        );
        assert_eq!(arena.pairs.len(), 1);
        assert_eq!(arena.pairs[0].detector, "cusum");
        assert_eq!(arena.pairs[0].time_to_detect_ms, 700);

        // Saving the reloaded cache reproduces the file byte for byte.
        let bytes1 = std::fs::read(dir.join(CACHE_FILE)).unwrap();
        back.save(&dir).unwrap();
        let bytes2 = std::fs::read(dir.join(CACHE_FILE)).unwrap();
        assert_eq!(bytes1, bytes2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_persisted_line_is_crc_framed() {
        let dir = scratch("framed");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        for line in text.lines() {
            let json = unframe(line).expect("valid frame");
            assert!(json.starts_with('{'));
            assert!(!line.starts_with('{'), "line must carry a CRC prefix");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_loads_empty() {
        let cache = AnalysisCache::load(Path::new("/nonexistent/cr-cache")).unwrap();
        assert_eq!(counts(&cache), [0; 4]);
        assert_eq!(cache.quarantined(), 0);
    }

    /// Regression: a malformed line must not abort the whole load — it
    /// is quarantined and the healthy lines still come back warm.
    #[test]
    fn corrupt_lines_are_quarantined_not_fatal() {
        let dir = scratch("bad");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();

        // Corrupt one line: flip a payload byte under an intact CRC.
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let victim = lines
            .iter()
            .position(|l| l.contains("deadbeef"))
            .expect("module line");
        lines[victim] = lines[victim].replace("user32", "us#r32");
        // And append pure garbage plus a torn half-line.
        lines.push("not a cache line at all".into());
        let torn = &lines[0][..lines[0].len() / 2];
        lines.push(torn.to_string());
        std::fs::write(dir.join(CACHE_FILE), lines.join("\n")).unwrap();

        let back = AnalysisCache::load(&dir).expect("load must survive corruption");
        assert_eq!(back.quarantined(), 3);
        // Healthy entries stayed warm; the corrupted module dropped out.
        assert_eq!(counts(&back), [3, 0, 1, 1]);
        assert!(back.get::<FilterVerdict>("x64:aaaa").is_some());
        assert!(back.get::<SehSummary>("deadbeef").is_none());
        // The rejects landed verbatim in the quarantine file.
        let q = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(q.lines().count(), 3);
        assert!(q.contains("us#r32"));
        assert!(q.contains("not a cache line at all"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_unframed_lines_still_load() {
        let dir = scratch("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(CACHE_FILE),
            "{\"kind\":\"filter\",\"key\":\"x64:old\",\"verdict\":\"RejectsAccessViolation\"}\n",
        )
        .unwrap();
        let cache = AnalysisCache::load(&dir).unwrap();
        assert_eq!(cache.quarantined(), 0);
        assert_eq!(
            cache.get::<FilterVerdict>("x64:old"),
            Some(FilterVerdict::RejectsAccessViolation)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_leaves_no_temporary_files() {
        let dir = scratch("atomic");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![CACHE_FILE.to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_with_mutator_produces_quarantinable_lines() {
        let dir = scratch("mutate");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        // Corrupt record 1 and tear record 2 of the 6 sorted records.
        cache
            .save_with(&dir, |i, line| match i {
                1 => *line = line.replace('"', "#"),
                2 => line.truncate(line.len() / 2),
                _ => {}
            })
            .unwrap();
        let back = AnalysisCache::load(&dir).unwrap();
        assert_eq!(back.quarantined(), 2);
        // Records 1 and 2 (both filters in sorted order) dropped out;
        // filter 0 and the module survived.
        assert_eq!(counts(&back), [1, 1, 1, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_and_merge_replicate_every_table() {
        let source = AnalysisCache::new();
        sample_tables(&source);
        let jsonl = source.export_jsonl();

        let sink = AnalysisCache::new();
        let (merged, rejected) = sink.merge_jsonl(&jsonl);
        assert_eq!((merged, rejected), (6, 0));
        assert_eq!(counts(&sink), counts(&source));
        // Replication is idempotent: entries are content-addressed, so
        // a re-merge replaces equal values with equal values.
        let (merged2, rejected2) = sink.merge_jsonl(&jsonl);
        assert_eq!((merged2, rejected2), (6, 0));
        assert_eq!(sink.export_jsonl(), jsonl, "export round-trips");
        // Malformed input is rejected per line, never fatal.
        let (m, r) = sink.merge_jsonl("garbage line\n\n");
        assert_eq!((m, r), (0, 1));
        assert_eq!(sink.export_jsonl(), jsonl);
    }

    #[test]
    fn crc_rejects_single_byte_changes() {
        let line = frame(r#"{"kind":"filter","key":"k","verdict":"RejectsAccessViolation"}"#);
        assert!(unframe(&line).is_ok());
        let tampered = line.replace("filter", "filteR");
        assert!(unframe(&tampered).is_err());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        let ((), s) = tally_lookups(|| {
            assert!(cache.get::<FilterVerdict>("x64:aaaa").is_some());
            assert!(cache.get::<FilterVerdict>("x64:unknown").is_none());
            assert!(cache.get::<SehSummary>("deadbeef").is_some());
            assert!(cache.get::<SehSummary>("feedface").is_none());
            assert!(cache.get::<ScanSummary>("feedc0de").is_some());
            assert!(cache.get::<ScanSummary>("00000000").is_none());
            assert!(cache
                .get::<ArenaSummary>("stealth:s2017:r3:vsftpd")
                .is_some());
            assert!(cache.get::<ArenaSummary>("linear:s0:r0:none").is_none());
        });
        assert_eq!((s.filter_hits, s.filter_misses), (1, 1));
        assert_eq!((s.module_hits, s.module_misses), (1, 1));
        assert_eq!((s.scan_hits, s.scan_misses), (1, 1));
        assert_eq!((s.arena_hits, s.arena_misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tally_scopes_nest_and_ignore_other_threads() {
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        let (inner, outer) = tally_lookups(|| {
            cache.get::<SehSummary>("deadbeef");
            // Another thread's lookups, made while this scope is open,
            // belong to nobody here.
            std::thread::scope(|s| {
                s.spawn(|| {
                    cache.get::<SehSummary>("deadbeef");
                    cache.get::<FilterVerdict>("x64:none");
                });
            });
            let ((), inner) = tally_lookups(|| {
                cache.get::<FilterVerdict>("x64:aaaa");
            });
            inner
        });
        assert_eq!(
            inner,
            CacheCounts {
                filter_hits: 1,
                ..CacheCounts::default()
            }
        );
        assert_eq!(
            outer,
            CacheCounts {
                filter_hits: 1,
                module_hits: 1,
                ..CacheCounts::default()
            }
        );
        // Outside any scope a lookup counts nowhere.
        assert!(cache.get::<SehSummary>("deadbeef").is_some());
        assert_eq!(tally_lookups(|| ()).1, CacheCounts::default());
    }

    #[test]
    fn image_artifacts_are_shared_and_counted() {
        let cache = AnalysisCache::new();
        let spec = cr_targets::browsers::full_population_specs()
            .into_iter()
            .next()
            .expect("non-empty population");
        let img = cr_targets::browsers::generate_dll(&spec);
        let ((put, got), s) = tally_lookups(|| {
            assert!(cache.get_image("nginx.exe").is_none());
            let put = cache.put_image("nginx.exe", "cafebabe", img);
            (put, cache.get_image("nginx.exe").expect("resident image"))
        });
        assert!(std::sync::Arc::ptr_eq(&put, &got));
        assert_eq!(got.hash, "cafebabe");
        assert_eq!((s.image_hits, s.image_misses), (1, 1));
        // Image traffic is resident-only and stays out of the
        // persistent-cache hit rate.
        assert!((s.hit_rate() - 0.0).abs() < 1e-9);
    }

    /// `FilterVerdict::Unknown` carries a `&'static str`: reloading the
    /// same reason must reuse one interned allocation, not leak a new one
    /// per load.
    #[test]
    fn interning_reuses_reasons() {
        let line = frame(r#"{"kind":"filter","key":"k","verdict":{"Unknown":"same reason"}}"#);
        let reason = || {
            let cache = AnalysisCache::new();
            assert_eq!(cache.merge_jsonl(&line), (1, 0));
            match cache.get::<FilterVerdict>("k") {
                Some(FilterVerdict::Unknown(r)) => r,
                other => panic!("expected an Unknown verdict, got {other:?}"),
            }
        };
        let (a, b) = (reason(), reason());
        assert_eq!(a, "same reason");
        assert!(std::ptr::eq(a, b));
    }

    /// A cache file written by the previous release (the hand-written
    /// encoder era): every kind, an `Unknown` reason full of escapes,
    /// and one pre-CRC unframed line. It must load without quarantining
    /// anything and re-save byte for byte, the unframed line gaining
    /// only its frame.
    #[test]
    fn legacy_file_loads_and_resaves_byte_identically() {
        const LEGACY: &str = include_str!("../testdata/legacy-cache.jsonl");
        let dir = scratch("legacy-file");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), LEGACY).unwrap();
        let cache = AnalysisCache::load(&dir).unwrap();
        assert_eq!(cache.quarantined(), 0);
        assert!(!dir.join(QUARANTINE_FILE).exists());
        assert_eq!(counts(&cache), [3, 2, 1, 2]);
        assert_eq!(
            cache.get::<FilterVerdict>("x86:cccc"),
            Some(FilterVerdict::Unknown(
                "call to \"helper\"\tat\\0x401000\n\u{1}é"
            ))
        );
        let unframed = cache.get::<SehSummary>("0badf00d").expect("unframed line");
        assert_eq!(
            (unframed.module.as_str(), unframed.is_x64),
            ("xmllite", false)
        );
        let arena = cache
            .get::<ArenaSummary>("stealth:s2017:r3:vsftpd")
            .unwrap();
        assert_eq!(arena.pairs[1].blocked_escalations, 12);

        let expected: String = LEGACY
            .lines()
            .map(|line| {
                let framed = if line.starts_with('{') {
                    frame(line)
                } else {
                    line.to_string()
                };
                framed + "\n"
            })
            .collect();
        assert_eq!(cache.export_jsonl(), expected);
        cache.save(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap(),
            expected
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
