//! Exception-handler discovery (paper §IV-C, Tables II and III).
//!
//! Pipeline per module:
//!
//! 1. parse `.pdata` → RUNTIME_FUNCTION entries → C-specific-handler
//!    scope tables (done by `cr-image`);
//! 2. collect the *unique filter functions* referenced by the scopes;
//! 3. explore every filter path-by-path ([`cr_symex::FilterExplorer`],
//!    feasibility-pruned forking with incremental solving) and ask the
//!    solver whether any path accepts `EXCEPTION_ACCESS_VIOLATION`
//!    (returns ≠ `EXCEPTION_CONTINUE_SEARCH`) — the crate's one
//!    decision procedure;
//! 4. classify each scope: catch-all scopes and scopes whose filter
//!    accepts (or defeats the analysis) survive — the "after SB" set;
//! 5. cross-reference surviving guarded regions against an execution
//!    trace to find the ones an attacker can actually trigger.

use crate::stable_hash::{sha256_hex, Sha256};
use cr_image::{FilterRef, Machine, PeImage};
use cr_symex::{CodeSource, FilterExplorer, FilterVerdict};
use std::collections::{BTreeMap, HashSet};

/// Classification of one scope's filter.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum FilterClass {
    /// Scope filter field is the constant 1: handles everything.
    CatchAll,
    /// Filter function proven to accept an access violation.
    AcceptsAv {
        /// Witness `ExceptionCode` from the solver model.
        witness: u64,
    },
    /// Filter function proven to reject access violations.
    RejectsAv,
    /// Symbolic execution could not decide (e.g. the filter calls another
    /// function) — kept for manual verification.
    Undecided {
        /// Executor abort reason.
        reason: String,
    },
}

impl FilterClass {
    /// Whether this scope survives symbolic vetting ("after SB").
    pub fn survives(&self) -> bool {
        !matches!(self, FilterClass::RejectsAv)
    }
}

/// One guarded code location (scope) with its classification.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScopeCandidate {
    /// Guarded region begin (VA).
    pub begin_va: u64,
    /// Guarded region end (VA).
    pub end_va: u64,
    /// `__except` continuation (VA).
    pub target_va: u64,
    /// Filter classification.
    pub class: FilterClass,
}

/// One guarded function (a RUNTIME_FUNCTION with an exception handler).
#[derive(Debug, Clone, serde::Serialize)]
pub struct GuardedFunction {
    /// Function begin (VA).
    pub begin_va: u64,
    /// Function end (VA).
    pub end_va: u64,
    /// The function's `__try` scopes.
    pub scopes: Vec<ScopeCandidate>,
}

impl GuardedFunction {
    /// Whether any scope survives symbolic vetting.
    pub fn survives(&self) -> bool {
        self.scopes.iter().any(|s| s.class.survives())
    }
}

/// Full SEH analysis of one module.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ModuleSehAnalysis {
    /// Module name.
    pub module: String,
    /// x64 or x86 container.
    pub is_x64: bool,
    /// Guarded code locations before symbolic execution (functions with
    /// a C-specific handler).
    pub guarded_before: usize,
    /// Locations with at least one AV-capable scope ("after SB").
    pub guarded_after: usize,
    /// Unique filter functions before symbolic execution.
    pub filters_before: usize,
    /// Filter functions surviving symbolic execution.
    pub filters_after: usize,
    /// Filters the executor could not decide (manual verification).
    pub filters_undecided: usize,
    /// Guarded functions with their scopes.
    pub functions: Vec<GuardedFunction>,
    /// All scopes, flattened.
    pub scopes: Vec<ScopeCandidate>,
}

/// Code source over a parsed PE image's executable sections.
pub struct PeCode<'a> {
    image: &'a PeImage,
}

impl<'a> PeCode<'a> {
    /// Wrap an image.
    pub fn new(image: &'a PeImage) -> PeCode<'a> {
        PeCode { image }
    }
}

impl CodeSource for PeCode<'_> {
    fn read_code(&self, va: u64, buf: &mut [u8]) -> usize {
        let Some(rva) = va.checked_sub(self.image.image_base) else {
            return 0;
        };
        let Some(section) = self.image.section_at(rva as u32) else {
            return 0;
        };
        if !section.perm.x {
            return 0;
        }
        let off = (rva as u32 - section.rva) as usize;
        if off >= section.data.len() {
            return 0;
        }
        let n = buf.len().min(section.data.len() - off);
        buf[..n].copy_from_slice(&section.data[off..off + n]);
        n
    }
}

/// Lookaside store for filter verdicts, keyed by a stable content hash
/// of the filter function's code bytes (see [`filter_key`]).
///
/// [`analyze_module_cached`] consults the cache before symbolically
/// executing a filter and publishes fresh verdicts back, so identical
/// filter code shared across modules (or across campaign runs) is only
/// ever solved once. The trait is object-safe on purpose: `cr-core`
/// stays oblivious to where verdicts persist (memory, JSONL, …).
pub trait VerdictCache {
    /// Look up a previously computed verdict.
    fn get(&self, key: &str) -> Option<FilterVerdict>;
    /// Record a freshly computed verdict.
    fn put(&mut self, key: &str, verdict: &FilterVerdict);
}

/// The trivial cache: never hits, never stores.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCache;

impl VerdictCache for NoCache {
    fn get(&self, _key: &str) -> Option<FilterVerdict> {
        None
    }
    fn put(&mut self, _key: &str, _verdict: &FilterVerdict) {}
}

/// Code bytes of the filter function at `rva`.
///
/// The covering RUNTIME_FUNCTION entry delimits the function; filters
/// without one (not all filter thunks get unwind entries) fall back to
/// a fixed 512-byte window clamped to the section.
pub fn filter_code_bytes(image: &PeImage, rva: u32) -> Vec<u8> {
    let end = image
        .runtime_functions
        .iter()
        .find(|rf| rf.begin_rva <= rva && rva < rf.end_rva)
        .map(|rf| rf.end_rva);
    let Some(section) = image.section_at(rva) else {
        return Vec::new();
    };
    let off = (rva - section.rva) as usize;
    if off >= section.data.len() {
        return Vec::new();
    }
    let avail = section.data.len() - off;
    let len = match end {
        Some(e) => ((e - rva) as usize).min(avail),
        None => avail.min(512),
    };
    section.data[off..off + len].to_vec()
}

/// Stable cache key for the filter at `rva`: machine tag plus SHA-256
/// of the filter's code bytes. Identical filter code always maps to
/// the same key, across modules, processes and campaign runs.
pub fn filter_key(image: &PeImage, rva: u32) -> String {
    let tag = match image.machine {
        Machine::X64 => "x64",
        _ => "x86",
    };
    format!("{}:{}", tag, sha256_hex(&filter_code_bytes(image, rva)))
}

/// Stable content hash of a whole image — the cache key for
/// module-level analyses. Covers everything `analyze_module` can
/// observe: identity, layout, section bytes and permissions.
pub fn image_content_hash(image: &PeImage) -> String {
    let mut h = Sha256::new();
    h.update(image.name.as_bytes());
    h.update(&[
        0,
        if image.machine == Machine::X64 {
            64
        } else {
            32
        },
    ]);
    h.update(&image.image_base.to_le_bytes());
    h.update(&image.entry_rva.to_le_bytes());
    for s in &image.sections {
        h.update(s.name.as_bytes());
        h.update(&s.rva.to_le_bytes());
        h.update(&s.virtual_size.to_le_bytes());
        h.update(&[0, s.perm.r as u8, s.perm.w as u8, s.perm.x as u8]);
        h.update(&(s.data.len() as u64).to_le_bytes());
        h.update(&s.data);
    }
    crate::stable_hash::to_hex(&h.finish())
}

/// Analyze one module: parse scopes, vet filters, classify.
pub fn analyze_module(image: &PeImage) -> ModuleSehAnalysis {
    analyze_module_cached(image, &mut NoCache)
}

/// [`analyze_module`], consulting `cache` before each symbolic
/// execution and publishing fresh verdicts back into it.
pub fn analyze_module_cached(image: &PeImage, cache: &mut dyn VerdictCache) -> ModuleSehAnalysis {
    let base = image.image_base;
    let code = PeCode::new(image);
    let explorer = FilterExplorer::default();

    // Unique filters across all scopes.
    let mut filter_rvas: Vec<u32> = image
        .runtime_functions
        .iter()
        .flat_map(|rf| rf.unwind.scopes.iter())
        .filter_map(|s| match s.filter {
            FilterRef::Function(rva) => Some(rva),
            FilterRef::CatchAll => None,
        })
        .collect();
    filter_rvas.sort_unstable();
    filter_rvas.dedup();
    let keys: Vec<String> = filter_rvas
        .iter()
        .map(|&rva| filter_key(image, rva))
        .collect();

    // Symbolically vet every unique filter once, going through the
    // content-addressed cache: two filters with identical code bytes
    // share one solver run even within a single module. `computed`
    // mirrors this run's own puts so a non-storing cache (NoCache)
    // still shares one run per key.
    let mut computed: BTreeMap<&str, FilterVerdict> = BTreeMap::new();
    let mut verdicts: BTreeMap<u32, FilterVerdict> = BTreeMap::new();
    for (&rva, key) in filter_rvas.iter().zip(&keys) {
        let verdict = match cache.get(key) {
            Some(v) => v,
            None => match computed.get(key.as_str()) {
                Some(v) => v.clone(),
                None => {
                    let report = explorer.explore(&code, base + rva as u64);
                    cache.put(key, &report.verdict);
                    computed.insert(key, report.verdict.clone());
                    report.verdict
                }
            },
        };
        verdicts.insert(rva, verdict);
    }

    let mut functions = Vec::new();
    for rf in &image.runtime_functions {
        if rf.unwind.handler_rva.is_none() || rf.unwind.scopes.is_empty() {
            continue;
        }
        let mut scopes = Vec::new();
        for s in &rf.unwind.scopes {
            let class = match s.filter {
                FilterRef::CatchAll => FilterClass::CatchAll,
                FilterRef::Function(rva) => match &verdicts[&rva] {
                    FilterVerdict::AcceptsAccessViolation { witness_code } => {
                        FilterClass::AcceptsAv {
                            witness: *witness_code,
                        }
                    }
                    FilterVerdict::RejectsAccessViolation => FilterClass::RejectsAv,
                    FilterVerdict::Unknown(r) => FilterClass::Undecided {
                        reason: r.to_string(),
                    },
                },
            };
            scopes.push(ScopeCandidate {
                begin_va: base + s.begin_rva as u64,
                end_va: base + s.end_rva as u64,
                target_va: base + s.target_rva as u64,
                class,
            });
        }
        functions.push(GuardedFunction {
            begin_va: base + rf.begin_rva as u64,
            end_va: base + rf.end_rva as u64,
            scopes,
        });
    }
    let scopes: Vec<ScopeCandidate> = functions
        .iter()
        .flat_map(|f| f.scopes.iter().cloned())
        .collect();

    let guarded_before = functions.len();
    let guarded_after = functions.iter().filter(|f| f.survives()).count();
    let filters_before = filter_rvas.len();
    let filters_after = verdicts
        .values()
        .filter(|v| !matches!(v, FilterVerdict::RejectsAccessViolation))
        .count();
    let filters_undecided = verdicts
        .values()
        .filter(|v| matches!(v, FilterVerdict::Unknown(_)))
        .count();

    ModuleSehAnalysis {
        module: image.name.clone(),
        is_x64: image.machine == Machine::X64,
        guarded_before,
        guarded_after,
        filters_before,
        filters_after,
        filters_undecided,
        functions,
        scopes,
    }
}

/// Count surviving guarded locations whose region intersects the
/// execution trace (the paper's DynamoRIO cross-reference).
pub fn on_path_count(analysis: &ModuleSehAnalysis, visited: &HashSet<u64>) -> usize {
    analysis
        .functions
        .iter()
        .filter(|f| f.survives())
        .filter(|f| visited.iter().any(|&va| va >= f.begin_va && va < f.end_va))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_targets::browsers::{calib, generate_dll, DllSpec, CALIBRATION};
    use serde::Serialize;

    #[test]
    fn recovers_calibrated_counts_for_user32() {
        let c = calib("user32").unwrap();
        let img = generate_dll(&DllSpec::from_calib_x64(c, 0));
        let a = analyze_module(&img);
        assert_eq!(
            a.guarded_before as u32, c.guarded_before,
            "Table II before-SB"
        );
        assert_eq!(a.guarded_after as u32, c.guarded_after, "Table II after-SB");
        assert_eq!(
            a.filters_before as u32, c.fx64_before,
            "Table III before-SB"
        );
        assert_eq!(a.filters_after as u32, c.fx64_after, "Table III after-SB");
    }

    #[test]
    fn recovers_all_table2_rows() {
        for (i, c) in CALIBRATION.iter().filter(|c| c.in_table2).enumerate() {
            let img = generate_dll(&DllSpec::from_calib_x64(c, i));
            let a = analyze_module(&img);
            assert_eq!(
                a.guarded_before as u32, c.guarded_before,
                "{} before",
                c.name
            );
            assert_eq!(a.guarded_after as u32, c.guarded_after, "{} after", c.name);
        }
    }

    #[test]
    fn x86_filter_counts_recovered() {
        let c = calib("kernel32").unwrap();
        let img = generate_dll(&DllSpec::from_calib_x86(c, 1));
        let a = analyze_module(&img);
        assert!(!a.is_x64);
        assert_eq!(a.filters_before as u32, c.fx86_before);
        assert_eq!(a.filters_after as u32, c.fx86_after);
    }

    #[test]
    fn jscript9_has_an_undecided_filter() {
        // The "filter calls a helper" shape must surface as Undecided —
        // the paper's manual-verification bucket.
        let c = calib("jscript9").unwrap();
        let img = generate_dll(&DllSpec::from_calib_x64(c, 3));
        let a = analyze_module(&img);
        assert_eq!(a.filters_undecided, 1);
        assert!(a
            .scopes
            .iter()
            .any(|s| matches!(s.class, FilterClass::Undecided { .. })));
    }

    #[derive(Default)]
    struct MapCache {
        map: BTreeMap<String, FilterVerdict>,
    }

    impl VerdictCache for MapCache {
        fn get(&self, key: &str) -> Option<FilterVerdict> {
            self.map.get(key).cloned()
        }
        fn put(&mut self, key: &str, verdict: &FilterVerdict) {
            self.map.insert(key.to_string(), verdict.clone());
        }
    }

    /// Read-only view of a [`MapCache`]: any `put` means symbolic
    /// execution ran, which a warm rerun must never do.
    struct Frozen<'a>(&'a MapCache);

    impl VerdictCache for Frozen<'_> {
        fn get(&self, key: &str) -> Option<FilterVerdict> {
            self.0.get(key)
        }
        fn put(&mut self, key: &str, _verdict: &FilterVerdict) {
            panic!("warm rerun recomputed a verdict for {key:?}");
        }
    }

    #[test]
    fn cached_analysis_is_identical_and_skips_symex_on_rerun() {
        let c = calib("user32").unwrap();
        let img = generate_dll(&DllSpec::from_calib_x64(c, 0));

        let mut cache = MapCache::default();
        let first = analyze_module_cached(&img, &mut cache);
        assert!(!cache.map.is_empty(), "cold run must populate the cache");

        // Every verdict is served from the cache: Frozen panics on put.
        let second = analyze_module_cached(&img, &mut Frozen(&cache));

        // Cached and uncached paths agree bit-for-bit.
        let plain = analyze_module(&img);
        for a in [&first, &second] {
            assert_eq!(a.guarded_before, plain.guarded_before);
            assert_eq!(a.guarded_after, plain.guarded_after);
            assert_eq!(a.filters_before, plain.filters_before);
            assert_eq!(a.filters_after, plain.filters_after);
            assert_eq!(a.filters_undecided, plain.filters_undecided);
        }
        assert_eq!(first.to_json(), plain.to_json());
        assert_eq!(second.to_json(), plain.to_json());
    }

    #[test]
    fn filter_keys_are_content_addressed() {
        let c = calib("user32").unwrap();
        let img = generate_dll(&DllSpec::from_calib_x64(c, 0));
        let rvas: Vec<u32> = img
            .runtime_functions
            .iter()
            .flat_map(|rf| rf.unwind.scopes.iter())
            .filter_map(|s| match s.filter {
                FilterRef::Function(rva) => Some(rva),
                FilterRef::CatchAll => None,
            })
            .collect();
        assert!(!rvas.is_empty());
        for &rva in &rvas {
            let bytes = filter_code_bytes(&img, rva);
            assert!(!bytes.is_empty(), "filter at {rva:#x} has code bytes");
            // Key is a pure function of the code bytes + machine.
            assert_eq!(
                filter_key(&img, rva),
                format!("x64:{}", crate::stable_hash::sha256_hex(&bytes))
            );
        }
        // A different module produces a different image hash.
        let other = generate_dll(&DllSpec::from_calib_x64(calib("ntdll").unwrap(), 1));
        assert_ne!(image_content_hash(&img), image_content_hash(&other));
        assert_eq!(image_content_hash(&img), image_content_hash(&img));
    }

    #[test]
    fn on_path_cross_reference() {
        let c = calib("xmllite").unwrap();
        let img = generate_dll(&DllSpec::from_calib_x64(c, 7));
        let a = analyze_module(&img);
        // Simulate a trace that visited the first surviving function.
        let first = a.functions.iter().find(|f| f.survives()).unwrap();
        let mut visited = HashSet::new();
        visited.insert(first.begin_va);
        assert_eq!(on_path_count(&a, &visited), 1);
        assert_eq!(on_path_count(&a, &HashSet::new()), 0);
    }
}
