//! Work counters read from the engine's public accessors before and after
//! the measured schedule. Their per-run deltas are deterministic for a
//! given seed and schedule: a changed counter means changed work.

use deeplens_core::shared::SharedCatalog;

use crate::report::Outcome;

#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    frames_decoded: u64,
    lineage_entries: u64,
    index_deltas_maintained: u64,
    index_delta_merges: u64,
    columnar_rebuilt: u64,
    rows_materialized: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl Snapshot {
    pub fn take(catalog: &SharedCatalog) -> Snapshot {
        let cache = catalog.result_cache();
        Snapshot {
            frames_decoded: deeplens_codec::frames_decoded(),
            lineage_entries: catalog.with_lineage(|l| l.len()) as u64,
            index_deltas_maintained: deeplens_core::catalog::index_deltas_maintained(),
            index_delta_merges: deeplens_core::catalog::index_delta_merges(),
            columnar_rebuilt: deeplens_core::catalog::columnar_backings_rebuilt(),
            rows_materialized: deeplens_core::scan::rows_materialized(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
        }
    }

    /// Counter deltas from `before` to `self`.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            frames_decoded: self.frames_decoded - before.frames_decoded,
            lineage_entries: self.lineage_entries - before.lineage_entries,
            index_deltas_maintained: self.index_deltas_maintained - before.index_deltas_maintained,
            index_delta_merges: self.index_delta_merges - before.index_delta_merges,
            columnar_rebuilt: self.columnar_rebuilt - before.columnar_rebuilt,
            rows_materialized: self.rows_materialized - before.rows_materialized,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        for (name, v) in [
            ("codec.frames_decoded", self.frames_decoded),
            ("shared.lineage_entries", self.lineage_entries),
            (
                "catalog.index_deltas_maintained",
                self.index_deltas_maintained,
            ),
            ("catalog.index_delta_merges", self.index_delta_merges),
            ("catalog.columnar_rebuilt", self.columnar_rebuilt),
            ("scan.rows_materialized", self.rows_materialized),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
            ("cache.evictions", self.cache_evictions),
        ] {
            out.layer(name, v as f64, "count");
        }
    }
}
