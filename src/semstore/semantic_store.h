// Semantic store (Fig. 3, step 5.3): every RESTful query PayLess ever
// issued, together with its result tuples. The paper keeps every result —
// it trades cheap buyer-side storage for not re-buying data (§3) — but a
// capacity budget may evict whole tables (DropTable, driven by the
// federation's placement policy). Stored views power semantic query
// rewriting (§4.2) and the three consistency levels (§4.3).
//
// Two internal representations serve the two access patterns:
//   - the raw VIEW LIST (region + rows + epoch per call) supports epoch-
//     filtered reads for X-week consistency;
//   - a normalized COVERAGE list (merged maximal boxes) plus a deduplicated
//     per-table ROW POOL with per-dimension postings keep remainder
//     generation and cached-row retrieval fast as thousands of calls
//     accumulate.
//
// Thread-safety: tables live in a hash-sharded cell map and each table's
// data is an immutable copy-on-write snapshot (common::SnapshotCell).
// Readers — Covers / CoveredRegions and the pinned TableSnapshot, the query
// hot path — take ZERO locks: one atomic snapshot load and they walk a
// structure that can never change underneath them. Each Covers /
// CoveredRegions call loads its own snapshot; a reader that needs coverage
// and rows to agree (the executor) pins one with Pin and reads both through
// it. Stored rows are read BY REFERENCE: TableSnapshot::RowsInRegion hands
// out pointers into the pinned snapshot, valid for as long as it is held.
// Writers (Store, fed by market-call results) serialize per table on a
// small writer mutex, rebuild the affected parts of the snapshot, and
// publish with a release store. Views, row chunks and posting runs are
// shared between successive snapshots, so the row work of a Store is in
// proportion to its own rows: it copies the view pointers, the coverage
// boxes and O(log pool) run pointers per dimension, never the accumulated
// rows or postings. The pool points at rows held by the views, so each row's
// payload is kept once. A Store appends to a private copy of the open tail
// chunk, so no pooled entry a snapshot references is ever written again,
// and posts its new rows in one new run per dimension, merging the newest
// run into the one before it while that one is at most twice its size (at
// most log2(pool) + 1 runs). It probes the pool for duplicates only with
// rows that could already be pooled: a pooled row's point lies in the
// region of the call that pooled it, hence in the coverage, unless it is
// recorded as a stray point; so a row inside its call's region and outside
// every old coverage box and stray point is new. A monotonic
// version counter ticks on every mutation; the plan-template cache keys on
// it to invalidate cached plans whenever coverage — and hence SQR costs —
// may have changed.
#ifndef PAYLESS_SEMSTORE_SEMANTIC_STORE_H_
#define PAYLESS_SEMSTORE_SEMANTIC_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/geometry.h"
#include "common/snapshot.h"
#include "common/value.h"
#include "obs/metrics.h"

namespace payless::semstore {

/// One remembered REST call: the region of the table's constrainable-
/// attribute space the call covered, the tuples it returned, and the epoch
/// (coarse timestamp, e.g. a week counter) it was retrieved at.
struct StoredView {
  Box region;
  std::vector<Row> rows;
  int64_t epoch = 0;
};

/// Lattice point of a row in a table's constrainable-attribute space;
/// nullopt if some constrainable value is NULL or outside its domain.
std::optional<std::vector<int64_t>> RowPoint(const catalog::TableDef& def,
                                             const Row& row);

/// Introspection summary of one table's stored state — the /store
/// endpoint's row, also rendered into metrics. All counters are lifetime
/// (they survive Clear; the cleared views count as evictions).
struct StoreTableStats {
  std::string table;
  size_t views = 0;           // raw stored calls
  size_t coverage_boxes = 0;  // normalized merged maximal boxes
  size_t pooled_rows = 0;     // deduplicated tuples
  int64_t approx_bytes = 0;   // rough retained payload size
  /// Fraction of the table's constrainable-attribute lattice covered by the
  /// normalized coverage (sum of box volumes / domain volume, clamped to 1
  /// since merged boxes may still overlap). -1 when no domain is known yet.
  double covered_fraction = -1.0;
  int64_t probes = 0;  // Covers + RowsInRegion lookups against this table
  int64_t hits = 0;    // probe found usable coverage / rows
  int64_t misses = 0;  // probe came back empty-handed
  int64_t min_epoch = 0;  // oldest stored view's epoch (age lower bound)
  int64_t max_epoch = 0;  // newest stored view's epoch
};

class SemanticStore {
 public:
  class TableSnapshot;

  SemanticStore() = default;
  SemanticStore(const SemanticStore&) = delete;
  SemanticStore& operator=(const SemanticStore&) = delete;

  /// Remembers a call's region and result rows. Serializes on the table's
  /// writer mutex, publishes a fresh snapshot; bumps version().
  void Store(const catalog::TableDef& def, Box region, std::vector<Row> rows,
             int64_t epoch);

  /// All views of a table (regardless of epoch), copied out of the current
  /// snapshot. Safe under concurrent Store; introspection/tests only (the
  /// copy is deep).
  std::vector<StoredView> ViewsOf(const std::string& table) const;

  /// Regions of views no older than `min_epoch` (the X-week consistency
  /// filter; INT64_MIN = weak consistency, served from the normalized
  /// coverage). Returns a snapshot by value.
  std::vector<Box> CoveredRegions(const std::string& table,
                                  int64_t min_epoch) const;

  /// True iff usable views jointly cover `region` — the table's required
  /// tuples are free, making it a "zero price relation" (Theorem 2).
  /// Lock-free.
  bool Covers(const catalog::TableDef& def, const Box& region,
              int64_t min_epoch) const;

  /// Pins `table`'s current state. Reads through the returned snapshot all
  /// see that one state, so coverage checked through it always matches the
  /// rows read through it, even under a concurrent Store or DropTable.
  /// Lock-free.
  TableSnapshot Pin(const std::string& table) const;

  size_t NumViews(const std::string& table) const;
  size_t TotalViews() const;
  size_t TotalStoredRows() const;

  /// Names of every table with stored state, sorted. The durability
  /// snapshot iterates them (ViewsOf per table is the export).
  std::vector<std::string> TableNames() const;

  void Clear();

  /// Evicts one table's entire stored state (views, coverage, row pool),
  /// publishing an empty snapshot in its place — the placement policy's
  /// lever for staying under a capacity budget. Dropped views count as
  /// evictions; the table's lifetime probe counters survive. Bumps
  /// version() so cached plans re-optimize against the shrunk coverage.
  void DropTable(const std::string& table);

  /// Mirror probe outcomes and evictions into registry counters (pass
  /// nullptr to unbind). The store keeps its own atomics either way, so
  /// introspection works without a registry; binding only adds three
  /// relaxed increments per probe. Not thread-safe against in-flight
  /// probes: bind before serving queries.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions);

  /// Lifetime probe outcome counters (hits + misses == probes).
  int64_t TotalProbes() const {
    return probes_.load(std::memory_order_relaxed);
  }
  int64_t TotalHits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t TotalMisses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  int64_t TotalEvictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Per-table coverage summaries, sorted by table name. Reads snapshots —
  /// safe under concurrent queries and stores.
  std::vector<StoreTableStats> SnapshotStats() const;

  /// {"version":N,"probes":N,"hits":N,"misses":N,"evictions":N,
  ///  "tables":[{...per-table stats...}]}
  std::string StatsJson() const;

  /// Monotonic mutation counter: ticks on every Store and Clear. Two equal
  /// observations bracket an interval in which coverage was unchanged, so
  /// any plan optimized in between is still cost-correct.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  /// Rows are pooled in fixed-capacity chunks so successive snapshots share
  /// all full chunks; only the open tail chunk is copied by a Store.
  static constexpr size_t kRowChunkShift = 8;
  static constexpr size_t kRowChunk = 1u << kRowChunkShift;  // 256 rows

  /// The pool holds no row payload: each pooled row is a pointer to the
  /// copy in the view that first brought it, and every snapshot holding
  /// the pool holds that view. Lattice points are stored flat, `num_dims`
  /// coordinates per row, so a containment test reads one contiguous run
  /// instead of chasing a per-row heap vector.
  struct RowChunk {
    std::vector<const Row*> rows;
    std::vector<int64_t> points;  // row i's point: [i * num_dims, +num_dims)
  };

  /// One immutable posting run of one dimension: the pool indices of a
  /// batch of rows grouped by their coordinate there, in CSR layout. Code
  /// codes[k] owns indices[offsets[k], offsets[k + 1]), ascending. Runs are
  /// shared between snapshots and never modified once built.
  struct PostingRun {
    std::vector<int64_t> codes;     // ascending, distinct
    std::vector<uint32_t> offsets;  // codes.size() + 1 entries
    std::vector<uint32_t> indices;

    /// Positions [first, second) in `codes` of the codes within [lo, hi].
    std::pair<size_t, size_t> Range(int64_t lo, int64_t hi) const;
    /// Number of indices posted under the codes at `range`.
    size_t Count(std::pair<size_t, size_t> range) const {
      return offsets[range.second] - offsets[range.first];
    }

    /// Run of (code, index) `pairs`, sorted ascending.
    static std::shared_ptr<const PostingRun> FromSorted(
        std::span<const std::pair<int64_t, uint32_t>> pairs);
    /// Union of two runs; every index of `older` is below every index of
    /// `newer`, so each code's indices stay ascending.
    static std::shared_ptr<const PostingRun> Merge(const PostingRun& older,
                                                   const PostingRun& newer);
  };
  /// One dimension's runs, oldest first: run k holds pool indices all below
  /// those of run k + 1, so reading the runs in order yields each code's
  /// indices ascending.
  using PostingRuns = std::vector<std::shared_ptr<const PostingRun>>;

  /// Immutable per-table snapshot: everything a reader needs, reachable
  /// from one acquire load. Never mutated after publication.
  struct TableData {
    std::vector<std::shared_ptr<const StoredView>> views;
    std::vector<Box> coverage;  // normalized merged maximal boxes
    std::vector<std::shared_ptr<const RowChunk>> chunks;  // dedup row pool
    size_t pooled_rows = 0;
    size_t num_dims = 0;  // constrainable columns: coordinates per point
    /// postings[dim]: the pool indices of each coordinate, as shared runs.
    /// Dimensions whose whole domain is a single lattice point are not
    /// posted (dim_posted[d] == 0): their one code would post the entire
    /// pool and select nothing.
    std::vector<PostingRuns> postings;
    std::vector<uint8_t> dim_posted;
    /// Points (num_dims coordinates each) of pooled rows that lay outside
    /// the region of the call that pooled them — the only pooled points the
    /// coverage need not contain. Null while there are none.
    std::shared_ptr<const std::vector<int64_t>> stray_points;
    int64_t approx_bytes = 0;   // accumulated at Store time
    int64_t domain_volume = 0;  // lattice size, learned from the TableDef
    int64_t min_epoch = 0;      // oldest / newest stored view epochs
    int64_t max_epoch = 0;

    const Row& PooledRow(size_t i) const {
      return *chunks[i >> kRowChunkShift]->rows[i & (kRowChunk - 1)];
    }
    std::span<const int64_t> PooledPoint(size_t i) const {
      return {chunks[i >> kRowChunkShift]->points.data() +
                  (i & (kRowChunk - 1)) * num_dims,
              num_dims};
    }
  };

  /// One table's cell: the published snapshot and lifetime probe counters.
  /// Writer-side dedup probes the posting runs of the published snapshot,
  /// so no separate seen-set (with its second copy of every pooled row) is
  /// kept.
  struct TableCell {
    TableCell() { data.Store(std::make_shared<const TableData>()); }

    std::mutex write_mutex;  // serializes Store on this table
    common::SnapshotCell<TableData> data;
    mutable std::atomic<int64_t> probes{0};
    mutable std::atomic<int64_t> hits{0};
    mutable std::atomic<int64_t> misses{0};
  };

  static void AddCoverage(std::vector<Box>* coverage, Box region);

  /// Appends `run` to `runs`, then merges the newest run into the one
  /// before it while that one is at most twice its size, so a pool of n
  /// rows keeps at most log2(n) + 1 runs per dimension.
  static void AddRun(PostingRuns* runs, std::shared_ptr<const PostingRun> run);

  /// True iff `data`'s pool already holds `row`, whose lattice point is
  /// `point`.
  static bool IsPooled(const TableData& data, std::span<const int64_t> point,
                       const Row& row);

  /// Views usable under `min_epoch`, as regions (weak consistency reads the
  /// normalized coverage instead — see IsCoveredUnder for the alloc-free
  /// variant used by Covers).
  static std::vector<Box> CoveredRegionsOf(const TableData& data,
                                           int64_t min_epoch);
  static bool IsCoveredUnder(const TableData& data, const Box& region,
                             int64_t min_epoch);

  /// Stored tuples of one snapshot inside `region`, by reference into
  /// `data` (no probe accounting).
  static std::vector<const Row*> RowsIn(const TableData& data,
                                        const catalog::TableDef& def,
                                        const Box& region, int64_t min_epoch);

  /// Classify one probe outcome into the table's and the store's counters
  /// (and the bound registry counters, when any).
  void CountProbe(const TableCell* cell, bool hit) const;

  common::ShardedCellMap<TableCell> cells_;
  std::atomic<uint64_t> version_{0};

  mutable std::atomic<int64_t> probes_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<obs::Counter*> hits_metric_{nullptr};
  std::atomic<obs::Counter*> misses_metric_{nullptr};
  std::atomic<obs::Counter*> evictions_metric_{nullptr};
};

/// One table's stored state at a single instant (see SemanticStore::Pin).
/// Probes through it count in the store's hit/miss counters exactly like
/// the store's own Covers.
class SemanticStore::TableSnapshot {
 public:
  std::vector<Box> CoveredRegions(int64_t min_epoch) const;
  bool Covers(const Box& region, int64_t min_epoch) const;

  /// Deduplicated stored tuples of `def` falling inside `region`, from
  /// views no older than `min_epoch`. The pointers reach into this pinned
  /// snapshot: they stay valid, and their rows unchanged, for as long as
  /// this snapshot (or a copy of it) lives, whatever Store / DropTable /
  /// Clear run meanwhile. Lock-free.
  std::vector<const Row*> RowsInRegion(const catalog::TableDef& def,
                                       const Box& region,
                                       int64_t min_epoch) const;

 private:
  friend class SemanticStore;
  TableSnapshot(const SemanticStore* store, std::shared_ptr<TableCell> cell)
      : store_(store),
        cell_(std::move(cell)),
        data_(cell_ != nullptr ? cell_->data.Load() : nullptr) {}

  const SemanticStore* store_;
  std::shared_ptr<TableCell> cell_;        // null: table never stored
  std::shared_ptr<const TableData> data_;  // null iff cell_ is
};

}  // namespace payless::semstore

#endif  // PAYLESS_SEMSTORE_SEMANTIC_STORE_H_
